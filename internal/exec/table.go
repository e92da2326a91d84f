// Package exec runs synthesized algorithms against the storage simulator.
// It plays the role of the paper's generated-and-compiled C programs: the
// optimized OCAL program is lowered to a tree of streaming batch operators
// (scan, filter/project, nested-loop join, GRACE hash join, external merge
// sort, streaming merges and folds) whose Open/Next/Close protocol moves
// real tuples while charging simulated I/O and CPU time, with working
// memory pinned in the storage buffer pool.
package exec

import (
	"fmt"
	"strings"

	"ocas/internal/storage"
)

// Table is a device-resident relation of fixed-arity int32 tuples: a typed
// view over a storage spill file. The tuple payload lives in host memory;
// all accesses go through the volume so the simulator charges seeks and
// transfer time.
type Table struct {
	*storage.Spill
	Arity int
}

// NewTable allocates a table for capRows tuples on the device.
func NewTable(dev *storage.Device, arity int, capRows int64) (*Table, error) {
	sp, err := dev.NewSpill(int64(arity)*4, capRows)
	if err != nil {
		return nil, err
	}
	return &Table{Spill: sp, Arity: arity}, nil
}

// NewBackedTable opens a device-resident view over rows durable storage
// supplies (a catalog table's columnar segments): device space is claimed
// without charging, exactly like Preload, and the payload materializes from
// b on first read. Every access then charges the device's InitCom/UnitTr
// model, so a backed table is indistinguishable from a preloaded one on the
// ledger and the virtual clock.
func NewBackedTable(dev *storage.Device, arity int, rows int64, b storage.Backing) (*Table, error) {
	sp, err := dev.NewBackedSpill(int64(arity)*4, rows, b)
	if err != nil {
		return nil, err
	}
	return &Table{Spill: sp, Arity: arity}, nil
}

// Preload installs row-major rows without charging I/O: the input data
// already resides on the device when the experiment starts. Rows that are
// already column vectors go in through the spill's PreloadCols, which takes
// them as they stand.
func (t *Table) Preload(rows []int32) error {
	if int64(len(rows))%int64(t.Arity) != 0 {
		return fmt.Errorf("exec: preload length %d not a multiple of arity %d", len(rows), t.Arity)
	}
	n := int64(len(rows)) / int64(t.Arity)
	if !t.Room(n) {
		return fmt.Errorf("exec: preload exceeds capacity")
	}
	t.Spill.Preload(rows)
	return nil
}

// Rows returns the number of tuples.
func (t *Table) Rows() int64 { return t.Records() }

// Sink is a buffered writer implementing the paper's output buffer b_out:
// rows accumulate in RAM and are evicted to the output table in one
// contiguous write when the buffer fills (Section 5.2). A nil Out means the
// output is consumed by the CPU (no charges).
type Sink struct {
	Out  *Table
	Bout int64 // records per eviction; <=0 means 1
	// Sim's root account takes the output charges: the sink runs on the
	// driver strand.
	Sim *storage.Sim

	// Alloc, when non-nil and Out is nil, allocates the output table
	// lazily from the first batch's arity (callers that cannot know the
	// output arity before execution, e.g. the /execute service path).
	Alloc func(arity int) (*Table, error)
	// Tap, when non-nil, observes every batch before buffering/discarding.
	// The column views are the producer's: valid only during the call.
	Tap func(b *Batch)
	// Err records a failed lazy allocation (checked after Run).
	Err error

	cols [][]int32 // the output buffer, column-striped like the table
	rows int64
	// RowsWritten counts all rows that passed through, even when discarded.
	RowsWritten int64
}

// OutBlock picks the Sink.Bout the optimizer chose for a plan: the largest
// output-buffer parameter (apply-block-out names them ko*, the merging
// treeFold bout*), 1 when the plan has none.
func OutBlock(params map[string]int64) int64 {
	var best int64 = 1
	for name, v := range params {
		if strings.HasPrefix(name, "ko") || strings.HasPrefix(name, "bout") {
			if v > best {
				best = v
			}
		}
	}
	return best
}

// WriteBatch adds the batch's rows. The buffer is evicted at exactly every
// Bout rows, wherever those fall inside or across batches, so the output
// device's charge sequence does not depend on the batch size.
func (s *Sink) WriteBatch(b *Batch) {
	n := b.Rows()
	if n == 0 {
		return
	}
	s.RowsWritten += int64(n)
	if s.Tap != nil {
		s.Tap(b)
	}
	if s.Out == nil && s.Alloc != nil && s.Err == nil {
		s.Out, s.Err = s.Alloc(b.Arity)
		s.Alloc = nil
	}
	if s.Out == nil {
		return
	}
	if s.cols == nil {
		s.cols = make([][]int32, b.Arity)
	}
	bout := s.Bout
	if bout <= 0 {
		bout = 1
	}
	for lo := 0; lo < n; {
		take := n - lo
		if room := bout - s.rows; int64(take) > room {
			take = int(room)
		}
		for c := range s.cols {
			s.cols[c] = append(s.cols[c], b.Cols[c][lo:lo+take]...)
		}
		s.rows += int64(take)
		lo += take
		if s.rows >= bout {
			s.Flush()
		}
	}
}

// Flush evicts the buffer.
func (s *Sink) Flush() {
	if s.Out == nil || s.rows == 0 {
		return
	}
	a := s.Sim.Root()
	a.CPU(s.rows*int64(len(s.cols))*4, s.Sim.MoveSeconds)
	s.Out.AppendCols(a, s.cols, s.rows)
	for c := range s.cols {
		s.cols[c] = s.cols[c][:0]
	}
	s.rows = 0
}
