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
	// driver strand, which owns it (see storage.Acct).
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
	head [][]int32 // reused header of the batch rows evicted unbuffered
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
// device sees the same writes whatever the batch size; a batch holding
// several evictions appends them to the table once and charges them as one
// run. What the batch size does move is where those writes fall among the
// run's reads: see ExecOptions.BatchRows in internal/plan.
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
		s.head = make([][]int32, b.Arity)
	}
	bout := max(s.Bout, 1)
	lo := 0
	if s.rows > 0 {
		// Rows are waiting: the batch's first rows complete their eviction.
		lo = int(min(int64(n), bout-s.rows))
		s.buffer(b, 0, lo)
		if s.rows >= bout {
			s.Flush()
		}
	}
	if full := int64(n-lo) / bout; full > 0 {
		// Whole evictions go from the batch to the table without passing
		// through the buffer: what a buffer of Bout rows filled and evicted
		// full times would have written and been charged.
		for c := range s.head {
			s.head[c] = b.Cols[c][lo:]
		}
		s.Out.AppendBlocks(s.Sim.Root(), s.head, bout, full, s.Sim.MoveSeconds)
		lo += int(full * bout)
	}
	s.buffer(b, lo, n)
}

// buffer copies rows [lo, hi) of b into the output buffer.
func (s *Sink) buffer(b *Batch, lo, hi int) {
	for c := range s.cols {
		s.cols[c] = append(s.cols[c], b.Cols[c][lo:hi]...)
	}
	s.rows += int64(hi - lo)
}

// Flush evicts the buffer.
func (s *Sink) Flush() {
	if s.Out == nil || s.rows == 0 {
		return
	}
	s.Out.AppendBlocks(s.Sim.Root(), s.cols, s.rows, 1, s.Sim.MoveSeconds)
	for c := range s.cols {
		s.cols[c] = s.cols[c][:0]
	}
	s.rows = 0
}
