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

	"ocas/internal/storage"
)

// Table is a device-resident relation of fixed-arity int32 tuples: a typed
// view over a storage spill file. The tuple payload lives in host memory;
// all accesses go through the spill so the simulator charges seeks and
// transfer time.
type Table struct {
	*storage.Spill
	Arity int
}

// NewTable allocates a table on the device with room reserved for reserve
// tuples (0: device space is claimed as rows arrive).
func NewTable(dev *storage.Device, arity int, reserve int64) (*Table, error) {
	sp, err := dev.NewSpill(int64(arity)*4, reserve)
	if err != nil {
		return nil, err
	}
	return &Table{Spill: sp, Arity: arity}, nil
}

// NewBackedTable loads the rows durable storage supplies (a catalog table's
// columnar segments) into a table on the device: one read of the whole
// payload through b, installed like PreloadCols without charging. Every
// access then charges the device's InitCom/UnitTr model, so a backed table
// is indistinguishable from a preloaded one on the ledger and the virtual
// clock. A failed read is the returned error.
func NewBackedTable(dev *storage.Device, arity int, rows int64, b storage.Backing) (*Table, error) {
	t, err := NewTable(dev, arity, 0)
	if err != nil {
		return nil, err
	}
	cols := make([][]int32, arity)
	for c := range cols {
		cols[c] = make([]int32, rows)
	}
	if err := b.ReadCols(cols, 0, rows); err != nil {
		return nil, fmt.Errorf("exec: load table: %w", err)
	}
	if err := t.PreloadCols(cols); err != nil {
		return nil, err
	}
	return t, nil
}

// Preload installs row-major rows without charging I/O: the input data
// already resides on the device when the experiment starts. It transposes
// them for PreloadCols, which takes column vectors as they stand.
func (t *Table) Preload(rows []int32) error {
	if len(rows)%t.Arity != 0 {
		return fmt.Errorf("exec: preload length %d not a multiple of arity %d", len(rows), t.Arity)
	}
	n := len(rows) / t.Arity
	cols := make([][]int32, t.Arity)
	for c := range cols {
		col := make([]int32, n)
		for i := range col {
			col[i] = rows[i*t.Arity+c]
		}
		cols[c] = col
	}
	return t.PreloadCols(cols)
}

// Rows returns the number of tuples.
func (t *Table) Rows() int64 { return t.Records() }

// Sink is the root operator of every lowered program: it drains the
// program's operator tree and writes what it delivers through the paper's
// output buffer b_out, whose rows accumulate in RAM and are evicted to the
// output table in one contiguous write when the buffer fills (Section 5.2).
// A nil Out means the output is consumed by the CPU (no charges). Lower
// installs the tree under it; Next passes each batch on after writing it, so
// an explained run's root node counts the output rows and every charge of
// the run.
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

	in   Operator  // the program's operator tree
	cols [][]int32 // the output buffer, column-striped like the table
	rows int64
	head [][]int32 // reused header of the batch rows evicted unbuffered
	// RowsWritten counts all rows that passed through, even when discarded.
	RowsWritten int64
}

func (s *Sink) Open(c *Ctx) error { return s.in.Open(c) }

// Next pulls one batch from the program and writes it, leaving it in b. At
// the end of the stream it evicts what the buffer holds and reports false,
// so the flush is charged after the tree's last Next and before its Close.
// A lazy allocation that fails, or an eviction the output device cannot
// hold, is the returned error.
func (s *Sink) Next(b *Batch) (bool, error) {
	ok, err := s.in.Next(b)
	if err != nil {
		return false, err
	}
	if !ok {
		return false, s.flush()
	}
	return true, s.write(b)
}

func (s *Sink) Close() error { return s.in.Close() }

// write adds the batch's rows. The buffer is evicted at exactly every Bout
// rows, wherever those fall inside or across batches, so the output device
// sees the same writes whatever the batch size; a batch holding several
// evictions appends them to the table once and charges them as one run.
// What the batch size does move is where those writes fall among the run's
// reads: see ExecOptions.BatchRows in internal/plan.
func (s *Sink) write(b *Batch) error {
	n := b.Rows()
	if n == 0 {
		return nil
	}
	s.RowsWritten += int64(n)
	if s.Tap != nil {
		s.Tap(b)
	}
	if s.Out == nil && s.Alloc != nil {
		out, err := s.Alloc(b.Arity)
		if err != nil {
			return err
		}
		s.Out, s.Alloc = out, nil
	}
	if s.Out == nil {
		return nil
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
			if err := s.flush(); err != nil {
				return err
			}
		}
	}
	if full := int64(n-lo) / bout; full > 0 {
		// Whole evictions go from the batch to the table without passing
		// through the buffer: what a buffer of Bout rows filled and evicted
		// full times would have written and been charged.
		for c := range s.head {
			s.head[c] = b.Cols[c][lo:]
		}
		if err := s.Out.AppendBlocks(s.Sim.Root(), s.head, bout, full, s.Sim.MoveSeconds); err != nil {
			return err
		}
		lo += int(full * bout)
	}
	s.buffer(b, lo, n)
	return nil
}

// buffer copies rows [lo, hi) of b into the output buffer.
func (s *Sink) buffer(b *Batch, lo, hi int) {
	for c := range s.cols {
		s.cols[c] = append(s.cols[c], b.Cols[c][lo:hi]...)
	}
	s.rows += int64(hi - lo)
}

// flush evicts the buffer.
func (s *Sink) flush() error {
	if s.Out == nil || s.rows == 0 {
		return nil
	}
	if err := s.Out.AppendBlocks(s.Sim.Root(), s.cols, s.rows, 1, s.Sim.MoveSeconds); err != nil {
		return err
	}
	for c := range s.cols {
		s.cols[c] = s.cols[c][:0]
	}
	s.rows = 0
	return nil
}
