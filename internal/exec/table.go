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
// view over a storage spill file. The tuple payload of an input or an
// intermediate lives in host memory; the output table's rows are only
// charged (storage.Spill.ChargeAppends). All accesses go through the spill
// so the simulator charges seeks and transfer time.
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
// output buffer b_out, which is evicted to the output table in one
// contiguous write whenever it fills (Section 5.2). The output is charged
// and claimed, never stored: the cost model prices its writes and nothing
// reads it back, so the sink keeps only the count of rows waiting in b_out,
// and Tap is the one way to see the rows. A nil Alloc means the output is
// consumed by the CPU (no charges). Lower installs the tree under it; Next
// passes each batch on after writing it, so an explained run's root node
// counts the output rows and every charge of the run.
type Sink struct {
	Bout int64 // records per eviction; <=0 means 1
	// Sim's root account takes the output charges: the sink runs on the
	// driver strand, which owns it (see storage.Acct).
	Sim *storage.Sim

	// Alloc, when non-nil, opens the output table on its device from the
	// first batch's arity (the output arity is known only once rows flow).
	Alloc func(arity int) (*Table, error)
	// Tap, when non-nil, observes every batch as it is written.
	// The column views are the producer's: valid only during the call.
	Tap func(b *Batch)

	in   Operator // the program's operator tree
	out  *Table   // the output table, once Alloc has opened it
	rows int64    // rows waiting in b_out
	// RowsWritten counts all rows that passed through, even when discarded.
	RowsWritten int64
}

func (s *Sink) Open(c *Ctx) error { return s.in.Open(c) }

// Next pulls one batch from the program and writes it, leaving it in b. At
// the end of the stream it evicts what the buffer holds and reports false,
// so the flush is charged after the tree's last Next and before its Close.
// An Alloc that fails, or an eviction the output device cannot hold, is the
// returned error.
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

// write adds the batch's rows to b_out. The buffer is evicted at exactly
// every Bout rows, wherever those fall inside or across batches, so the
// output device sees the same writes whatever the batch size; the evictions
// a batch completes are charged as one run. What the batch size does move is
// where those writes fall among the run's reads: see ExecOptions.BatchRows
// in internal/plan.
func (s *Sink) write(b *Batch) error {
	n := b.Rows()
	if n == 0 {
		return nil
	}
	s.RowsWritten += int64(n)
	if s.Tap != nil {
		s.Tap(b)
	}
	if s.out == nil && s.Alloc != nil {
		out, err := s.Alloc(b.Arity)
		if err != nil {
			return err
		}
		s.out, s.Alloc = out, nil
	}
	if s.out == nil {
		return nil
	}
	bout := max(s.Bout, 1)
	s.rows += int64(n)
	if full := s.rows / bout; full > 0 {
		if err := s.out.ChargeAppends(s.Sim.Root(), bout, full, s.Sim.MoveSeconds); err != nil {
			return err
		}
		s.rows -= full * bout
	}
	return nil
}

// flush evicts the rows waiting in b_out.
func (s *Sink) flush() error {
	if s.out == nil || s.rows == 0 {
		return nil
	}
	if err := s.out.ChargeAppends(s.Sim.Root(), s.rows, 1, s.Sim.MoveSeconds); err != nil {
		return err
	}
	s.rows = 0
	return nil
}
