package exec

import (
	"context"
	"fmt"
	"sync"

	"ocas/internal/storage"
)

// DefaultBatchRows is the operator exchange granularity when LowerOpts does
// not choose one. Batches bound how many rows travel between operators per
// Next call; they never change results, only scheduling granularity (and,
// with it, where the sink's writes fall among the reads).
const DefaultBatchRows = 64

// Ctx is the execution context of one strand of a program run: the storage
// simulator, the accounting strand that charges I/O and CPU time, the
// buffer pool (or pool share) that accounts and bounds resident working
// memory, the scratch device for spills, the batch size of the operator
// protocol and the worker budget for parallel sections. The driver strand
// charges the simulator's root account, which it owns; every partition task of a
// parallel phase runs on a child Ctx with a private account and a fixed
// pool share, so its charges depend only on the partition, never on worker
// count or goroutine scheduling.
type Ctx struct {
	Sim     *storage.Sim
	Acct    *storage.Acct // nil = the simulator's root account
	Pool    *storage.BufferPool
	Scratch *storage.Device
	// BatchRows is the operator exchange batch size (0 = DefaultBatchRows).
	BatchRows int64
	// Workers bounds how many partition tasks of a parallel section run
	// concurrently (<= 1: sections run inline on the caller's goroutine).
	Workers int
	// Context, when non-nil, cancels the run between batches.
	Context context.Context

	shared *sharedState
}

// sharedState is the per-program state all strand contexts point at: the
// scratch-spill registry (freed when the run ends, completed or cancelled)
// and the per-worker-lane ledgers of the execution report.
type sharedState struct {
	mu     sync.Mutex
	spills []*storage.Spill
	lanes  []WorkerLedger
}

// WorkerLedger aggregates the charges of the partition tasks assigned to
// one worker lane. Tasks map to lanes deterministically (task index modulo
// the section's lane count), so the report is identical run to run.
type WorkerLedger struct {
	Worker     int     `json:"worker"`
	Tasks      int64   `json:"tasks"`
	Seconds    float64 `json:"seconds"`
	BytesRead  int64   `json:"bytesRead"`
	BytesWrite int64   `json:"bytesWrite"`
}

func newShared(workers int) *sharedState {
	if workers < 1 {
		workers = 1
	}
	if workers > MaxWorkers {
		workers = MaxWorkers // lanes beyond the executor ceiling can never run
	}
	s := &sharedState{lanes: make([]WorkerLedger, workers)}
	for i := range s.lanes {
		s.lanes[i].Worker = i
	}
	return s
}

func (c *Ctx) batchRows() int64 {
	if c.BatchRows > 0 {
		return c.BatchRows
	}
	return DefaultBatchRows
}

// acct returns this strand's accounting context.
func (c *Ctx) acct() *storage.Acct {
	if c.Acct != nil {
		return c.Acct
	}
	return c.Sim.Root()
}

// cpu charges n operations on this strand.
func (c *Ctx) cpu(n int64, perOp float64) { c.acct().CPU(n, perOp) }

// workers returns the effective worker budget, clamped to [1, MaxWorkers]
// (partition degrees never exceed MaxWorkers, so neither can useful
// concurrency).
func (c *Ctx) workers() int {
	if c.Workers <= 1 {
		return 1
	}
	if c.Workers > MaxWorkers {
		return MaxWorkers
	}
	return c.Workers
}

// err reports context cancellation. It is checked at block-read
// granularity (every reader.next), which bounds how long any operator
// phase — fold consumption, hash partitioning, merge passes,
// materialization — can outlive a cancelled request.
func (c *Ctx) err() error {
	if c.Context == nil {
		return nil
	}
	select {
	case <-c.Context.Done():
		return c.Context.Err()
	default:
		return nil
	}
}

// newSpill creates a scratch spill through the pool and registers it for
// end-of-run cleanup, so a cancelled request releases its device space.
func (c *Ctx) newSpill(width, reserve int64) (*storage.Spill, error) {
	sp, err := c.Pool.NewSpill(c.Scratch, width, reserve)
	if err != nil {
		return nil, err
	}
	if c.shared != nil {
		c.shared.mu.Lock()
		c.shared.spills = append(c.shared.spills, sp)
		c.shared.mu.Unlock()
	}
	return sp, nil
}

// freeSpills releases every scratch spill the run created.
func (c *Ctx) freeSpills() {
	if c.shared == nil {
		return
	}
	c.shared.mu.Lock()
	spills := c.shared.spills
	c.shared.spills = nil
	c.shared.mu.Unlock()
	for _, sp := range spills {
		sp.Free()
	}
}

// part builds the child context of one partition task: a private accounting
// strand and a child pool carrying the full plan budget — the optimizer
// tuned the plan's block sizes against the whole buffer, so every strand
// arbitrates its frames within that budget (cooperative shares, shrunken
// grants) exactly as the sequential executor did. That keeps each
// partition's charges identical to a bucket-at-a-time run and independent
// of the worker count; host memory stays bounded because at most
// maxPartitions strands run concurrently. Fold the child back with adopt
// (partition order!).
func (c *Ctx) part() *Ctx {
	pc := *c
	pc.Acct = c.Sim.NewAcct()
	pc.Pool = c.Pool.Child()
	return &pc
}

// adopt folds a completed partition context back into this strand: its
// account (clock + ledgers), its pool counters, and its lane ledger. Call
// in partition order so the float summation order is scheduling-independent.
func (c *Ctx) adopt(pc *Ctx, task, lanes int) {
	if c.shared != nil && len(c.shared.lanes) > 0 && lanes > 0 {
		lane := task % lanes
		if lane < len(c.shared.lanes) {
			a := pc.acct()
			c.shared.mu.Lock()
			l := &c.shared.lanes[lane]
			l.Tasks++
			l.Seconds += a.Seconds()
			l.BytesRead += a.BytesRead()
			l.BytesWrite += a.BytesWrite()
			c.shared.mu.Unlock()
		}
	}
	c.acct().Adopt(pc.Acct)
	c.Pool.Adopt(pc.Pool)
}

// share caps a cooperative pin request so that `parties` buffers of the
// same operator can coexist under the pool budget (a lone request would
// otherwise grab everything and starve its siblings down to single rows).
func (c *Ctx) share(want, parties, width int64) int64 {
	if b := c.Pool.Budget(); b > 0 && parties > 0 && width > 0 {
		if s := b / parties / width; s < want {
			if s < 1 {
				s = 1
			}
			want = s
		}
	}
	return want
}

// Batch is one unit of the operator exchange protocol: up to BatchRows
// fixed-arity rows in struct-of-arrays layout — one contiguous vector per
// column, every row live. The column slices are only valid until the
// producer's next Next or Close call; consumers that need rows longer copy
// them.
type Batch struct {
	Arity int
	Cols  [][]int32
}

// Rows returns the number of rows in the batch.
func (b *Batch) Rows() int {
	if len(b.Cols) == 0 {
		return 0
	}
	return len(b.Cols[0])
}

// Operator is the streaming execution protocol: a physical operator opens
// against the run context, delivers its output batch at a time, and
// releases its resources on Close. Operators compose into trees; the same
// protocol runs a lone table scan and a join of joins.
type Operator interface {
	Open(c *Ctx) error
	// Next fills b with the next batch and reports whether any rows were
	// delivered; false means the stream is exhausted.
	Next(b *Batch) (bool, error)
	Close() error
}

// emitter buffers rows produced by an operator's inner machinery until Next
// drains them into the caller's batch. The buffer is column-striped:
// kernels bulk-append to the column vectors directly, and drain hands out
// column views without gathering rows.
type emitter struct {
	arity int
	cols  [][]int32
	pos   int
}

// emitWide buffers a row held as int64, truncating each attribute to its
// int32 encoding — the one place an unfoldR step's arithmetic narrows.
func (e *emitter) emitWide(row []int64) error {
	if e.arity == 0 {
		e.reserve(len(row))
	}
	if len(row) != e.arity {
		return fmt.Errorf("exec: unfoldR step emitted a row of %d attributes after rows of %d", len(row), e.arity)
	}
	for c, v := range row {
		e.cols[c] = append(e.cols[c], int32(v))
	}
	return nil
}

// reserve fixes the emitter's arity (and column headers) up front so
// kernels can append to the column vectors directly instead of emitting
// row by row.
func (e *emitter) reserve(ar int) {
	if e.arity != 0 {
		return
	}
	e.arity = ar
	if cap(e.cols) >= ar {
		e.cols = e.cols[:ar]
	} else {
		e.cols = make([][]int32, ar)
	}
}

// rows reports the number of buffered rows.
func (e *emitter) rows() int64 {
	if e.arity == 0 || len(e.cols) == 0 {
		return 0
	}
	return int64(len(e.cols[0]) - e.pos)
}

// drain moves up to max rows into b as column views, reporting whether b
// received any. The views are valid until the emitter buffers again —
// the batch protocol's standard lifetime.
func (e *emitter) drain(b *Batch, max int64) bool {
	n := e.rows()
	if n == 0 {
		b.Arity, b.Cols = e.arity, nil
		return false
	}
	if n > max {
		n = max
	}
	if cap(b.Cols) >= e.arity {
		b.Cols = b.Cols[:e.arity]
	} else {
		b.Cols = make([][]int32, e.arity)
	}
	for c := range b.Cols {
		b.Cols[c] = e.cols[c][e.pos : e.pos+int(n)]
	}
	b.Arity = e.arity
	e.pos += int(n)
	if e.pos == len(e.cols[0]) {
		for c := range e.cols {
			e.cols[c] = e.cols[c][:0]
		}
		e.pos = 0
	}
	return true
}

// blockReader is the block-granular access path operators use to consume an
// input: up to k rows per call, with the block resident in a pooled frame.
// Base tables read directly (the scan fusion that keeps synthesized
// single-shape programs charging exactly their analytic cost); arbitrary
// operator subtrees read through an adapter, and gain rewindability by
// materializing to a scratch spill.
type blockReader interface {
	open(c *Ctx) error
	// next returns up to k rows as per-column vectors (cols[c][r] = column
	// c of row r, row count = len(cols[0])), or nil at end of stream. The
	// views are valid until the following next/take/close call.
	next(k int64) ([][]int32, error)
	// span returns, uncharged, the rows ahead as whole blocks of up to kk
	// rows each — what as many next(k) calls would return one by one, only
	// the last block short — or nil at end of stream. The caller works
	// through the blocks in order and settles the ones it consumed before
	// its strand's next other charge and before it returns to its own
	// caller; the views are valid until the following next/span/take/close
	// call.
	span(k int64) (cols [][]int32, kk int64, err error)
	// settle charges the reads of the first rows rows of the last span —
	// whole blocks — each followed by cpu(the block's rows, perRow), and
	// moves past them.
	settle(rows int64, perRow float64)
	// take reads up to k rows into a caller-owned pooled block (the join
	// operators' resident outer blocks).
	take(k int64) (*ownedBlock, error)
	arity() int
	rewindable() bool
	rewind() error
	close() error
}

// ownedBlock is a pool-pinned block handed to the caller: n rows as
// per-column views. The frame accounts the block's residency; the views
// point into the source's stable storage.
type ownedBlock struct {
	frame *storage.Frame
	cols  [][]int32
	n     int64
}

func (ob *ownedBlock) release() {
	if ob != nil && ob.frame != nil {
		ob.frame.Release()
		ob.frame = nil
	}
}

// frameCols allocates the column-striped write buffer a pinned frame
// grants: arity column buffers of the frame's row capacity each, every one
// empty and ready to append (the sort's output buffer, the exchange's
// bucket buffers).
func frameCols(f *storage.Frame, arity int) [][]int32 {
	capRows := int(f.Cap(int64(arity) * 4))
	base := make([]int32, arity*capRows)
	cols := make([][]int32, arity)
	for c := range cols {
		off := c * capRows
		cols[c] = base[off : off : off+capRows]
	}
	return cols
}

// physStride is how many rows a tableReader asks a spill for at a time when
// the modelled block is smaller: the optimizer is free to tune a sequential
// stream's block to a single row, and the host should not then pay a call
// chain per row. Charges never see it — they are a function of the modelled
// blocks alone (Spill.ChargeReads) — which the stride tests check by moving
// it; it is a variable only so that they can.
var physStride int64 = 4096

// tableReader scans one or more device-resident spills — a base table, a
// materialized intermediate, the chained per-producer segments of an
// exchange partition, or a record section of one of those (the morsel range
// of an exchange task) — block by block. Blocks
// are zero-copy column views into the spill; the pooled frame
// accounts the block's RAM residency and its grant still bounds the block
// size, exactly as when the frame carried the bytes. Positions are global
// across the chain.
//
// The host side works a stretch at a time: one Spill.View of about
// physStride rows, cut into whole modelled blocks, from which next and span
// hand out sub-views. A block is charged when it is handed out (next) or
// when its consumer settles it (span), so the strand's charge sequence is
// the one a fetch per block would leave.
type tableReader struct {
	sps []*storage.Spill
	ar  int
	lo  int64 // first global record (inclusive)
	hi  int64 // last global record (exclusive); -1 = all
	c   *Ctx

	pos   int64
	frame *storage.Frame

	// The stretch: rows [from, to) of the chain, which are sp's records from
	// base on, cut for blocks of cut rows.
	sp        *storage.Spill
	base, cut int64
	from, to  int64
	phys      [][]int32 // the stretch's View header
	view      [][]int32 // header of the sub-view handed out last
}

func newSpillReader(sp *storage.Spill, arity int) *tableReader {
	return &tableReader{sps: []*storage.Spill{sp}, ar: arity, hi: -1}
}

func (r *tableReader) open(c *Ctx) error { r.c = c; r.pos = r.lo; return nil }

func (r *tableReader) width() int64 { return int64(r.ar) * 4 }

// end returns the exclusive upper bound of the read range.
func (r *tableReader) end() int64 {
	var total int64
	for _, sp := range r.sps {
		total += sp.Records()
	}
	if r.hi >= 0 && r.hi < total {
		return r.hi
	}
	return total
}

// locate resolves the spill segment holding global position idx and idx's
// record index within it.
func (r *tableReader) locate(idx int64) (*storage.Spill, int64) {
	for _, sp := range r.sps {
		if idx < sp.Records() {
			return sp, idx
		}
		idx -= sp.Records()
	}
	return nil, 0
}

// ensure pins a frame able to hold up to k rows, shrinking under budget
// pressure (never below one row).
func (r *tableReader) ensure(k int64) (int64, error) {
	if k < 1 {
		k = 1
	}
	if r.frame != nil {
		if c := r.frame.Cap(r.width()); c >= k {
			return k, nil
		}
		r.frame.Release()
		r.frame = nil
	}
	f, err := r.c.Pool.PinUpTo(k, 1, r.width())
	if err != nil {
		return 0, err
	}
	r.frame = f
	if c := f.Cap(r.width()); c < k {
		k = c
	}
	return k, nil
}

// ahead makes the stretch cover the read position, cut for blocks of up to k
// rows, and returns the position's offset into it and the block size the
// pool granted; rows 0 is the end of the stream. A stretch ends with the
// spill segment or the read range, so only the last block of one is ever
// short. A grant below k is re-pinned block by block (the pool's counters
// and the next grant are part of the contract), so such a stretch is one
// block.
func (r *tableReader) ahead(k int64) (off, rows, kk int64, err error) {
	held := r.pos >= r.from && r.pos < r.to
	if !held {
		if err = r.c.err(); err != nil {
			return 0, 0, 0, err
		}
		if r.pos >= r.end() {
			return 0, 0, 0, nil // before any pin: an empty input pins nothing
		}
	}
	if kk, err = r.ensure(k); err != nil {
		return 0, 0, 0, err
	}
	if held && kk == r.cut {
		return r.pos - r.from, r.to - r.pos, kk, nil
	}
	n := kk
	if kk >= k && kk < physStride {
		n = physStride / kk * kk
	}
	n = min(n, r.end()-r.pos)
	r.sp, r.base = r.locate(r.pos)
	r.phys, n = r.sp.View(r.base, n, r.phys)
	r.from, r.to, r.cut = r.pos, r.pos+n, kk
	return 0, n, kk, nil
}

// sub hands out rows [off, off+n) of the stretch.
func (r *tableReader) sub(off, n int64) [][]int32 {
	if cap(r.view) < len(r.phys) {
		r.view = make([][]int32, len(r.phys))
	}
	r.view = r.view[:len(r.phys)]
	for c, col := range r.phys {
		r.view[c] = col[off : off+n]
	}
	return r.view
}

func (r *tableReader) next(k int64) ([][]int32, error) {
	off, rows, kk, err := r.ahead(k)
	if err != nil || rows == 0 {
		return nil, err
	}
	rows = min(rows, kk)
	cols := r.sub(off, rows)
	r.settle(rows, 0)
	return cols, nil
}

func (r *tableReader) span(k int64) ([][]int32, int64, error) {
	off, rows, kk, err := r.ahead(k)
	if err != nil || rows == 0 {
		return nil, 0, err
	}
	return r.sub(off, rows), kk, nil
}

func (r *tableReader) settle(rows int64, perRow float64) {
	r.sp.ChargeReads(r.c.acct(), r.base+r.pos-r.from, r.cut, rows, perRow)
	r.pos += rows
}

func (r *tableReader) take(k int64) (*ownedBlock, error) {
	end := r.end()
	if r.pos >= end {
		return nil, nil
	}
	if k < 1 {
		k = 1
	}
	f, err := r.c.Pool.PinUpTo(k, 1, r.width())
	if err != nil {
		return nil, err
	}
	if c := f.Cap(r.width()); c < k {
		k = c
	}
	if r.pos+k > end {
		k = end - r.pos
	}
	sp, idx := r.locate(r.pos)
	cols, n := sp.ReadColsAt(r.c.acct(), idx, k, nil)
	r.pos += n
	return &ownedBlock{frame: f, cols: cols, n: n}, nil
}

func (r *tableReader) arity() int       { return r.ar }
func (r *tableReader) rewindable() bool { return true }
func (r *tableReader) rewind() error    { r.pos = r.lo; return nil }

func (r *tableReader) close() error {
	if r.frame != nil {
		r.frame.Release()
		r.frame = nil
	}
	return nil
}

// opReader adapts an operator subtree to the block protocol by
// re-batching its output into column carry vectors; the pooled frame
// accounts the handed-out block's residency. It cannot rewind; callers that
// need a second pass materialize it first.
type opReader struct {
	op Operator
	c  *Ctx

	ar    int
	carry [][]int32 // columns delivered by the child but not yet consumed
	off   int       // consumed rows at the front of carry
	done  bool
	frame *storage.Frame
	view  [][]int32 // reused pop header
	b     Batch     // reused child batch (the child reuses its column header)
}

func newOpReader(op Operator) *opReader { return &opReader{op: op} }

func (r *opReader) open(c *Ctx) error { r.c = c; return r.op.Open(c) }

// carried reports the rows buffered and not yet consumed.
func (r *opReader) carried() int64 {
	if r.ar == 0 || len(r.carry) == 0 {
		return 0
	}
	return int64(len(r.carry[0]) - r.off)
}

// fill accumulates child batches until at least k rows (or EOF). Filling
// compacts the consumed front first, which invalidates previously popped
// views — callers hold a popped block only until they ask for the next.
func (r *opReader) fill(k int64) error {
	if err := r.c.err(); err != nil {
		return err
	}
	b := &r.b
	for !r.done && (r.ar == 0 || r.carried() < k) {
		ok, err := r.op.Next(b)
		if err != nil {
			return err
		}
		if !ok {
			r.done = true
			break
		}
		rows := b.Rows()
		if b.Arity > 0 && rows > 0 {
			if r.ar == 0 {
				r.ar = b.Arity
				r.carry = make([][]int32, b.Arity)
			} else if r.ar != b.Arity {
				return fmt.Errorf("exec: child arity changed from %d to %d", r.ar, b.Arity)
			}
			if r.off > 0 {
				for c := range r.carry {
					r.carry[c] = append(r.carry[c][:0], r.carry[c][r.off:]...)
				}
				r.off = 0
			}
			for c := range r.carry {
				r.carry[c] = append(r.carry[c], b.Cols[c]...)
			}
		}
	}
	return nil
}

// pop hands out up to k carried rows as column views, bounded by the
// frame's grant. dst is reused as the view header (nil allocates one).
func (r *opReader) pop(k int64, f *storage.Frame, dst [][]int32) ([][]int32, int64) {
	n := r.carried()
	if n == 0 {
		return nil, 0
	}
	if n > k {
		n = k
	}
	if c := f.Cap(int64(r.ar) * 4); n > c {
		n = c
	}
	if cap(dst) >= r.ar {
		dst = dst[:r.ar]
	} else {
		dst = make([][]int32, r.ar)
	}
	for c := range dst {
		dst[c] = r.carry[c][r.off : r.off+int(n)]
	}
	r.off += int(n)
	return dst, n
}

// ensure pins (or reuses) the reader's frame for up to k rows.
func (r *opReader) ensure(k int64) (*storage.Frame, error) {
	if r.frame != nil {
		if r.frame.Cap(int64(r.ar)*4) >= k {
			return r.frame, nil
		}
		r.frame.Release()
		r.frame = nil
	}
	f, err := r.c.Pool.PinUpTo(k, 1, int64(r.ar)*4)
	if err != nil {
		return nil, err
	}
	r.frame = f
	return f, nil
}

func (r *opReader) next(k int64) ([][]int32, error) {
	if k < 1 {
		k = 1
	}
	if err := r.fill(k); err != nil {
		return nil, err
	}
	if r.carried() == 0 {
		return nil, nil
	}
	f, err := r.ensure(k)
	if err != nil {
		return nil, err
	}
	cols, _ := r.pop(k, f, r.view)
	r.view = cols
	return cols, nil
}

// span is next: the child charged for the block while producing it, which
// leaves settle the consumer's own charge.
func (r *opReader) span(k int64) ([][]int32, int64, error) {
	cols, err := r.next(k)
	if cols == nil {
		return nil, 0, err
	}
	return cols, int64(len(cols[0])), nil
}

func (r *opReader) settle(rows int64, perRow float64) { r.c.cpu(rows, perRow) }

func (r *opReader) take(k int64) (*ownedBlock, error) {
	if k < 1 {
		k = 1
	}
	if err := r.fill(k); err != nil {
		return nil, err
	}
	if r.carried() == 0 {
		return nil, nil
	}
	f, err := r.c.Pool.PinUpTo(k, 1, int64(r.ar)*4)
	if err != nil {
		return nil, err
	}
	cols, n := r.pop(k, f, nil)
	if cols == nil {
		f.Release()
		return nil, nil
	}
	return &ownedBlock{frame: f, cols: cols, n: n}, nil
}

func (r *opReader) arity() int       { return r.ar }
func (r *opReader) rewindable() bool { return false }
func (r *opReader) rewind() error {
	return fmt.Errorf("exec: cannot rewind a streaming operator (materialize it first)")
}

func (r *opReader) close() error {
	if r.frame != nil {
		r.frame.Release()
		r.frame = nil
	}
	return r.op.Close()
}

// materialize drains a reader into a scratch spill and returns a rewindable
// reader over it. The spill's writes and subsequent reads are charged to
// the scratch device — the honest cost of re-scanning a composed
// intermediate.
func materialize(r blockReader, c *Ctx) (*tableReader, error) {
	blk, err := r.next(c.batchRows())
	if err != nil {
		return nil, err
	}
	var sp *storage.Spill
	for blk != nil {
		if sp == nil {
			sp, err = c.newSpill(int64(r.arity())*4, 0)
			if err != nil {
				return nil, err
			}
		}
		if err := sp.AppendCols(c.acct(), blk, int64(len(blk[0]))); err != nil {
			return nil, err
		}
		if blk, err = r.next(c.batchRows()); err != nil {
			return nil, err
		}
	}
	if err := r.close(); err != nil {
		return nil, err
	}
	if sp == nil {
		// Empty stream: an empty spill of a nominal width.
		ar := r.arity()
		if ar <= 0 {
			ar = 1
		}
		sp, err = c.newSpill(int64(ar)*4, 0)
		if err != nil {
			return nil, err
		}
		mr := newSpillReader(sp, ar)
		return mr, mr.open(c)
	}
	mr := newSpillReader(sp, r.arity())
	return mr, mr.open(c)
}
