package exec

import (
	"context"
	"fmt"
	"runtime"
	"slices"
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
	// concurrently (0: one per core, at most maxPartitions; < 0 or 1: one at
	// a time, in partition order). A runParts section then runs on the
	// caller's goroutine; a Gather's partitions run on its producer's.
	Workers int
	// Context, when non-nil, cancels the run between batches.
	Context context.Context

	ram    int64 // the RAM node size: the exchange's memory when the pool is unlimited
	shared *sharedState
}

// sharedState is the per-program state all strand contexts point at: the
// scratch-spill registry, freed when the run ends, completed or cancelled,
// and the equi-join scratch no open join holds.
type sharedState struct {
	mu      sync.Mutex
	spills  []*storage.Spill
	scratch []*joinScratch
}

// joinScratch is an equi-join's probe index and bucket-bounds buffer. A
// join takes one at Open and gives it back at Close, so a run's joins build
// at most one per lane however many buckets they join.
type joinScratch struct {
	idx probeIdx
	// hbuf caches each inner row's bucket bounds (start<<32|end) for the
	// current (outer block, inner span) pair: the gather pass issues the
	// random offset loads with independent iterations (the CPU overlaps
	// them), so the match walk only visits rows with candidates.
	hbuf []uint64
}

// takeScratch lends a join the run's spare scratch, or a new one.
func (c *Ctx) takeScratch() *joinScratch {
	if c.shared != nil {
		c.shared.mu.Lock()
		defer c.shared.mu.Unlock()
		if n := len(c.shared.scratch); n > 0 {
			js := c.shared.scratch[n-1]
			c.shared.scratch = c.shared.scratch[:n-1]
			return js
		}
	}
	return &joinScratch{}
}

// giveScratch returns a join's scratch to the run.
func (c *Ctx) giveScratch(js *joinScratch) {
	if c.shared != nil {
		c.shared.mu.Lock()
		c.shared.scratch = append(c.shared.scratch, js)
		c.shared.mu.Unlock()
	}
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

// Lanes is the lane count of a run that sets no Workers: one per core, at
// most maxPartitions (partition degrees never exceed maxPartitions, so
// neither can useful concurrency).
func Lanes() int { return min(runtime.GOMAXPROCS(0), maxPartitions) }

// workers returns the effective worker budget: Lanes when Workers is 0,
// else Workers clamped to [1, maxPartitions].
func (c *Ctx) workers() int {
	if c.Workers == 0 {
		return Lanes()
	}
	return min(max(c.Workers, 1), maxPartitions)
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
// account (clock + ledgers) and its pool counters. Call in partition order
// so the float summation order is scheduling-independent.
func (c *Ctx) adopt(pc *Ctx) {
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

// fit fixes the emitter's arity at an unfoldR step's first row, and fails
// on a row of another width.
func (e *emitter) fit(ar int) error {
	if e.reserve(ar); ar != e.arity {
		return fmt.Errorf("exec: unfoldR step emitted a row of %d attributes after rows of %d", ar, e.arity)
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
	e.cols = slices.Grow(e.cols[:0], ar)[:ar]
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
	b.Cols = slices.Grow(b.Cols[:0], e.arity)[:e.arity]
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
// operator subtrees read through an adapter, and a second pass over one
// materializes it to a scratch spill first.
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

// tableReader scans one device-resident spill — a base table, a
// materialized intermediate or an exchange partition — block by block.
// Blocks are zero-copy column views into the spill; the pooled frame
// accounts the block's RAM residency and its grant still bounds the block
// size, exactly as when the frame carried the bytes.
//
// The host side works a stretch at a time: one Spill.View of about
// physStride rows, cut into whole modelled blocks, from which next and span
// hand out sub-views. A block is charged when it is handed out (next) or
// when its consumer settles it (span), so the strand's charge sequence is
// the one a fetch per block would leave.
type tableReader struct {
	sp *storage.Spill // nil: an exchange part that received no rows
	ar int
	c  *Ctx

	pos   int64
	frame *storage.Frame

	// The stretch: records [from, to) of sp, cut for blocks of cut rows.
	cut, from, to int64
	phys          [][]int32 // the stretch's View header
	view          [][]int32 // header of the sub-view handed out last
}

// records is sp's record count; a missing spill holds none.
func records(sp *storage.Spill) int64 {
	if sp == nil {
		return 0
	}
	return sp.Records()
}

func (r *tableReader) open(c *Ctx) error { r.c = c; r.pos = 0; return nil }

func (r *tableReader) width() int64 { return int64(r.ar) * 4 }

// pin makes *f a frame for up to k rows of width bytes: *f itself when it
// holds k, else a new pin, which shrinks under budget pressure (never below
// one row). It returns the rows the frame grants, at most k.
func pin(c *Ctx, f **storage.Frame, k, width int64) (int64, error) {
	if *f != nil {
		if (*f).Cap(width) >= k {
			return k, nil
		}
		(*f).Release()
		*f = nil
	}
	nf, err := c.Pool.PinUpTo(k, width)
	if err != nil {
		return 0, err
	}
	*f = nf
	return min(k, nf.Cap(width)), nil
}

// ahead makes the stretch cover the read position, cut for blocks of up to k
// rows, and returns the position's offset into it and the block size the
// pool granted; rows 0 is the end of the stream. A stretch ends at most with
// the spill, so only the last block of one is ever short. A grant below k is
// re-pinned block by block (the pool's counters and the next grant are part
// of the contract), so such a stretch is one block.
func (r *tableReader) ahead(k int64) (off, rows, kk int64, err error) {
	held := r.pos >= r.from && r.pos < r.to
	if !held {
		if err = r.c.err(); err != nil {
			return 0, 0, 0, err
		}
		if r.pos >= records(r.sp) {
			return 0, 0, 0, nil // before any pin: an empty input pins nothing
		}
	}
	if kk, err = pin(r.c, &r.frame, max(k, 1), r.width()); err != nil {
		return 0, 0, 0, err
	}
	if held && kk == r.cut {
		return r.pos - r.from, r.to - r.pos, kk, nil
	}
	n := kk
	if kk >= k && kk < physStride {
		n = physStride / kk * kk
	}
	r.phys, n = r.sp.View(r.pos, n, r.phys)
	r.from, r.to, r.cut = r.pos, r.pos+n, kk
	return 0, n, kk, nil
}

// sub hands out rows [off, off+n) of the stretch.
func (r *tableReader) sub(off, n int64) [][]int32 {
	r.view = slices.Grow(r.view[:0], len(r.phys))[:len(r.phys)]
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
	r.sp.ChargeReads(r.c.acct(), r.pos, r.cut, rows, perRow)
	r.pos += rows
}

// take reads up to k rows into a caller-owned pooled block, charged as one
// ReadColsAt: a zero-copy view into the spill.
func (r *tableReader) take(k int64) (*ownedBlock, error) {
	left := records(r.sp) - r.pos
	if left <= 0 {
		return nil, nil
	}
	ob := &ownedBlock{}
	kk, err := pin(r.c, &ob.frame, max(k, 1), r.width())
	if err != nil {
		return nil, err
	}
	ob.cols, ob.n = r.sp.ReadColsAt(r.c.acct(), r.pos, min(kk, left), nil)
	r.pos += ob.n
	return ob, nil
}

func (r *tableReader) arity() int { return r.ar }

func (r *tableReader) close() error {
	if r.frame != nil {
		r.frame.Release()
		r.frame = nil
	}
	return nil
}

// opReader adapts an operator subtree to the block protocol by
// re-batching its output into column carry vectors; the pooled frame
// accounts the handed-out block's residency.
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

// pop fills up to k rows (at least one) and hands them out as column
// views, bounded by the grant of the frame it pins in *f: the reader's for
// next, an owned block's for take. dst is reused as the view header (nil
// allocates one). At the end of the stream the views are nil.
func (r *opReader) pop(k int64, f **storage.Frame, dst [][]int32) ([][]int32, int64, error) {
	k = max(k, 1)
	if err := r.fill(k); err != nil || r.carried() == 0 {
		return nil, 0, err
	}
	k, err := pin(r.c, f, k, int64(r.ar)*4)
	if err != nil {
		return nil, 0, err
	}
	n := min(r.carried(), k)
	dst = slices.Grow(dst[:0], r.ar)[:r.ar]
	for c := range dst {
		dst[c] = r.carry[c][r.off : r.off+int(n)]
	}
	r.off += int(n)
	return dst, n, nil
}

func (r *opReader) next(k int64) (_ [][]int32, err error) {
	r.view, _, err = r.pop(k, &r.frame, r.view)
	return r.view, err
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

func (r *opReader) take(k int64) (ob *ownedBlock, err error) {
	ob = &ownedBlock{}
	if ob.cols, ob.n, err = r.pop(k, &ob.frame, nil); ob.cols == nil {
		return nil, err
	}
	return ob, nil
}

func (r *opReader) arity() int { return r.ar }

func (r *opReader) close() error {
	if r.frame != nil {
		r.frame.Release()
		r.frame = nil
	}
	return r.op.Close()
}

// rescannable opens in for passes over it: a base table or an exchange part
// is read in place, a stream is materialized first.
func rescannable(in Input, c *Ctx) (*tableReader, error) {
	r := in.reader()
	if err := r.open(c); err != nil {
		return nil, err
	}
	if tr, ok := r.(*tableReader); ok {
		return tr, nil
	}
	return materialize(r, c)
}

// materialize drains a reader into a scratch spill, closes it, whatever the
// outcome, and returns a reader over the spill, which rewinds by resetting
// its position. The spill's writes and subsequent reads are charged to
// the scratch device — the honest cost of re-scanning a composed
// intermediate.
func materialize(r blockReader, c *Ctx) (*tableReader, error) {
	var sp *storage.Spill
	err := func() error {
		for {
			blk, err := r.next(c.batchRows())
			if err != nil || blk == nil {
				return err
			}
			if sp == nil {
				if sp, err = c.newSpill(int64(r.arity())*4, 0); err != nil {
					return err
				}
			}
			if err := sp.AppendCols(c.acct(), blk, int64(len(blk[0]))); err != nil {
				return err
			}
		}
	}()
	if cerr := r.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	ar := max(r.arity(), 1) // an empty stream's spill has a nominal width
	if sp == nil {
		if sp, err = c.newSpill(int64(ar)*4, 0); err != nil {
			return nil, err
		}
	}
	return &tableReader{sp: sp, ar: ar, c: c}, nil
}
