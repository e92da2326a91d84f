// parallel.go is the morsel-driven parallel machinery of the executor: a
// deterministic partition-task runner on par.For (runParts), the Exchange
// that hash-partitions an input into one spill per part, and the Gather
// that lowers flatMap over partitioned inputs: it runs its exchanges as
// tasks, then merges the concurrently produced streams of its per-part
// operators.
// Parallelism never changes what is charged: partition counts are decided
// by the plan (tuned block sizes, data sizes, pool budget) and each
// partition runs on a private accounting strand with a fixed pool share, so
// output digests and device ledgers are identical whether one worker or
// eight execute the partitions. Only wall-clock time changes.
package exec

import (
	"cmp"
	"sync/atomic"

	"ocas/internal/ocal"
	"ocas/internal/par"
	"ocas/internal/storage"
)

// maxPartitions bounds the partition degree lowering and the parallel
// operators choose. It is a property of the plan, deliberately independent
// of the worker count: more workers than partitions idle, fewer queue.
const maxPartitions = 8

// clampParts applies the [1, maxPartitions] bound.
func clampParts(p int64) int {
	if p < 1 {
		return 1
	}
	if p > maxPartitions {
		return maxPartitions
	}
	return int(p)
}

// sectionBounds splits n records into parts even sections.
func sectionBounds(n int64, parts int) [][2]int64 {
	out := make([][2]int64, parts)
	for i := 0; i < parts; i++ {
		out[i] = [2]int64{n * int64(i) / int64(parts), n * int64(i+1) / int64(parts)}
	}
	return out
}

// runParts executes fn for partitions 0..n-1 as par.For tasks on the
// context's workers. Each partition gets a private accounting strand and
// pool (see Ctx.part); accounts and pool counters fold back in partition
// order once every task finished, which keeps ledgers and clock
// independent of scheduling. A single-partition section runs directly on
// the caller's strand.
func runParts(c *Ctx, n int, fn func(i int, pc *Ctx) error) error {
	if n <= 0 {
		return nil
	}
	if n == 1 {
		return fn(0, c)
	}
	ctxs := make([]*Ctx, n)
	errs := make([]error, n)
	for i := range ctxs {
		ctxs[i] = c.part()
	}
	var failed atomic.Bool
	par.For(min(c.workers(), n), n, func(i int) {
		// A failed sibling dooms the whole section: stop starting
		// partitions instead of burning I/O the error will discard.
		if failed.Load() {
			return
		}
		if errs[i] = c.err(); errs[i] == nil {
			errs[i] = fn(i, ctxs[i])
		}
		if errs[i] != nil {
			failed.Store(true)
		}
	})
	var first error
	for i, pc := range ctxs {
		c.adopt(pc)
		if first == nil {
			first = errs[i]
		}
	}
	return first
}

// ---------------------------------------------------------------------------
// Gather

// Gather merges the output streams of its partition operators into one
// stream. With one lane the partitions run lazily in order on the caller's
// strand. With more, one producer goroutine drives them as par.For tasks
// and batches merge in completion order — the consumer never stalls a
// producer; a partition's panic is raised again in the consumer's Next or
// Close — which is correct for every bag consumer (joins, exchanges,
// sorts, the sink's order-independent digest). With Ordered set (lowering
// sets it when an order-sensitive consumer, a fold or a streaming merge,
// sits above the flatMap) the gather has one lane at every worker count,
// so the row order — not just the bag — never depends on it: delivering in
// partition order from concurrent producers stalls them on the consumer and
// measured no faster than running them in turn. Each partition runs on a
// private context (see Ctx.part).
type Gather struct {
	Parts []Operator
	// Ordered delivers the partitions' rows in partition order.
	Ordered bool
	// Exchanges run at Open as runParts tasks, before any part opens. A
	// lowered flatMap(λ) is a Gather whose part i is λ's body over part i of
	// each.
	Exchanges []*Exchange

	c      *Ctx
	ctxs   []*Ctx
	lanes  int
	closed bool
	cur    int
	opened bool // inline mode: current partition is open

	// Parallel mode (lanes > 1): the producer closes ch once every task
	// returned, and join re-raises a part's panic on the consumer.
	ch     chan Batch
	stop   chan struct{}
	wait   func()
	failed atomic.Bool

	errs     []error // per partition
	finalErr error
	merged   bool
}

func (g *Gather) Open(c *Ctx) error {
	g.c = c
	if err := runParts(c, len(g.Exchanges), func(i int, pc *Ctx) error {
		return g.Exchanges[i].Run(pc)
	}); err != nil {
		return err
	}
	n := len(g.Parts)
	if n == 0 {
		g.merged = true
		return nil
	}
	// Each partition strand pins against the full plan budget (see
	// Ctx.part); the worker ceiling bounds the concurrent lanes and with
	// them host memory.
	g.lanes = min(c.workers(), n)
	if g.Ordered {
		g.lanes = 1
	}
	g.ctxs = make([]*Ctx, n)
	for i := range g.ctxs {
		g.ctxs[i] = c.part()
	}
	g.errs = make([]error, n)
	if g.lanes == 1 {
		return nil // partitions open lazily in Next
	}
	g.ch = make(chan Batch, 4*g.lanes)
	g.stop = make(chan struct{})
	g.wait = par.Go(func() {
		defer close(g.ch)
		par.For(g.lanes, n, g.runTask)
	})
	return nil
}

// join waits for the producer and, the first time, re-raises on the
// consumer a panic of a partition, as an inline run would raise it.
func (g *Gather) join() {
	if w := g.wait; w != nil {
		g.wait = nil
		w()
	}
}

// runTask drives partition i to completion unless a sibling failed or the
// run was cancelled first. A partition that fails or panics stops its
// siblings from starting.
func (g *Gather) runTask(i int) {
	if g.failed.Load() {
		return
	}
	ok := false
	defer func() {
		if !ok {
			g.failed.Store(true)
		}
	}()
	err := g.c.err()
	if err == nil {
		err = g.runPart(i)
	}
	g.errs[i], ok = err, err == nil
}

func (g *Gather) runPart(i int) error {
	op, pc := g.Parts[i], g.ctxs[i]
	if err := op.Open(pc); err != nil {
		op.Close()
		return err
	}
	var b Batch
	for {
		ok, err := op.Next(&b)
		if err != nil {
			op.Close()
			return err
		}
		if !ok {
			return op.Close()
		}
		if b.Arity <= 0 || b.Rows() == 0 {
			continue
		}
		// The producer's column views die at its next call: ship a copy.
		cols := make([][]int32, b.Arity)
		for c := range cols {
			cols[c] = append([]int32(nil), b.Cols[c]...)
		}
		select {
		case g.ch <- Batch{Arity: b.Arity, Cols: cols}:
		case <-g.stop:
			op.Close()
			return nil
		}
	}
}

// finalize folds every partition context back in partition order,
// resolving the first error. In parallel mode it runs once ch is closed,
// so every task has returned. Idempotent.
func (g *Gather) finalize() error {
	if g.merged {
		return g.finalErr
	}
	g.merged = true
	for i, pc := range g.ctxs {
		g.c.adopt(pc)
		if g.finalErr == nil && g.errs[i] != nil {
			g.finalErr = g.errs[i]
		}
	}
	return g.finalErr
}

func (g *Gather) Next(b *Batch) (bool, error) {
	if g.merged {
		return false, nil
	}
	if g.ch != nil {
		// Completion order: whoever has a batch ready wins.
		bt, ok := <-g.ch
		if !ok {
			g.join()
			return false, g.finalize()
		}
		*b = bt
		return true, nil
	}
	// Inline: drain partitions in order on this strand.
	for g.cur < len(g.Parts) {
		op, pc := g.Parts[g.cur], g.ctxs[g.cur]
		if !g.opened {
			if err := g.c.err(); err != nil {
				return false, g.abort(nil, err)
			}
			if err := op.Open(pc); err != nil {
				return false, g.abort(op, err)
			}
			g.opened = true
		}
		ok, err := op.Next(b)
		if err != nil {
			return false, g.abort(op, err)
		}
		if ok {
			return true, nil
		}
		if err := g.advance(op); err != nil {
			return false, g.finalize()
		}
	}
	return false, g.finalize()
}

// advance closes the current inline partition and steps to the next.
func (g *Gather) advance(op Operator) error {
	err := op.Close()
	g.errs[g.cur] = err
	g.cur++
	g.opened = false
	return err
}

// abort records an inline partition failure, closes the partition (when
// given) and finalizes: remaining partitions never run, their untouched
// contexts merge as zeros.
func (g *Gather) abort(op Operator, err error) error {
	if op != nil {
		op.Close()
	}
	if g.errs[g.cur] == nil {
		g.errs[g.cur] = err
	}
	g.cur = len(g.Parts)
	g.opened = false
	return g.finalize()
}

func (g *Gather) Close() error {
	if g.closed {
		return nil
	}
	g.closed = true
	if g.ch != nil {
		// Tell the tasks to stop and drain the channel, which unblocks any
		// task waiting on it (the producer closes it once every task
		// returned).
		g.failed.Store(true)
		close(g.stop)
		for range g.ch {
		}
		g.join()
	} else if g.opened {
		g.errs[g.cur] = g.Parts[g.cur].Close()
		g.opened = false
	}
	return g.finalize()
}

// ---------------------------------------------------------------------------
// Exchange

// Exchange hash-partitions an input stream on its first attribute into
// Parts (at least 1) partitions on scratch: the lowering of partition[s],
// and the algorithm cost.applyPartition prices. It reads its input on its
// own strand and writes each partition as one spill through a pool-pinned
// bucket buffer: the pool budget (the RAM size when the pool is unlimited)
// splits into Parts+1 frames, one per bucket and one for the read block, and
// a bucket buffers a frame of its rows. The exchanges of one flatMap run
// concurrently (see Gather.Open).
type Exchange struct {
	In    Input
	Parts int64
	KRead int64 // read block (tuples)

	// Run's result, which exchange-part inputs read: per partition, the
	// spill holding its rows (nil when the input delivered no rows), the
	// row arity (0 then: it is unknowable) and the rows the input delivered
	// over all partitions.
	parts []*storage.Spill
	arity int
	rows  int64
}

// growCols doubles the capacity of a bucket's column buffers, up to the
// limit rows its frame grants.
func growCols(cols [][]int32, limit int64) {
	n := min(max(2*cap(cols[0]), 64), int(limit))
	for c, col := range cols {
		cols[c] = append(make([]int32, 0, n), col...)
	}
}

// Run partitions the input.
func (x *Exchange) Run(c *Ctx) error {
	r := x.In.reader()
	if err := r.open(c); err != nil {
		return err
	}
	defer r.close()
	s := x.Parts
	x.parts, x.arity, x.rows = make([]*storage.Spill, s), 0, 0
	var (
		bufs    []*storage.Frame
		bufCols [][][]int32 // per-bucket column-striped write buffers
		capRows []int64
	)
	defer func() {
		for _, f := range bufs {
			if f != nil {
				f.Release()
			}
		}
	}()
	setup := func(ar int) error {
		x.arity = ar
		width := int64(ar) * 4
		want := cmp.Or(c.Pool.Budget(), c.ram) / (s + 1) / width
		bufs = make([]*storage.Frame, s)
		bufCols = make([][][]int32, s)
		capRows = make([]int64, s)
		for i := range x.parts {
			sp, err := c.newSpill(width, 0)
			if err != nil {
				return err
			}
			x.parts[i] = sp
			f, err := c.Pool.PinUpTo(want, width)
			if err != nil {
				return err
			}
			bufs[i] = f
			// The grant bounds the buffer; the host grows it as rows
			// arrive, since an input rarely fills every bucket's.
			bufCols[i] = make([][]int32, ar)
			capRows[i] = f.Cap(width)
		}
		return nil
	}
	// A fused table or exchange-part input has a known arity: pin the bucket
	// buffers before the reader claims its block frame.
	if ar := r.arity(); ar > 0 {
		if err := setup(ar); err != nil {
			return err
		}
	}
	flush := func(b int64) error {
		cols := bufCols[b]
		rows := int64(len(cols[0]))
		if rows == 0 {
			return nil
		}
		c.cpu(rows*int64(x.arity)*4, c.Sim.MoveSeconds)
		if err := x.parts[b].AppendCols(c.acct(), cols, rows); err != nil {
			return err
		}
		for ci := range cols {
			cols[ci] = cols[ci][:0]
		}
		return nil
	}
	for {
		k := max(x.KRead, 1)
		if x.arity > 0 {
			// The read frame of cost's s+1.
			k = c.share(k, s+1, int64(x.arity)*4)
		}
		blk, err := r.next(k)
		if err != nil {
			return err
		}
		if blk == nil {
			break
		}
		if bufs == nil {
			if err := setup(r.arity()); err != nil {
				return err
			}
		}
		n := int64(len(blk[0]))
		x.rows += n
		c.cpu(n, c.Sim.HashSeconds)
		keyCol := blk[0]
		for i := int64(0); i < n; i++ {
			b := int64(ocal.HashInt(int64(keyCol[i])) % uint64(s))
			// Flush before the row would outgrow the pinned frame, so the
			// buffer never reallocates past its accounted size.
			cols := bufCols[b]
			if int64(len(cols[0])) >= capRows[b] {
				if err := flush(b); err != nil {
					return err
				}
			}
			if len(cols[0]) == cap(cols[0]) {
				growCols(cols, capRows[b])
			}
			for ci := 0; ci < x.arity; ci++ {
				cols[ci] = append(cols[ci], blk[ci][i])
			}
		}
	}
	for i := range bufs {
		if err := flush(int64(i)); err != nil {
			return err
		}
	}
	return nil
}
