// parallel.go is the morsel-driven parallel machinery of the executor: a
// deterministic partition-task runner (runParts), the Gather operator that
// merges the hash join's concurrently produced bucket streams, and the
// Exchange that hash-partitions its inputs into per-bucket spill files.
// Parallelism never
// changes what is charged: partition counts are decided by the plan (tuned
// block sizes, data sizes, pool budget) and each partition runs on a
// private accounting strand with a fixed pool share, so output digests and
// device ledgers are identical whether one worker or eight execute the
// partitions. Only wall-clock time changes.
package exec

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"

	"ocas/internal/ocal"
	"ocas/internal/storage"
)

// MaxWorkers is the executor's concurrency ceiling: partition degrees (and
// therefore the worker lanes that can ever be busy) never exceed it, so
// asking for more workers cannot help. Admission layers clamp requests
// against it — holding slots the executor can never use would only starve
// other requests.
const MaxWorkers = maxPartitions

// maxPartitions bounds the partition degree lowering and the parallel
// operators choose. It is a property of the plan, deliberately independent
// of the worker count: more workers than partitions idle, fewer queue.
const maxPartitions = 8

// runTask invokes one partition task, converting the storage layer's
// data-dependent exhaustion panics (scratch device full mid-spill, fixed
// capacity overflow) into errors. Program.Run performs the same conversion
// for the driver goroutine; worker goroutines need their own recovery or a
// full scratch device under ExecWorkers >= 2 would crash the process —
// and, in a daemon, every in-flight request — instead of failing the run.
func runTask(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			msg, ok := r.(string)
			if !ok || !strings.HasPrefix(msg, "storage:") {
				panic(r)
			}
			err = errors.New(msg)
		}
	}()
	return fn()
}

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

// runParts executes fn for partitions 0..n-1 on the context's worker
// lanes: lane l runs partitions l, l+w, l+2w, ... in order, so the
// task-to-lane assignment is deterministic. Each partition gets a private
// accounting strand and pool (see Ctx.part); accounts and pool counters
// fold back in partition order once every task finished, which keeps
// ledgers, clock and report independent of scheduling. A single-partition
// section runs directly on the caller's strand.
func runParts(c *Ctx, n int, fn func(i int, pc *Ctx) error) error {
	if n <= 0 {
		return nil
	}
	if n == 1 {
		return fn(0, c)
	}
	w := c.workers()
	if w > n {
		w = n
	}
	ctxs := make([]*Ctx, n)
	errs := make([]error, n)
	for i := range ctxs {
		ctxs[i] = c.part()
	}
	if w == 1 {
		for i := 0; i < n; i++ {
			i := i
			errs[i] = runTask(func() error { return fn(i, ctxs[i]) })
			c.adopt(ctxs[i], i, w)
			if errs[i] != nil {
				return errs[i]
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	var failed atomic.Bool
	for l := 0; l < w; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			for i := l; i < n; i += w {
				// A failed sibling dooms the whole section: stop starting
				// partitions instead of burning I/O the error will discard.
				if failed.Load() {
					return
				}
				if err := c.err(); err != nil {
					errs[i] = err
					return
				}
				i := i
				if errs[i] = runTask(func() error { return fn(i, ctxs[i]) }); errs[i] != nil {
					failed.Store(true)
					return
				}
			}
		}(l)
	}
	wg.Wait()
	var first error
	for i := 0; i < n; i++ {
		c.adopt(ctxs[i], i, w)
		if first == nil && errs[i] != nil {
			first = errs[i]
		}
	}
	return first
}

// ---------------------------------------------------------------------------
// Gather

// Gather merges the output streams of its partition operators into one
// stream. With one lane the partitions run lazily in order on the caller's
// strand. With more, each worker lane drives its partitions concurrently
// and batches merge in completion order — the consumer never stalls a
// producer — which is correct for every bag consumer (joins, exchanges,
// sorts, the sink's order-independent digest). With Ordered set
// (HashJoin.OrderedOutput: an order-sensitive consumer sits above the
// join) the gather has one lane at every worker count, so the row order —
// not just the bag — never depends on it: delivering in partition order
// from concurrent producers stalls them on the consumer and measured no
// faster than running them in turn. Each partition runs on a private
// context (see Ctx.part).
type Gather struct {
	Parts []Operator
	// Ordered delivers the partitions' rows in partition order.
	Ordered bool

	c      *Ctx
	ctxs   []*Ctx
	lanes  int
	closed bool
	cur    int
	opened bool // inline mode: current partition is open

	// Parallel mode (lanes > 1).
	ch     chan Batch
	stop   chan struct{}
	wg     sync.WaitGroup
	failed atomic.Bool

	errs     []error // per partition
	finalErr error
	merged   bool
}

func (g *Gather) Open(c *Ctx) error {
	g.c = c
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
	for l := 0; l < g.lanes; l++ {
		g.wg.Add(1)
		go g.lane(l)
	}
	go func() {
		g.wg.Wait()
		close(g.ch)
	}()
	return nil
}

// lane drives partitions l, l+w, ... to completion in order, stopping at
// the first failure or cancellation of any lane.
func (g *Gather) lane(l int) {
	defer g.wg.Done()
	for i := l; i < len(g.Parts) && !g.failed.Load(); i += g.lanes {
		err := g.c.err()
		if err == nil {
			err = runTask(func() error { return g.runPart(i) })
		}
		if err != nil {
			g.errs[i] = err
			g.failed.Store(true)
		}
	}
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

// finalize waits out the producers (parallel mode) and folds every
// partition context back in partition order, resolving the first error.
// Idempotent.
func (g *Gather) finalize() error {
	if g.merged {
		return g.finalErr
	}
	g.merged = true
	if g.ch != nil {
		g.wg.Wait()
	}
	for i, pc := range g.ctxs {
		g.c.adopt(pc, i, g.lanes)
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
		// Tell the lanes to stop and drain the channel, which unblocks any
		// producer waiting on it (the closer goroutine closes it once every
		// lane returned).
		g.failed.Store(true)
		close(g.stop)
		for range g.ch {
		}
	} else if g.opened {
		g.errs[g.cur] = g.Parts[g.cur].Close()
		g.opened = false
	}
	return g.finalize()
}

// ---------------------------------------------------------------------------
// Exchange

// Part is one partition produced by an Exchange: the chained spill
// segments (one per producer task) holding its rows.
type Part struct {
	Spills []*storage.Spill
}

// Exchange hash-partitions an input stream into Parts partitions on
// scratch: the partitioning pass of the GRACE hash join. An input with
// known extent (a base table or spill chain) is split into morsel sections
// partitioned concurrently by the
// worker lanes, each task writing its own per-partition spills through
// pool-pinned write buffers; a streamed subtree is partitioned on the
// caller's strand. Partition spills are chained per partition in task
// order, so contents and charges are worker-count-invariant.
type Exchange struct {
	In    Input
	Parts int64
	Key   int   // 0-based hash attribute
	KRead int64 // read block (tuples)
	BufW  int64 // per-partition write buffer (tuples)
}

// Run partitions the input, returning one Part per partition and the row
// arity (0 when the input delivered no rows and its arity is unknowable).
func (x *Exchange) Run(c *Ctx) ([]Part, int, error) {
	s := x.Parts
	if s <= 0 {
		s = 1
	}
	x.Parts = s
	tasks, sections := x.plan(c)
	spills := make([][]*storage.Spill, tasks)
	arities := make([]int, tasks)
	err := runParts(c, tasks, func(i int, pc *Ctx) error {
		var r blockReader
		if sections == nil {
			r = x.In.reader()
		} else {
			r = x.In.section(sections[i][0], sections[i][1])
		}
		sps, ar, err := x.partitionOne(pc, r)
		spills[i], arities[i] = sps, ar
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	parts := make([]Part, s)
	arity := 0
	for t := 0; t < tasks; t++ {
		if arities[t] > 0 {
			arity = arities[t]
		}
		for p := int64(0); p < s; p++ {
			if spills[t] != nil {
				parts[p].Spills = append(parts[p].Spills, spills[t][p])
			}
		}
	}
	return parts, arity, nil
}

// plan decides the morsel-task count and section bounds: enough blocks per
// task to amortize its seek, bounded by maxPartitions. Streamed inputs
// partition on one task.
func (x *Exchange) plan(c *Ctx) (tasks int, sections [][2]int64) {
	rows := x.In.extent()
	if rows < 0 {
		return 1, nil
	}
	k := x.KRead
	if k < 1 {
		k = 1
	}
	t := clampParts(rows / (4 * k))
	if t == 1 {
		return 1, nil
	}
	return t, sectionBounds(rows, t)
}

// growCols doubles the capacity of a bucket's column buffers, up to the
// limit rows its frame grants.
func growCols(cols [][]int32, limit int64) {
	n := min(max(2*cap(cols[0]), 64), int(limit))
	for c, col := range cols {
		cols[c] = append(make([]int32, 0, n), col...)
	}
}

// partitionOne hashes one morsel section into Parts scratch spills through
// BufW-tuple write buffers pinned in the task's pool share.
func (x *Exchange) partitionOne(c *Ctx, r blockReader) ([]*storage.Spill, int, error) {
	if err := r.open(c); err != nil {
		return nil, 0, err
	}
	defer r.close()
	s := x.Parts
	var (
		spills  []*storage.Spill
		bufs    []*storage.Frame
		bufCols [][][]int32 // per-bucket column-striped write buffers
		bufRows []int64
		capRows []int64
		arity   int
	)
	releaseBufs := func() {
		for _, f := range bufs {
			if f != nil {
				f.Release()
			}
		}
	}
	setup := func(ar int) error {
		arity = ar
		width := int64(arity) * 4
		want := c.share(x.BufW, s+1, width)
		spills = make([]*storage.Spill, s)
		bufs = make([]*storage.Frame, s)
		bufCols = make([][][]int32, s)
		bufRows = make([]int64, s)
		capRows = make([]int64, s)
		if want < 1 {
			want = 1
		}
		for i := range spills {
			sp, err := c.newSpill(width, 0)
			if err != nil {
				return err
			}
			spills[i] = sp
			f, err := c.Pool.PinUpTo(want, 1, width)
			if err != nil {
				return err
			}
			bufs[i] = f
			// The grant bounds the buffer; the host grows it as rows
			// arrive, since a section rarely fills every bucket's.
			bufCols[i] = make([][]int32, arity)
			capRows[i] = f.Cap(width)
		}
		return nil
	}
	// A fused table/spill input has a known arity: pin the bucket buffers
	// before the reader claims its block frame.
	if ar := r.arity(); ar > 0 {
		if err := setup(ar); err != nil {
			releaseBufs()
			return nil, 0, err
		}
	}
	flush := func(b int64) {
		if bufRows[b] == 0 {
			return
		}
		c.cpu(bufRows[b]*int64(arity)*4, c.Sim.MoveSeconds)
		spills[b].AppendCols(c.acct(), bufCols[b], bufRows[b])
		for ci := range bufCols[b] {
			bufCols[b][ci] = bufCols[b][ci][:0]
		}
		bufRows[b] = 0
	}
	for {
		k := x.KRead
		if k <= 0 {
			k = 1
		}
		if arity > 0 {
			k = c.share(k, s+1, int64(arity)*4)
		}
		blk, err := r.next(k)
		if err != nil {
			releaseBufs()
			return nil, 0, err
		}
		if blk == nil {
			break
		}
		if spills == nil {
			if err := setup(r.arity()); err != nil {
				releaseBufs()
				return nil, 0, err
			}
		}
		n := int64(len(blk[0]))
		c.cpu(n, c.Sim.HashSeconds)
		keyCol := blk[x.Key]
		bufW := x.BufW
		if bufW < 1 {
			bufW = 1
		}
		for i := int64(0); i < n; i++ {
			b := int64(ocal.HashInt(int64(keyCol[i])) % uint64(s))
			// Flush before the row would outgrow the pinned frame, so the
			// buffer never reallocates past its accounted size.
			if bufRows[b] >= capRows[b] {
				flush(b)
			}
			cols := bufCols[b]
			if len(cols[0]) == cap(cols[0]) {
				growCols(cols, capRows[b])
			}
			for ci := 0; ci < arity; ci++ {
				cols[ci] = append(cols[ci], blk[ci][i])
			}
			bufRows[b]++
			if bufRows[b] >= bufW {
				flush(b)
			}
		}
	}
	for i := range bufs {
		flush(int64(i))
		bufs[i].Release()
	}
	return spills, arity, nil
}
