package exec

import (
	"fmt"

	"ocas/internal/ocal"
	"ocas/internal/storage"
)

// Input binds an operator input either to a base table (fused block reads:
// the operator reads the device directly at its tuned block size, exactly
// what the generated C would do), to a chain of scratch spills, or to an
// arbitrary operator subtree, which streams through the batch protocol.
type Input struct {
	table  *Table           // set for a base table, next to its one-spill chain
	spills []*storage.Spill // device-resident input: the chain to read
	ar     int              // arity of spills
	op     Operator         // streamed input
}

// TableInput fuses a base table into the consuming operator.
func TableInput(t *Table) Input {
	return Input{table: t, spills: []*storage.Spill{t.Spill}, ar: t.Arity}
}

// SpillsInput reads a chain of spills (the per-task segments of an
// exchange partition) as one stream.
func SpillsInput(sps []*storage.Spill, arity int) Input { return Input{spills: sps, ar: arity} }

// OpInput streams another operator's output.
func OpInput(op Operator) Input { return Input{op: op} }

func (in Input) reader() blockReader {
	if in.spills != nil {
		return in.section(0, -1)
	}
	return newOpReader(in.op)
}

// extent returns the input's row count, or -1 for a streamed subtree whose
// extent is unknown before execution.
func (in Input) extent() int64 {
	if in.spills == nil {
		return -1
	}
	var n int64
	for _, sp := range in.spills {
		n += sp.Records()
	}
	return n
}

// section returns a reader over the record range [lo, hi) of a
// device-resident input (hi < 0: to the end).
func (in Input) section(lo, hi int64) blockReader {
	return &tableReader{sps: in.spills, ar: in.ar, lo: lo, hi: hi}
}

// ---------------------------------------------------------------------------
// Scan

// Scan delivers a table batch by batch, reading the device in blocks of K
// tuples through a pooled frame.
type Scan struct {
	T *Table
	K int64 // read block in tuples; <= 0 uses the context batch size

	c *Ctx
	r *tableReader
}

func (o *Scan) Open(c *Ctx) error {
	o.c = c
	o.r = newSpillReader(o.T.Spill, o.T.Arity)
	return o.r.open(c)
}

func (o *Scan) Next(b *Batch) (bool, error) {
	k := o.K
	if k <= 0 {
		k = o.c.batchRows()
	}
	blk, err := o.r.next(k)
	if err != nil || blk == nil {
		return false, err
	}
	b.Arity, b.Cols = o.T.Arity, blk
	return true, nil
}

func (o *Scan) Close() error {
	if o.r == nil {
		return nil
	}
	return o.r.close()
}

// ---------------------------------------------------------------------------
// Project

// Project applies a per-row body (projection, filter, arithmetic) to its
// input: the decision tree parseScanBody compiled, bound to the input arity
// at the first block and run as a block loop (see projKernel).
type Project struct {
	In Input
	K  int64 // fused read block in tuples

	body *stepNode // the compiled body

	c    *Ctx
	r    blockReader
	em   emitter
	pk   *projKernel
	blk  [][]int32 // header of the block the kernel is running over
	done bool
}

func (o *Project) Open(c *Ctx) error {
	o.c = c
	o.r = o.In.reader()
	return o.r.open(c)
}

// step runs the body over the blocks ahead, one by one, until the emitter
// holds max rows or the span is used up, and settles the blocks it ran:
// their reads, each followed by the CPU charge of its rows.
func (o *Project) step(max int64) error {
	k := o.K
	if k <= 0 {
		k = o.c.batchRows()
	}
	span, kk, err := o.r.span(k)
	if err != nil {
		return err
	}
	if span == nil {
		o.done = true
		return nil
	}
	if o.pk == nil {
		// The input arity is only known at the first block (streamed
		// subtrees report 0 until then).
		if o.pk, err = newProjKernel(o.body, o.r.arity()); err != nil {
			return err
		}
		o.blk = make([][]int32, len(span))
	}
	rows, used := int64(len(span[0])), int64(0)
	for used < rows && o.em.rows() < max {
		n := min(kk, rows-used)
		for c, col := range span {
			o.blk[c] = col[used : used+n]
		}
		if err := o.pk.run(&o.em, o.blk, int(n)); err != nil {
			return err
		}
		used += n
	}
	o.r.settle(used, o.c.Sim.CmpSeconds)
	return nil
}

func (o *Project) Next(b *Batch) (bool, error) {
	max := o.c.batchRows()
	for !o.done && o.em.rows() < max {
		if err := o.step(max); err != nil {
			return false, err
		}
	}
	return o.em.drain(b, max), nil
}

func (o *Project) Close() error {
	if o.r == nil {
		return nil
	}
	return o.r.close()
}

// ---------------------------------------------------------------------------
// Block nested loops join

// BNLJoin is the Block Nested Loops Join operator with optional
// smaller-relation-outer ordering (order-inputs), sequential inner scans,
// and optional cache tiling (the loop-tiling variant OCAS derives when the
// hierarchy includes a CPU cache). The resident outer block is pinned in
// the buffer pool; a non-rewindable inner subtree is materialized to a
// scratch spill before the first rescan.
type BNLJoin struct {
	L, R    Input
	K1, K2  int64 // outer/inner block sizes in tuples
	OrderBy bool  // put the smaller relation outer
	// EquiKeys is the join condition: non-nil, an equi-join on (L attribute,
	// R attribute), 0-based; nil, the relational product of the paper's
	// write-out experiments ("we use the join condition 'true'"). An
	// equi-join indexes each resident outer block once and probes every
	// inner tuple against it — the hash lookup the generated code performs —
	// producing the same bag of pairs as the nested scan with linear instead
	// of quadratic CPU; a product bulk-copies column runs.
	EquiKeys *[2]int
	// SwapOutput emits rows inner-first: the swap-iter derivations loop S
	// outside R but still construct <x, y> in the original order.
	SwapOutput bool
	// Tile sizes in tuples for the cache-conscious variant (0 = untiled).
	TileX, TileY int64

	c            *Ctx
	outer, inner blockReader
	swapped      bool
	flip         bool
	keys         *[2]int
	ob           *ownedBlock
	idx          probeIdx // equi-join index over the resident outer block
	// hbuf caches each inner row's bucket bounds (start<<32|end) for the
	// current (outer block, inner span) pair: the gather pass issues the
	// random offset loads with independent iterations (the CPU overlaps
	// them), so the match walk only visits rows with candidates.
	hbuf []uint64
	em   emitter
	done bool
	// Resume state within the current (outer block, inner rows) pair, so
	// one Next call never has to buffer a whole block pair's matches.
	yb         [][]int32
	posA, posB int64
	// An equi-join's yb spans inner blocks of ykk rows; the probe has begun
	// (and counted) the blocks before row begun.
	ykk, begun int64
}

func (o *BNLJoin) Open(c *Ctx) error {
	o.c = c
	lr, rr := o.L.reader(), o.R.reader()
	if err := lr.open(c); err != nil {
		return err
	}
	if err := rr.open(c); err != nil {
		return err
	}
	outer, inner := lr, rr
	o.swapped = false
	if o.OrderBy {
		var err error
		if outer.rows() < 0 {
			if outer, err = materialize(outer, c); err != nil {
				return err
			}
		}
		if inner.rows() < 0 {
			if inner, err = materialize(inner, c); err != nil {
				return err
			}
		}
		if inner.rows() < outer.rows() {
			outer, inner = inner, outer
			o.swapped = true
		}
	}
	if !inner.rewindable() {
		var err error
		if inner, err = materialize(inner, c); err != nil {
			return err
		}
	}
	o.outer, o.inner = outer, inner
	o.keys = o.EquiKeys
	if o.swapped && o.EquiKeys != nil {
		o.keys = &[2]int{o.EquiKeys[1], o.EquiKeys[0]}
	}
	// Emit in the body's tuple order regardless of which side ended up
	// outer: an OrderBy swap re-orients once, SwapOutput re-orients again.
	o.flip = o.swapped != o.SwapOutput
	return o.advanceOuter()
}

// advanceOuter loads the next resident outer block, indexes it for the
// equi-join fast path and rewinds the inner input.
func (o *BNLJoin) advanceOuter() error {
	o.ob.release()
	o.ob = nil
	k1 := o.K1
	if k1 <= 0 {
		k1 = 1
	}
	// Leave room for the inner block under tight budgets.
	k1 = o.c.share(k1, 2, int64(o.outer.arity())*4)
	ob, err := o.outer.take(k1)
	if err != nil {
		return err
	}
	if ob == nil {
		o.done = true
		return nil
	}
	o.ob = ob
	if o.keys != nil {
		// Index the resident block once; the key column is contiguous in
		// the columnar block — no stride walk.
		o.idx.build(ob.cols[o.keys[0]])
		o.c.cpu(ob.n, o.c.Sim.HashSeconds)
	}
	return o.inner.rewind()
}

// step joins the resident outer block against the inner rows ahead,
// fetching the next of them (and, at inner end-of-stream, the next outer
// block) as needed. Processing is resumable: it stops once the emitter holds
// a batch worth of rows, so a selective key or a product never buffers a
// whole block pair's matches at once.
func (o *BNLJoin) step() error {
	if o.keys != nil {
		return o.stepEqui()
	}
	if o.yb == nil {
		k2 := o.K2
		if k2 <= 0 {
			k2 = 1
		}
		yb, err := o.inner.next(k2)
		if err != nil {
			return err
		}
		if yb == nil {
			return o.advanceOuter()
		}
		o.yb, o.posA, o.posB = yb, 0, 0
		// Charges are per block pair: a product visits every pair.
		nx, ny := o.ob.n, int64(len(yb[0]))
		o.c.cpu(nx*ny, o.c.Sim.CmpSeconds)
		o.countCacheMisses(nx, ny, int64(o.outer.arity()), int64(o.inner.arity()))
	}
	xb, yb := o.ob.cols, o.yb
	nx, ny := o.ob.n, int64(len(yb[0]))
	max := o.c.batchRows()
	xout, yout := o.outCols()
	// Relational product: every pair matches, so each (outer row, inner
	// run) pair is a constant fill on the x side and a contiguous column
	// copy on the y side, stopping exactly when the emitter reaches a
	// batch.
	b := o.posB
	for a := o.posA; a < nx; a++ {
		for b < ny {
			room := max - o.em.rows()
			if room <= 0 {
				o.posA, o.posB = a, b
				return nil
			}
			take := ny - b
			if take > room {
				take = room
			}
			for c := range xout {
				v := xb[c][a]
				dst := xout[c]
				for i := int64(0); i < take; i++ {
					dst = append(dst, v)
				}
				xout[c] = dst
			}
			for c := range yout {
				yout[c] = append(yout[c], yb[c][b:b+take]...)
			}
			b += take
		}
		b = 0
	}
	o.yb = nil
	return nil
}

// outCols splits the emitter's columns into the outer block's side and the
// inner's. Both alias the emitter's column-header array, so appends through
// them persist: the output's x-side columns come first unless the emit
// order is flipped.
func (o *BNLJoin) outCols() (xout, yout [][]int32) {
	ra, sa := o.outer.arity(), o.inner.arity()
	o.em.reserve(ra + sa)
	if o.flip {
		return o.em.cols[sa:], o.em.cols[:sa]
	}
	return o.em.cols[:ra], o.em.cols[ra:]
}

// stepEqui probes the span of inner rows ahead against the resident outer
// block's index. The charges are per block pair as ever — the inner block's
// read, then one hash per inner tuple — but counted as the probe crosses
// into each block and settled when it pauses or runs out of span; the
// bucket-bounds gather runs once over the whole span.
func (o *BNLJoin) stepEqui() error {
	if o.yb == nil {
		k2 := o.K2
		if k2 <= 0 {
			k2 = 1
		}
		yb, kk, err := o.inner.span(k2)
		if err != nil {
			return err
		}
		if yb == nil {
			return o.advanceOuter()
		}
		o.yb, o.ykk, o.posB, o.begun = yb, kk, 0, 0
		// Gather pass: one bucket-bounds pair per inner row, computed once
		// per span (resumed pauses reuse it).
		ny := len(yb[0])
		if cap(o.hbuf) < ny {
			o.hbuf = make([]uint64, ny)
		}
		o.hbuf = o.hbuf[:ny]
		hbuf, offs, shift := o.hbuf, o.idx.offs, o.idx.shift
		for b, key := range yb[o.keys[1]] {
			h := probeHash(key, shift)
			hbuf[b] = uint64(offs[h])<<32 | uint64(uint32(offs[h+1]))
		}
	}
	xb, yb := o.ob.cols, o.yb
	nx, ny := o.ob.n, int64(len(yb[0]))
	max := o.c.batchRows()
	xout, yout := o.outCols()
	ents, hbuf, ykeys := o.idx.ents, o.hbuf, yb[o.keys[1]]
	settled := o.begun
	for b := o.posB; b < ny; b++ {
		if o.em.rows() >= max {
			o.posB = b
			o.inner.settle(o.begun-settled, o.c.Sim.HashSeconds)
			return nil
		}
		if b == o.begun {
			// The probe enters the next inner block.
			n := min(o.ykk, ny-b)
			o.begun += n
			o.countCacheMisses(nx, n, int64(len(xb)), int64(len(yb)))
		}
		bounds := hbuf[b]
		i, e := int32(bounds>>32), int32(uint32(bounds))
		if i == e {
			continue
		}
		key := uint32(ykeys[b])
		// Bucket entries are contiguous and carry the key, so the scan is
		// a short sequential read that never touches the outer block for
		// hash collisions.
		for ; i < e; i++ {
			ent := ents[i]
			if uint32(ent>>32) != key {
				continue
			}
			a := int(uint32(ent))
			for c := range xout {
				xout[c] = append(xout[c], xb[c][a])
			}
			for c := range yout {
				yout[c] = append(yout[c], yb[c][b])
			}
		}
	}
	o.inner.settle(o.begun-settled, o.c.Sim.HashSeconds)
	o.yb = nil
	return nil
}

func (o *BNLJoin) Next(b *Batch) (bool, error) {
	max := o.c.batchRows()
	for !o.done && o.em.rows() < max {
		if err := o.step(); err != nil {
			return false, err
		}
	}
	return o.em.drain(b, max), nil
}

func (o *BNLJoin) Close() error {
	o.ob.release()
	o.ob = nil
	var err error
	// Open may have failed before assigning the readers.
	if o.outer != nil {
		err = o.outer.close()
	}
	if o.inner != nil {
		if e := o.inner.close(); err == nil {
			err = e
		}
	}
	return err
}

// countCacheMisses feeds the analytic cache model with this block pair's
// access pattern: the inner block is scanned once per outer tuple (untiled),
// or once per outer tile (tiled), which is what loop tiling buys.
func (o *BNLJoin) countCacheMisses(nx, ny, ra, sa int64) {
	c := o.c.Sim.Cache
	if c == nil || nx == 0 || ny == 0 {
		return
	}
	yBytes := ny * sa * 4
	if o.TileY <= 0 {
		// Untiled: the whole inner block streams past the cache nx times.
		c.ScanMisses(yBytes, nx)
		c.ScanMisses(nx*ra*4, 1)
		return
	}
	tileY := o.TileY
	tileX := o.TileX
	if tileX <= 0 {
		tileX = nx
	}
	nTilesY := (ny + tileY - 1) / tileY
	nTilesX := (nx + tileX - 1) / tileX
	// Each y-tile is resident while tileX outer tuples scan it: one cold
	// pass per x-tile, hits afterwards.
	for ty := int64(0); ty < nTilesY; ty++ {
		rows := tileY
		if ty == nTilesY-1 {
			rows = ny - ty*tileY
		}
		c.ScanMisses(rows*sa*4, nTilesX*tileX)
	}
	c.ScanMisses(nx*ra*4, 1)
}

// ---------------------------------------------------------------------------
// GRACE hash join

// HashJoin is the GRACE hash join: both inputs are hash-partitioned to
// scratch spill files (through pool-pinned per-bucket write buffers), then
// corresponding buckets are joined with block nested loops joins whose
// blocks normally cover a whole bucket, so all data is read exactly twice.
// Both phases are morsel-parallel: inputs with known extent partition in
// concurrent morsel tasks (Exchange), and the per-bucket joins run on the
// worker lanes through a Gather — the bucket count, fixed by the plan's
// tuned parameter, is the partition degree, so charges are identical for
// every worker count.
type HashJoin struct {
	L, R     Input
	Buckets  int64
	KRead    int64 // partition-phase read block (tuples)
	BufW     int64 // per-bucket write buffer (tuples)
	KJoin    int64 // join-phase block size (tuples)
	KeyL     int   // 0-based key attribute of L
	KeyR     int
	EquiKeys *[2]int // the join condition of the per-bucket joins (see BNLJoin.EquiKeys)
	// SwapOutput is forwarded to the per-bucket joins (see BNLJoin).
	SwapOutput bool
	// OrderedOutput delivers bucket outputs strictly in bucket order (the
	// single-worker order) at the cost of producer overlap; lowering sets
	// it when an order-sensitive consumer (a fold, a streaming merge)
	// consumes this join.
	OrderedOutput bool

	c        *Ctx
	bL, bR   []Part
	arL, arR int
	g        *Gather // bucket joins, partition-wise on the worker lanes
	done     bool
}

func (o *HashJoin) Open(c *Ctx) error {
	o.c = c
	s := o.Buckets
	if s <= 0 {
		s = 1
	}
	o.Buckets = s
	exL := &Exchange{In: o.L, Parts: s, Key: o.KeyL, KRead: o.KRead, BufW: o.BufW}
	exR := &Exchange{In: o.R, Parts: s, Key: o.KeyR, KRead: o.KRead, BufW: o.BufW}
	var err error
	if o.bL, o.arL, err = exL.Run(c); err != nil {
		return err
	}
	if o.bR, o.arR, err = exR.Run(c); err != nil {
		return err
	}
	// A side that delivered no rows (unknowable arity) joins to nothing.
	o.done = o.arL == 0 || o.arR == 0
	if o.done {
		return nil
	}
	// The bucket joins are the join phase's partitions: a Gather runs them
	// on the worker lanes (lazily in bucket order on one worker), each
	// against the full plan budget, so per-bucket charges match the
	// bucket-at-a-time executor exactly.
	parts := make([]Operator, s)
	for i := int64(0); i < s; i++ {
		parts[i] = o.bucketJoin(i)
	}
	o.g = &Gather{Parts: parts, Ordered: o.OrderedOutput}
	return o.g.Open(c)
}

// bucketJoin builds the BNL join of bucket pair i.
func (o *HashJoin) bucketJoin(i int64) *BNLJoin {
	return &BNLJoin{
		L: SpillsInput(o.bL[i].Spills, o.arL), R: SpillsInput(o.bR[i].Spills, o.arR),
		K1: o.KJoin, K2: o.KJoin, EquiKeys: o.EquiKeys,
		SwapOutput: o.SwapOutput,
	}
}

func (o *HashJoin) Next(b *Batch) (bool, error) {
	if o.done || o.g == nil {
		return false, nil
	}
	return o.g.Next(b)
}

func (o *HashJoin) Close() error {
	if o.g != nil {
		g := o.g
		o.g = nil
		return g.Close()
	}
	return nil
}

// ---------------------------------------------------------------------------
// External merge sort

// sortCursor walks one run of a merge group through a pooled frame. The
// frame accounts the block's residency and its grant bounds the fill size;
// the payload itself is zero-copy column views into the source spill.
type sortCursor struct {
	src       *storage.Spill
	next, end int64
	frame     *storage.Frame
	cols      [][]int32 // ReadColsAt views of the current fill (reused header)
	n         int64     // rows in the current fill
	pos       int64
}

// ExtSort is the 2^k-way external merge sort derived from the insertion-sort
// specification. Every pass reads all data in blocks of Bin tuples, merges
// `Way` runs at a time and writes through a Bout-tuple buffer to the
// alternate scratch spill; runs initially have length 1 (the specification
// folds merge over singleton lists). The final pass streams its merged
// output downstream instead of writing it back to scratch.
//
// Large inputs sort morsel-parallel: the input splits into sections (a
// plan-and-data function, independent of worker count), each section is
// fully sorted by a partition task on the worker lanes, and the final
// streamed merge fans the sorted sections in — so output order is exactly
// the sequential order, and every section's charges are its own.
type ExtSort struct {
	In     Input
	Way    int
	Bin    int64
	Bout   int64
	KeyCol int
	Passes int // reported

	c       *Ctx
	arity   int
	finalCs []*sortCursor
	em      emitter
	done    bool
}

func (o *ExtSort) Open(c *Ctx) error {
	o.c = c
	if o.Way < 2 {
		o.Way = 2
	}
	// Resolve the pass-1 source: a base table is read in place; an operator
	// subtree is spooled to scratch first.
	var src *storage.Spill
	if o.In.table != nil {
		src, o.arity = o.In.table.Spill, o.In.table.Arity
	} else {
		r := newOpReader(o.In.op)
		if err := r.open(c); err != nil {
			return err
		}
		mr, err := materialize(r, c)
		if err != nil {
			return err
		}
		src, o.arity = mr.sps[0], mr.ar
	}
	n := src.Records()
	if n == 0 {
		o.done = true
		return nil
	}
	width := int64(o.arity) * 4

	parts := o.sections(n, width)
	bounds := sectionBounds(n, parts)
	type sorted struct {
		sp     *storage.Spill
		lo, hi int64
		runLen int64
		passes int
	}
	outs := make([]sorted, parts)
	err := runParts(c, parts, func(i int, pc *Ctx) error {
		sp, lo, hi, runLen, passes, err := o.sortRange(pc, src, bounds[i][0], bounds[i][1], parts > 1)
		outs[i] = sorted{sp, lo, hi, runLen, passes}
		return err
	})
	if err != nil {
		return err
	}
	// The final streamed merge fans in every section's remaining runs (at
	// most Way per section — sections stop merging one pass early, exactly
	// like the single-section sort always did).
	for _, s := range outs {
		if s.passes > o.Passes {
			o.Passes = s.passes
		}
		for r := s.lo; r < s.hi; r += s.runLen {
			end := r + s.runLen
			if end > s.hi {
				end = s.hi
			}
			o.finalCs = append(o.finalCs, &sortCursor{src: s.sp, next: r, end: end})
		}
	}
	if len(o.finalCs) > 1 || parts > 1 {
		o.Passes++ // the final streamed merge
	}
	for _, cu := range o.finalCs {
		if err := o.fill(cu); err != nil {
			return err
		}
	}
	return nil
}

// sections picks the morsel-parallel section count: one section per
// 4·Way·Bin records (enough merge work to amortize the extra final-merge
// fan-in), bounded by maxPartitions and by the pool budget (each section's
// merge needs Way+1 frames from its share, and the final merge needs one
// cursor frame per remaining run — up to Way per section — plus one).
func (o *ExtSort) sections(n, width int64) int {
	bin := o.Bin
	if bin < 1 {
		bin = 1
	}
	span := 4 * int64(o.Way) * bin
	if span < 4096 {
		span = 4096
	}
	p := clampParts(n / span)
	if b := o.c.Pool.Budget(); b > 0 && p > 1 {
		// The final merge pins one cursor frame per section (plus the
		// consumer's) from the driver's budget.
		if maxP := b/width - 1; maxP < int64(p) {
			p = int(maxP)
		}
		if p < 1 {
			p = 1
		}
	}
	return p
}

// sortRange sorts src[lo, hi) and returns the spill and range holding the
// remaining runs, the run length and the number of merge passes. A lone
// section (full == false) stops one pass early — at most Way runs remain
// and the final merge streams them, exactly the pre-parallel behaviour. A
// parallel section (full == true) sorts to a single run: it costs one more
// (parallel) pass, and keeps the sequential final merge a parts-way fan-in
// instead of a parts·Way-way one, which would otherwise dominate the run.
// The ping-pong scratch spills are task-local; the loser of the last pass
// is freed eagerly.
func (o *ExtSort) sortRange(c *Ctx, src *storage.Spill, lo, hi int64, full bool) (*storage.Spill, int64, int64, int64, int, error) {
	span := hi - lo
	runLen := int64(1)
	if span <= 1 {
		return src, lo, hi, runLen, 0, nil
	}
	width := int64(o.arity) * 4
	cur, curLo, curHi := src, lo, hi
	passes := 0
	more := func() bool {
		if full {
			return runLen < span
		}
		return runLen*int64(o.Way) < span
	}
	var a, b *storage.Spill
	for more() {
		var dst *storage.Spill
		var err error
		switch cur {
		case a:
			if b == nil {
				if b, err = c.newSpill(width, span); err != nil {
					return nil, 0, 0, 0, 0, err
				}
			}
			dst = b
		default:
			if a == nil {
				if a, err = c.newSpill(width, span); err != nil {
					return nil, 0, 0, 0, 0, err
				}
			}
			dst = a
		}
		dst.Reset()
		if err := o.mergePass(c, cur, curLo, curHi, dst, runLen); err != nil {
			return nil, 0, 0, 0, 0, err
		}
		passes++
		runLen *= int64(o.Way)
		cur, curLo, curHi = dst, 0, span
	}
	// Free the ping-pong spill the remaining runs do not live in.
	if a != nil && a != cur {
		a.Free()
	}
	if b != nil && b != cur {
		b.Free()
	}
	return cur, curLo, curHi, runLen, passes, nil
}

// fill tops up a cursor's frame from its source spill.
func (o *ExtSort) fill(cu *sortCursor) error {
	return o.fillCtx(o.c, cu, int64(len(o.finalCs)))
}

// fillCtx tops up a cursor, sharing the pool budget with its sibling
// cursors plus one output buffer.
func (o *ExtSort) fillCtx(c *Ctx, cu *sortCursor, siblings int64) error {
	a := int64(o.arity)
	if cu.pos < cu.n || cu.next >= cu.end {
		return nil
	}
	take := o.Bin
	if take <= 0 {
		take = 1
	}
	take = c.share(take, siblings+1, a*4)
	if cu.frame == nil {
		f, err := c.Pool.PinUpTo(take, 1, a*4)
		if err != nil {
			return err
		}
		cu.frame = f
	}
	if cap := cu.frame.Cap(a * 4); cap < take {
		take = cap
	}
	if cu.next+take > cu.end {
		take = cu.end - cu.next
	}
	cu.cols, cu.n = cu.src.ReadColsAt(c.acct(), cu.next, take, cu.cols)
	cu.next += take
	cu.pos = 0
	return nil
}

// selectMin picks the cursor with the smallest key, charging the
// comparison sweep. Keys live in one contiguous column per cursor.
func (o *ExtSort) selectMin(c *Ctx, cs []*sortCursor) int {
	best := -1
	var bestKey int32
	for i, cu := range cs {
		if cu.pos >= cu.n {
			continue
		}
		key := cu.cols[o.KeyCol][cu.pos]
		if best == -1 || key < bestKey {
			best, bestKey = i, key
		}
	}
	c.cpu(int64(len(cs)), c.Sim.CmpSeconds)
	return best
}

// mergePass merges groups of Way runs of length runLen from src[lo, hi)
// into dst.
func (o *ExtSort) mergePass(c *Ctx, src *storage.Spill, lo, hi int64, dst *storage.Spill, runLen int64) error {
	a := int64(o.arity)
	bout := o.Bout
	if bout <= 0 {
		bout = 1
	}
	bout = c.share(bout, int64(o.Way)+1, a*4)
	out, err := c.Pool.PinUpTo(bout, 1, a*4)
	if err != nil {
		return err
	}
	defer out.Release()
	if cap := out.Cap(a * 4); cap < bout {
		bout = cap
	}
	// The output buffer is column-striped in the frame's grant, so the
	// flush is a per-column bulk append into the destination spill's
	// matching stripes.
	outCols := frameCols(out, o.arity)
	outRows := int64(0)
	flush := func() error {
		if outRows == 0 {
			return nil
		}
		c.cpu(outRows*a*4, c.Sim.MoveSeconds)
		if err := dst.AppendCols(c.acct(), outCols, outRows); err != nil {
			return err
		}
		for i := range outCols {
			outCols[i] = outCols[i][:0]
		}
		outRows = 0
		return nil
	}
	// Cursor frames are pinned once per pass and reused across merge
	// groups: a first pass over singleton runs visits millions of groups,
	// and a frame allocation per cursor per group would turn into GC sweep
	// contention that serializes the parallel sections.
	frames := make([]*storage.Frame, o.Way)
	defer func() {
		for _, f := range frames {
			if f != nil {
				f.Release()
			}
		}
	}()
	cursors := make([]*sortCursor, o.Way)
	for i := range cursors {
		cursors[i] = &sortCursor{}
	}
	groupSpan := runLen * int64(o.Way)
	for g := lo; g < hi; g += groupSpan {
		cs := cursors[:0]
		for r := g; r < g+groupSpan && r < hi; r += runLen {
			end := r + runLen
			if end > hi {
				end = hi
			}
			cu := cursors[len(cs)]
			*cu = sortCursor{src: src, next: r, end: end, frame: frames[len(cs)], cols: cu.cols[:0]}
			cs = append(cs, cu)
		}
		for _, cu := range cs {
			if err := o.fillCtx(c, cu, int64(o.Way)); err != nil {
				return err
			}
		}
		for {
			if err := c.err(); err != nil {
				return err
			}
			best := o.selectMin(c, cs)
			if best == -1 {
				break
			}
			cu := cs[best]
			for ci := 0; ci < o.arity; ci++ {
				outCols[ci] = append(outCols[ci], cu.cols[ci][cu.pos])
			}
			outRows++
			if outRows >= bout {
				if err := flush(); err != nil {
					return err
				}
			}
			cu.pos++
			if err := o.fillCtx(c, cu, int64(o.Way)); err != nil {
				return err
			}
		}
		for i, cu := range cs {
			frames[i] = cu.frame // keep any frame fill pinned for reuse
		}
	}
	return flush()
}

// step emits the next row of the final streamed merge.
func (o *ExtSort) step() error {
	if err := o.c.err(); err != nil {
		return err
	}
	best := o.selectMin(o.c, o.finalCs)
	if best == -1 {
		o.done = true
		return nil
	}
	cu := o.finalCs[best]
	o.em.reserve(o.arity)
	for c := range o.em.cols {
		o.em.cols[c] = append(o.em.cols[c], cu.cols[c][cu.pos])
	}
	cu.pos++
	return o.fill(cu)
}

func (o *ExtSort) Next(b *Batch) (bool, error) {
	max := o.c.batchRows()
	for !o.done && o.em.rows() < max {
		if err := o.step(); err != nil {
			return false, err
		}
	}
	return o.em.drain(b, max), nil
}

func (o *ExtSort) Close() error {
	for _, cu := range o.finalCs {
		if cu.frame != nil {
			cu.frame.Release()
			cu.frame = nil
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Streaming unfoldR

// UnfoldR executes a generic unfoldR over streamed inputs: the step — the
// decision tree parseUnfoldStep compiled from the optimized OCAL program — is
// applied per produced element while the inputs stream through RAM windows
// of K tuples. This covers the set/multiset unions and differences, zips
// (column-store reads) and duplicate removal of the evaluation. The step is
// a cursor machine over the windows' column views and never charges; the
// operator owns the refills, the one cpu charge per step (counted, and
// settled before the strand's next other charge) and the pause points, so a
// step's shape cannot move a ledger. The step threads state
// from element to element, so the operator is inherently sequential; its
// inputs may still be parallel subtrees.
type UnfoldR struct {
	Ins []Input
	K   int64 // window size (tuples) per input
	// StateArity is the arity of the step's state tuple; when larger than
	// len(Ins), the extra leading components start as empty lists (scratch
	// state such as dup-removal's last-seen marker).
	StateArity int

	tree *stepNode // the compiled step

	c       *Ctx
	readers []blockReader
	spans   []unfoldSpan // per reader: what is ahead of its window
	wins    []stepWin    // scratch components first, then one per reader
	scratch int
	rows    [][]int64 // evaluated rows of the current leaf: emit, then one per component
	steps   int64     // steps taken whose cpu charge is not settled yet
	em      emitter
	done    bool
}

// unfoldSpan is the part of a reader's last span its window has not reached:
// ahead rows, in blocks of kk.
type unfoldSpan struct{ kk, ahead int64 }

func (o *UnfoldR) Open(c *Ctx) error {
	o.c = c
	n := o.StateArity
	if n < len(o.Ins) {
		n = len(o.Ins)
	}
	o.scratch = n - len(o.Ins)
	o.wins = make([]stepWin, n)
	o.rows = make([][]int64, n+1)
	o.readers = make([]blockReader, len(o.Ins))
	o.spans = make([]unfoldSpan, len(o.Ins))
	for i, in := range o.Ins {
		o.readers[i] = in.reader()
		if err := o.readers[i].open(c); err != nil {
			return err
		}
	}
	return o.refillAll()
}

// refillAll tops up input windows that are nearly drained. Refilling at
// one remaining element (not zero) gives the step function one element of
// lookahead across window boundaries: the streaming group-by decides
// "last tuple → final group" by inspecting head(tail(window)), which must
// not be an artifact of where a transfer block happened to end.
//
// A window is one modelled block of its reader's span: a refill moves it to
// the span's next block and settles that block's read — after the steps
// taken so far, the order a fetch per block would charge in — and only a
// used-up span costs the reader a call.
func (o *UnfoldR) refillAll() error {
	k := o.K
	if k <= 0 {
		k = 1
	}
	for i, r := range o.readers {
		w, sp := &o.wins[o.scratch+i], &o.spans[i]
		if w.rows() > 1 {
			continue
		}
		if !w.held && w.pos < w.n {
			// The window moves on (and a reader's views die with its next
			// call): the remaining row moves to the front.
			w.front, w.held, w.pos = w.appendRow(w.front[:0], 0), true, w.n
		}
		o.settle()
		if sp.ahead == 0 {
			span, kk, err := r.span(o.c.share(k, int64(len(o.readers)), int64(r.arity())*4))
			if err != nil {
				return err
			}
			if span == nil {
				continue
			}
			w.cols, w.pos, w.n = span, 0, 0
			sp.kk, sp.ahead = kk, int64(len(span[0]))
		}
		n := min(sp.kk, sp.ahead)
		w.n += int(n)
		sp.ahead -= n
		r.settle(n, 0)
	}
	return nil
}

func (o *UnfoldR) step() error {
	if err := o.refillAll(); err != nil {
		return err
	}
	empty := true
	for i := range o.wins {
		if o.wins[i].rows() > 0 {
			empty = false
			break
		}
	}
	if empty {
		o.done = true
		return nil
	}
	leaf, err := o.tree.leaf(o.wins)
	if err != nil {
		return err
	}
	if leaf.fail != nil {
		return leaf.fail
	}
	// Every row evaluates against the state the step was given, in interp's
	// order — the chunk, then each component: its row, then its tail.
	if o.rows[0], err = evalRow(leaf.emit, o.wins, o.rows[0]); err != nil {
		return err
	}
	for i, u := range leaf.upd {
		if o.rows[i+1], err = evalRow(u.row, o.wins, o.rows[i+1]); err != nil {
			return err
		}
		if u.keep && o.wins[i].rows() < u.m {
			return errTailEmpty
		}
	}
	progress := !leaf.stalls
	for i, u := range leaf.upd {
		w := &o.wins[i]
		before := w.rows()
		if u.keep {
			w.drop(u.m)
		} else {
			w.held, w.pos = false, w.n
		}
		if u.row != nil {
			w.push(o.rows[i+1])
		}
		progress = progress || w.rows() != before
	}
	if !progress {
		return fmt.Errorf("exec: unfoldR step made no progress")
	}
	o.steps++
	if leaf.emit != nil {
		return o.em.emitWide(o.rows[0])
	}
	return nil
}

// settle charges the steps taken since the last refill: one cpu(1, Cmp)
// each, as many additions, in one call.
func (o *UnfoldR) settle() {
	o.c.acct().CPUTimes(o.steps, 1, o.c.Sim.CmpSeconds)
	o.steps = 0
}

func (o *UnfoldR) Next(b *Batch) (bool, error) {
	max := o.c.batchRows()
	for !o.done && o.em.rows() < max {
		if err := o.step(); err != nil {
			return false, err
		}
	}
	o.settle()
	return o.em.drain(b, max), nil
}

func (o *UnfoldR) Close() error {
	var err error
	for _, r := range o.readers {
		if r == nil {
			continue // Open failed before this reader was opened
		}
		if e := r.close(); err == nil {
			err = e
		}
	}
	return err
}

// ---------------------------------------------------------------------------
// Fold

// Fold executes foldL over one streamed input (aggregation, averages) as the
// integer-accumulator kernel parseFoldKernel compiled. It produces no rows;
// the accumulator — with the optional final lambda applied — is available as
// Final after the stream completes. The fold itself threads an accumulator
// and so runs on one strand; its input may be a parallel subtree.
type Fold struct {
	In    Input
	K     int64
	Final ocal.Value

	kern *foldKernelSpec
}

func (o *Fold) Open(c *Ctx) error {
	r := o.In.reader()
	if err := r.open(c); err != nil {
		return err
	}
	defer r.close()
	k := o.K
	if k <= 0 {
		k = 1
	}
	fk := o.kern.newKernel()
	for {
		// The fold takes whatever is ahead: every block of the span is read
		// and then charged its rows' CPU, and the kernel runs over them all.
		span, _, err := r.span(k)
		if err != nil {
			return err
		}
		if span == nil {
			break
		}
		rows := len(span[0])
		r.settle(int64(rows), c.Sim.CmpSeconds)
		if err := fk.step(span, rows); err != nil {
			return err
		}
	}
	var err error
	o.Final, err = fk.result()
	return err
}

func (o *Fold) Next(b *Batch) (bool, error) { return false, nil }
func (o *Fold) Close() error                { return nil }
