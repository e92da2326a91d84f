package exec

import (
	"slices"

	"ocas/internal/ocal"
	"ocas/internal/storage"
)

// Input binds an operator input either to a base table (fused block reads:
// the operator reads the device directly at its tuned block size, exactly
// what the generated C would do), to one part of an exchange, or to an
// arbitrary operator subtree, which streams through the batch protocol.
type Input struct {
	spill *storage.Spill // device-resident input (nil: no rows)
	ar    int            // arity of spill
	op    Operator       // streamed input
	// x, when set, binds the input to part number part of exchange x, whose
	// spill exists once x has run (see Gather.Exchanges).
	x    *Exchange
	part int
}

// TableInput fuses a base table into the consuming operator.
func TableInput(t *Table) Input { return Input{spill: t.Spill, ar: t.Arity} }

// OpInput streams another operator's output.
func OpInput(op Operator) Input { return Input{op: op} }

// resolve binds an exchange part to the spill its exchange wrote (no spill
// and arity 0 when the exchange's input delivered no rows).
func (in Input) resolve() Input {
	if in.x != nil {
		return Input{spill: in.x.parts[in.part], ar: in.x.arity}
	}
	return in
}

func (in Input) reader() blockReader {
	if in.op != nil {
		return &opReader{op: in.op}
	}
	in = in.resolve()
	return &tableReader{sp: in.spill, ar: in.ar}
}

// extent returns the input's row count, or -1 for a streamed subtree whose
// extent is unknown before execution.
func (in Input) extent() int64 {
	if in.op != nil {
		return -1
	}
	return records(in.resolve().spill)
}

// ---------------------------------------------------------------------------
// Scan

// Scan delivers a device-resident input (a table or an exchange part) batch
// by batch, reading the device in blocks of K tuples through a pooled frame.
type Scan struct {
	In Input
	K  int64 // read block in tuples; <= 0 uses the context batch size

	c *Ctx
	r blockReader
}

func (o *Scan) Open(c *Ctx) error {
	o.c = c
	o.r = o.In.reader()
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
	b.Arity, b.Cols = o.r.arity(), blk
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

// BNLJoin is the Block Nested Loops Join operator with sequential inner
// scans and optional cache tiling (the loop-tiling variant OCAS derives when
// the hierarchy includes a CPU cache). L is the outer relation: the planner
// fixed the order. The resident outer block is pinned in the buffer pool; a
// streamed inner subtree is materialized to a scratch spill before the first
// scan.
type BNLJoin struct {
	L, R   Input
	K1, K2 int64 // outer/inner block sizes in tuples
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

	c     *Ctx
	outer blockReader
	inner *tableReader // the inner input, materialized unless it is one
	ob    *ownedBlock
	// js indexes the resident outer block of an equi-join; the join holds
	// it from Open to Close.
	js   *joinScratch
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
	// A part of an exchange whose input delivered no rows, in any of its
	// parts, joins to nothing: neither side is read. An empty part of a
	// non-empty input still joins.
	noRows := func(in Input) bool { return in.x != nil && in.x.rows == 0 }
	if o.done = noRows(o.L) || noRows(o.R); o.done {
		return nil
	}
	// Close closes the outer input from here on, whatever fails next.
	o.outer = o.L.reader()
	if err := o.outer.open(c); err != nil {
		return err
	}
	var err error
	if o.inner, err = rescannable(o.R, c); err != nil {
		return err
	}
	if o.EquiKeys != nil {
		o.js = c.takeScratch()
	}
	return o.advanceOuter()
}

// advanceOuter loads the next resident outer block, indexes it for the
// equi-join fast path and rewinds the inner input.
func (o *BNLJoin) advanceOuter() error {
	o.ob.release()
	o.ob = nil
	ob, err := o.outer.take(o.K1)
	if err != nil {
		return err
	}
	if ob == nil {
		o.done = true
		return nil
	}
	o.ob = ob
	if o.EquiKeys != nil {
		// Index the resident block once; the key column is contiguous in
		// the columnar block — no stride walk.
		o.js.idx.build(ob.cols[o.EquiKeys[0]])
		o.c.cpu(ob.n, o.c.Sim.HashSeconds)
	}
	o.inner.pos = 0
	return nil
}

// step joins the resident outer block against the inner rows ahead,
// fetching the next of them (and, at inner end-of-stream, the next outer
// block) as needed: a product takes a block, an equi-join a span. Processing
// is resumable: it stops once the emitter holds a batch worth of rows, so a
// selective key or a product never buffers a whole block pair's matches at
// once.
func (o *BNLJoin) step() error {
	if o.yb == nil {
		var err error
		if o.EquiKeys == nil {
			o.yb, err = o.inner.next(max(o.K2, 1))
		} else {
			o.yb, o.ykk, err = o.inner.span(max(o.K2, 1))
		}
		switch {
		case err != nil:
			return err
		case o.yb == nil:
			return o.advanceOuter()
		case o.EquiKeys == nil:
			// Charges are per block pair: a product visits every pair.
			nx, ny := o.ob.n, int64(len(o.yb[0]))
			o.c.cpu(nx*ny, o.c.Sim.CmpSeconds)
			o.countCacheMisses(nx, ny, int64(o.outer.arity()), int64(o.inner.arity()))
		default:
			// Gather pass: one bucket-bounds pair per inner row, computed
			// once per span (resumed pauses reuse it).
			js, ny := o.js, len(o.yb[0])
			js.hbuf = slices.Grow(js.hbuf[:0], ny)[:ny]
			hbuf, offs, shift := js.hbuf, js.idx.offs, js.idx.shift
			for b, key := range o.yb[o.EquiKeys[1]] {
				h := probeHash(key, shift)
				hbuf[b] = uint64(offs[h])<<32 | uint64(uint32(offs[h+1]))
			}
		}
		o.posA, o.posB, o.begun = 0, 0, 0
	}
	if o.EquiKeys != nil {
		return o.stepEqui()
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
	if o.SwapOutput {
		return o.em.cols[sa:], o.em.cols[:sa]
	}
	return o.em.cols[:ra], o.em.cols[ra:]
}

// stepEqui probes the span of inner rows ahead against the resident outer
// block's index. The charges are per block pair as ever — the inner block's
// read, then one hash per inner tuple — but counted as the probe crosses
// into each block and settled when it pauses or runs out of span; the
// bucket-bounds gather ran once over the whole span.
func (o *BNLJoin) stepEqui() error {
	xb, yb := o.ob.cols, o.yb
	nx, ny := o.ob.n, int64(len(yb[0]))
	max := o.c.batchRows()
	xout, yout := o.outCols()
	ents, hbuf, ykeys := o.js.idx.ents, o.js.hbuf, yb[o.EquiKeys[1]]
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
	if o.js != nil {
		o.c.giveScratch(o.js)
		o.js = nil
	}
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
	// Pass 1 reads the input in place, a streamed one once materialized.
	in, err := rescannable(o.In, c)
	if err != nil {
		return err
	}
	src, n := in.sp, records(in.sp)
	o.arity = in.ar
	if n == 0 {
		o.done = true
		return nil
	}
	width := int64(o.arity) * 4

	parts := o.sections(n, width)
	bounds := sectionBounds(n, parts)
	outs := make([]sorted, parts)
	err = runParts(c, parts, func(i int, pc *Ctx) (err error) {
		outs[i], err = o.sortRange(pc, src, bounds[i][0], bounds[i][1], parts > 1)
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
		if err := o.fill(c, cu, int64(len(o.finalCs))); err != nil {
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
	span := max(4*int64(o.Way)*max(o.Bin, 1), 4096)
	p := min(max(n/span, 1), maxPartitions)
	if b := o.c.Pool.Budget(); b > 0 && p > 1 {
		// The final merge pins one cursor frame per section (plus the
		// consumer's) from the driver's budget.
		p = max(min(p, b/width-1), 1)
	}
	return int(p)
}

// sorted is a section sortRange sorted: the spill and range holding its
// remaining runs, the run length and the number of merge passes.
type sorted struct {
	sp             *storage.Spill
	lo, hi, runLen int64
	passes         int
}

// sortRange sorts section src[lo, hi). A lone
// section (full == false) stops one pass early — at most Way runs remain
// and the final merge streams them, exactly the pre-parallel behaviour. A
// parallel section (full == true) sorts to a single run: it costs one more
// (parallel) pass, and keeps the sequential final merge a parts-way fan-in
// instead of a parts·Way-way one, which would otherwise dominate the run.
// The ping-pong scratch spills are task-local; the loser of the last pass
// is freed eagerly.
func (o *ExtSort) sortRange(c *Ctx, src *storage.Spill, lo, hi int64, full bool) (sorted, error) {
	span := hi - lo
	runLen := int64(1)
	if span <= 1 {
		return sorted{src, lo, hi, runLen, 0}, nil
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
					return sorted{}, err
				}
			}
			dst = b
		default:
			if a == nil {
				if a, err = c.newSpill(width, span); err != nil {
					return sorted{}, err
				}
			}
			dst = a
		}
		dst.Reset()
		if err := o.mergePass(c, cur, curLo, curHi, dst, runLen); err != nil {
			return sorted{}, err
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
	return sorted{cur, curLo, curHi, runLen, passes}, nil
}

// fill tops up a cursor's frame from its source spill, sharing the pool
// budget with its sibling cursors plus one output buffer.
func (o *ExtSort) fill(c *Ctx, cu *sortCursor, siblings int64) error {
	a := int64(o.arity)
	if cu.pos < cu.n || cu.next >= cu.end {
		return nil
	}
	take := o.Bin
	if take <= 0 {
		take = 1
	}
	take = c.share(take, siblings+1, a*4) // cost's sortbufs; open cause ROADMAP.md 1(h)
	if cu.frame == nil {
		f, err := c.Pool.PinUpTo(take, a*4)
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
	bout = c.share(bout, int64(o.Way)+1, a*4) // cost's sortbufs; open cause ROADMAP.md 1(h)
	out, err := c.Pool.PinUpTo(bout, a*4)
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
			if err := o.fill(c, cu, int64(o.Way)); err != nil {
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
			if err := o.fill(c, cu, int64(o.Way)); err != nil {
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
	return o.fill(o.c, cu, int64(len(o.finalCs)))
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

// UnfoldR executes a generic unfoldR over streamed inputs while they stream
// through RAM windows of K tuples. This covers the set/multiset unions and
// differences, zips (column-store reads) and duplicate removal of the
// evaluation. A lambda step is the decision tree parseUnfoldStep compiled
// from the optimized OCAL program, staged at the first refill into nested
// closures that test, emit and update the windows' column views in place;
// the library steps (mrg, funcPow[k](mrg), z[n]) run as column kernels. Each
// kind takes every step between two refills in one call, and none charges:
// the operator owns the refills, the one cpu charge per step (counted, and
// settled before the strand's next other charge) and the pause points, so a
// step's shape or kind cannot move a ledger. The step threads state from
// element to element, so the operator is inherently sequential; its inputs
// may still be parallel subtrees.
type UnfoldR struct {
	Ins []Input
	K   int64 // window size (tuples) per input
	// StateArity is the arity of the step's state tuple; when larger than
	// len(Ins), the extra leading components start as empty lists (scratch
	// state such as dup-removal's last-seen marker).
	StateArity int

	kind stepKind
	tree *stepNode // a lambda step's decision tree
	run  stepFn    // … staged (nil until the first refill)

	c       *Ctx
	readers []blockReader
	spans   []unfoldSpan // per reader: what is ahead of its window
	wins    []stepWin    // scratch components first, then one per reader
	x       kenv         // the evaluation state of the step's scalars
	scratch int
	steps   int64 // steps taken whose cpu charge is not settled yet
	ended   int   // readers at the end of their stream
	em      emitter
	done    bool
}

// unfoldSpan is the part of a reader's last span its window has not reached:
// ahead rows, in blocks of kk; eof is set once the reader has no more.
type unfoldSpan struct {
	kk, ahead int64
	eof       bool
}

func (o *UnfoldR) Open(c *Ctx) error {
	o.c = c
	n := o.StateArity
	if n < len(o.Ins) {
		n = len(o.Ins)
	}
	o.scratch = n - len(o.Ins)
	o.wins = make([]stepWin, n)
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
		if w.rows() > 1 || sp.eof {
			continue
		}
		o.settle()
		if sp.ahead == 0 {
			if !w.held && w.pos < w.n {
				// The reader's next call ends the view: the remaining row
				// moves to the front.
				w.front, w.held, w.pos = w.appendRow(w.front[:0], 0), true, w.n
			}
			// cost's mergebuf per input: a pool below the plan's RAM splits evenly.
			span, kk, err := r.span(o.c.share(k, int64(len(o.readers)), int64(r.arity())*4))
			if err != nil {
				return err
			}
			if span == nil {
				sp.eof, o.ended = true, o.ended+1
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

// live reports whether some window holds a row.
func (o *UnfoldR) live() bool {
	for i := range o.wins {
		if o.wins[i].rows() > 0 {
			return true
		}
	}
	return false
}

// due reports whether the next refill tops up window i.
func (o *UnfoldR) due(i int) bool {
	return i >= o.scratch && o.wins[i].rows() <= 1 && !o.spans[i-o.scratch].eof
}

// lambda takes steps of a lambda step until a window is due a refill, every
// window is empty or the emitter holds max rows, staging the step at the
// first call: the first refill fixed the windows' widths.
func (o *UnfoldR) lambda(max int64) error {
	if err := o.refillAll(); err != nil {
		return err
	}
	if o.run == nil {
		o.run = o.tree.stageStep(o, make([]int, len(o.wins)))
	}
	for {
		// While no reader has ended, a refill or a step that leaves no
		// window due leaves some window a row.
		if o.done = (o.ended > 0 || len(o.readers) == 0) && !o.live(); o.done {
			return nil
		}
		if err := o.run(); err != nil || o.em.rows() >= max {
			return err
		}
		for i := range o.spans {
			if o.due(o.scratch + i) {
				return nil
			}
		}
	}
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
		var err error
		switch o.kind {
		case mergeStep:
			err = o.merge(max - o.em.rows())
		case zipStep:
			err = o.zip(max - o.em.rows())
		default:
			err = o.lambda(max)
		}
		if err != nil {
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
	if err := o.kern.initErr; err != nil {
		return err
	}
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
