package exec

import (
	"context"
	"fmt"

	"ocas/internal/ocal"
	"ocas/internal/storage"
)

// LowerOpts configures lowering.
type LowerOpts struct {
	Sim     *storage.Sim
	Inputs  map[string]*Table
	Params  map[string]int64 // optimizer-chosen parameter values
	Scratch *storage.Device  // device for partitions / sort runs / spills
	Sink    *Sink            // the program's root: its output (Out nil = CPU-consumed)
	// RAMBytes is the RAM node size, used to size partition write buffers.
	RAMBytes int64
	// PoolBytes bounds the buffer pool; 0 defaults to RAMBytes, and a
	// negative value means unlimited.
	PoolBytes int64
	// BatchRows is the operator exchange batch size (0 = DefaultBatchRows):
	// how many rows travel per Next call, and so how often the sink's writes
	// interleave with the operators' reads. Results never depend on it; the
	// initiations of an output device that also holds an input do (see
	// plan.ExecOptions.BatchRows).
	BatchRows int64
	// ExecWorkers bounds how many partition tasks of the morsel-driven
	// parallel sections run concurrently (<= 1: inline). Partition degrees
	// are decided by the plan, never by this knob, so the output digest and
	// every device charge are identical for every worker count; only
	// wall-clock time changes.
	ExecWorkers int
	// Context, when non-nil, cancels the run between batches.
	Context context.Context
	// Explain wraps every lowered operator with EXPLAIN ANALYZE
	// instrumentation (see ExplainNode). Off (the default), lowering emits
	// the bare operators and execution carries zero instrumentation cost.
	Explain bool
}

// Program is an executable operator tree under its output sink, which is
// the root: Run drives the sink to the end of the stream, and the sink
// writes every batch the tree produces. A scalar program (an aggregation)
// leaves its value in Result instead.
type Program struct {
	Root Operator
	// Scalar reports that the program computes a value, not a row stream.
	Scalar bool
	// Result is the scalar result after Run.
	Result ocal.Value

	c       *Ctx
	fold    *Fold // the tree's root when the program is scalar
	explain *ExplainNode
}

// ExplainTree returns the run's EXPLAIN ANALYZE tree (nil unless lowered
// with LowerOpts.Explain). Counters are complete once Run returned.
func (p *Program) ExplainTree() *ExplainNode { return p.explain }

// Pool exposes the run's buffer pool (for stats after Run).
func (p *Program) Pool() *storage.BufferPool { return p.c.Pool }

// Workers reports the effective executor worker count of the run.
func (p *Program) Workers() int { return p.c.workers() }

// WorkerLedgers reports the per-worker-lane charge aggregates of the run
// (empty for a program assembled by hand rather than lowered).
func (p *Program) WorkerLedgers() []WorkerLedger {
	if p.c.shared == nil {
		return nil
	}
	p.c.shared.mu.Lock()
	defer p.c.shared.mu.Unlock()
	out := make([]WorkerLedger, len(p.c.shared.lanes))
	copy(out, p.c.shared.lanes)
	return out
}

// Run executes the program to completion. Whatever the outcome — success,
// error (a device too full for a spill or the output among them) or
// cancellation — the run's scratch spills are freed, so a cancelled request
// releases its device space.
func (p *Program) Run() error {
	defer p.c.freeSpills()
	err := p.drain()
	if cerr := p.Root.Close(); err == nil {
		err = cerr
	}
	if err == nil && p.fold != nil {
		p.Result = p.fold.Final
	}
	return err
}

// drain opens the root and pulls it to the end of the stream.
func (p *Program) drain() error {
	if err := p.Root.Open(p.c); err != nil {
		return err
	}
	var b Batch
	for {
		if err := p.c.err(); err != nil {
			return err
		}
		if ok, err := p.Root.Next(&b); !ok || err != nil {
			return err
		}
	}
}

// Lower translates an optimized OCAL program into an executable operator
// tree. Unlike the pre-operator executor, which only accepted whole
// programs matching one of five hand-written shapes, lowering is recursive
// and compositional: every operator input may itself be a lowered
// subexpression, piped through the batch protocol. Base-table inputs stay
// fused into their consuming operator (direct blocked device reads at the
// tuned block size), so the single-shape programs the synthesizer emits
// charge exactly what the monolithic plans charged. The tree's root feeds
// o.Sink, which becomes the program's root.
func Lower(prog ocal.Expr, o LowerOpts) (*Program, error) {
	l := &lowerer{o: o}
	root, err := l.lower(prog)
	if err != nil {
		return nil, err
	}
	o.Sink.in = root
	budget := o.PoolBytes
	if budget == 0 {
		budget = o.RAMBytes
	}
	p := &Program{Root: l.wrap(o.Sink, prog), c: &Ctx{
		Sim:       o.Sim,
		Pool:      storage.NewBufferPool(budget),
		Scratch:   o.Scratch,
		BatchRows: o.BatchRows,
		Workers:   o.ExecWorkers,
		Context:   o.Context,
		shared:    newShared(o.ExecWorkers),
	}}
	if f, ok := unwrapOp(root).(*Fold); ok {
		p.Scalar, p.fold = true, f
	}
	if o.Explain {
		p.explain = buildExplainTree(p.Root)
	}
	return p, nil
}

// lowerer translates expressions to operators. It never partitions: the
// degrees of the parallel sections come only from plan parameters, inside
// the operators that know their semantics (hash-join buckets, sort
// sections, exchange morsels).
type lowerer struct {
	o LowerOpts
	// ordered marks that the expression being lowered feeds an
	// order-sensitive consumer (a fold threads its accumulator through the
	// rows, a streaming merge requires sorted streams), possibly through
	// order-preserving operators like projections. A parallel hash join
	// lowered under this flag delivers its buckets in order, so the
	// consumer's result is identical for every worker count. Consumers
	// that treat their input as a bag (joins, exchanges, sorts) clear it.
	ordered bool
}

// withOrdered lowers an input subexpression under the given orderedness.
func (l *lowerer) withOrdered(ordered bool, f func() (Input, error)) (Input, error) {
	save := l.ordered
	l.ordered = ordered
	in, err := f()
	l.ordered = save
	return in, err
}

// lower translates one expression into an operator, wrapping it with
// explain instrumentation when requested.
func (l *lowerer) lower(prog ocal.Expr) (Operator, error) {
	op, err := l.lowerExpr(prog)
	if err != nil {
		return nil, err
	}
	return l.wrap(op, prog), nil
}

// lowerExpr is the dispatch body of lower.
func (l *lowerer) lowerExpr(prog ocal.Expr) (Operator, error) {
	// GRACE hash join: flatMap(join)(zip(partition(A), partition(B))).
	if op, err, ok := l.lowerHashJoin(prog); ok {
		return op, err
	}
	// External merge sort.
	if op, err, ok := l.lowerExtSort(prog); ok {
		return op, err
	}
	// Streaming merges (set ops, zips, dup removal).
	if op, err, ok := l.lowerUnfold(prog); ok {
		return op, err
	}
	// Aggregations.
	if op, err, ok := l.lowerFold(prog); ok {
		return op, err
	}
	// Loop nests: scans, filters/projections, (tiled) nested-loop joins.
	if op, err, ok := l.lowerLoops(prog); ok {
		return op, err
	}
	// A bare input: the identity scan.
	if v, ok := prog.(ocal.Var); ok {
		if t, isIn := l.o.Inputs[v.Name]; isIn {
			return &Scan{T: t}, nil
		}
	}
	return nil, fmt.Errorf("exec: cannot lower %s", ocal.String(prog))
}

// lowerInput lowers a source subexpression into an operator input: input
// tables fuse, anything else streams.
func (l *lowerer) lowerInput(e ocal.Expr) (Input, error) {
	if v, ok := e.(ocal.Var); ok {
		if t, isIn := l.o.Inputs[v.Name]; isIn {
			return TableInput(t), nil
		}
		return Input{}, fmt.Errorf("exec: unknown input %q", v.Name)
	}
	op, err := l.lower(e)
	if err != nil {
		return Input{}, err
	}
	return OpInput(op), nil
}

// srcInfo describes one distinct data source of a loop nest.
type srcInfo struct {
	in    Input
	k     int64   // block size of the loop that introduced the source
	elem  string  // innermost variable bound to this source's elements
	block string  // variable bound by the source-introducing loop
	tiles []int64 // block sizes of inner re-blocking loops (cache tiling)
}

// project builds one projection of body over in. A body outside the scan
// grammar is an error.
func project(in Input, k int64, body ocal.Expr, elem string) (*Project, error) {
	tree, err := parseScanBody(body, kvars{elem: elem})
	if err != nil {
		return nil, fmt.Errorf("exec: cannot lower scan body: %v\n%s", err, bodyGrammar)
	}
	return &Project{In: in, K: k, body: tree}, nil
}

// lowerLoops recognizes a (possibly blocked and tiled) nested-loops join
// over two sources, or a single-source blocked scan with projection. A
// source is an input table (fused) or any lowerable subexpression
// (streamed).
func (l *lowerer) lowerLoops(prog ocal.Expr) (Operator, error, bool) {
	var srcs []*srcInfo
	owner := map[string]int{} // loop variable -> source index
	e := prog
	for {
		f, ok := e.(ocal.For)
		if !ok {
			break
		}
		k := f.K.Bind(l.o.Params)
		switch s := f.Src.(type) {
		case ocal.Var:
			if idx, bound := owner[s.Name]; bound {
				// Re-blocking / element recovery of an enclosing block.
				owner[f.X] = idx
				srcs[idx].tiles = append(srcs[idx].tiles, k)
				srcs[idx].elem = f.X
			} else if t, isIn := l.o.Inputs[s.Name]; isIn {
				srcs = append(srcs, &srcInfo{in: TableInput(t), k: k, elem: f.X, block: f.X})
				owner[f.X] = len(srcs) - 1
			} else {
				return nil, fmt.Errorf("exec: loop source %q is neither input nor block", s.Name), true
			}
		default:
			// A loop nest consumes its sources as bags (a single-source
			// projection preserves order, so it keeps the current flag; a
			// join over two sources materializes/rescans the inner anyway).
			in, err := l.lowerInput(f.Src)
			if err != nil {
				return nil, err, true
			}
			srcs = append(srcs, &srcInfo{in: in, k: k, elem: f.X, block: f.X})
			owner[f.X] = len(srcs) - 1
		}
		e = f.Body
	}
	if len(srcs) == 0 {
		return nil, nil, false
	}

	// Identity scan: for (xB [k] <- E) xB concatenates the blocks back.
	if v, ok := e.(ocal.Var); ok && len(srcs) == 1 && v.Name == srcs[0].block && srcs[0].elem == srcs[0].block {
		s := srcs[0]
		if s.in.table != nil {
			return &Scan{T: s.in.table, K: s.k}, nil, true
		}
		return s.in.op, nil, true
	}

	switch len(srcs) {
	case 1:
		s := srcs[0]
		op, err := project(s.in, s.k, e, s.elem)
		return op, err, true
	case 2:
		x, y := srcs[0], srcs[1]
		keys, swapOut, err := compileJoinBody(e, x.elem, y.elem)
		if err != nil {
			return nil, err, true
		}
		j := &BNLJoin{L: x.in, R: y.in, K1: x.k, K2: y.k, EquiKeys: keys, SwapOutput: swapOut}
		// Cache tiling: an inner re-blocking of each source's block.
		if len(x.tiles) > 1 {
			j.TileX = x.tiles[0]
		}
		if len(y.tiles) > 1 {
			j.TileY = y.tiles[0]
		}
		return j, nil, true
	}
	return nil, fmt.Errorf("exec: unsupported loop nest over %d inputs", len(srcs)), true
}

// compileJoinBody extracts the join condition from the innermost body:
// if cond then [<x,y>] else []  (equi-join: the key attributes) or [<x,y>]
// (product: nil keys). swapOut reports that the body tuple leads with the
// *inner* loop's element (the swap-iter derivations iterate S outside R but
// still build <x, y>), so the operator must emit inner-first rows.
func compileJoinBody(e ocal.Expr, xv, yv string) (keys *[2]int, swapOut bool, err error) {
	switch t := e.(type) {
	case ocal.Single:
		return nil, leadsWithInner(t, yv), nil
	case ocal.If:
		if _, ok := t.Else.(ocal.Empty); !ok {
			return nil, false, fmt.Errorf("exec: join else-branch must be []")
		}
		swapOut = false
		if s, ok := t.Then.(ocal.Single); ok {
			swapOut = leadsWithInner(s, yv)
		}
		p, ok := t.Cond.(ocal.Prim)
		if !ok || p.Op != ocal.OpEq || len(p.Args) != 2 {
			if b, ok2 := t.Cond.(ocal.BoolLit); ok2 && b.V {
				return nil, swapOut, nil
			}
			return nil, false, fmt.Errorf("exec: unsupported join condition %s", ocal.String(t.Cond))
		}
		i, errI := projIndex(p.Args[0], xv)
		j, errJ := projIndex(p.Args[1], yv)
		if errI == nil && errJ == nil {
			return &[2]int{i, j}, swapOut, nil
		}
		// Reversed orientation.
		j2, errJ2 := projIndex(p.Args[0], yv)
		i2, errI2 := projIndex(p.Args[1], xv)
		if errI2 == nil && errJ2 == nil {
			return &[2]int{i2, j2}, swapOut, nil
		}
		return nil, false, fmt.Errorf("exec: unsupported join condition %s", ocal.String(t.Cond))
	}
	return nil, false, fmt.Errorf("exec: unsupported join body %s", ocal.String(e))
}

// leadsWithInner reports whether the emitted tuple's first component comes
// from the inner loop's element yv.
func leadsWithInner(s ocal.Single, yv string) bool {
	tup, ok := s.E.(ocal.Tup)
	if !ok || len(tup.Elems) == 0 {
		return false
	}
	name, ok := baseVar(tup.Elems[0])
	return ok && name == yv
}

// baseVar resolves the variable at the root of a projection chain.
func baseVar(e ocal.Expr) (string, bool) {
	for {
		switch t := e.(type) {
		case ocal.Var:
			return t.Name, true
		case ocal.Proj:
			e = t.E
		default:
			return "", false
		}
	}
}

func projIndex(e ocal.Expr, v string) (int, error) {
	p, ok := e.(ocal.Proj)
	if !ok {
		return 0, fmt.Errorf("not a projection")
	}
	vr, ok := p.E.(ocal.Var)
	if !ok || vr.Name != v {
		return 0, fmt.Errorf("projection of wrong variable")
	}
	return p.I - 1, nil
}

func (l *lowerer) lowerHashJoin(prog ocal.Expr) (Operator, error, bool) {
	app, ok := prog.(ocal.App)
	if !ok {
		return nil, nil, false
	}
	fm, ok := app.Fn.(ocal.FlatMap)
	if !ok {
		return nil, nil, false
	}
	zipApp, ok := app.Arg.(ocal.App)
	if !ok {
		return nil, nil, false
	}
	if _, ok := zipApp.Fn.(ocal.ZipLists); !ok {
		return nil, nil, false
	}
	tupArg, ok := zipApp.Arg.(ocal.Tup)
	if !ok || len(tupArg.Elems) != 2 {
		return nil, fmt.Errorf("exec: hash join needs two partitioned inputs"), true
	}
	ordered := l.ordered
	var sides [2]Input
	var buckets int64
	for i, el := range tupArg.Elems {
		pa, ok := el.(ocal.App)
		if !ok {
			return nil, fmt.Errorf("exec: expected partition application"), true
		}
		pf, ok := pa.Fn.(ocal.PartitionF)
		if !ok {
			return nil, fmt.Errorf("exec: expected partition"), true
		}
		// The partition pass hashes rows to buckets: a bag consumer.
		in, err := l.withOrdered(false, func() (Input, error) { return l.lowerInput(pa.Arg) })
		if err != nil {
			return nil, err, true
		}
		sides[i] = in
		buckets = pf.S.Bind(l.o.Params)
	}
	lam, ok := fm.Fn.(ocal.Lam)
	if !ok || len(lam.Params) != 2 {
		return nil, fmt.Errorf("exec: hash join flatMap needs a binary lambda"), true
	}
	// The inner body is a join over the bucket pair: walk its loop nest with
	// the buckets standing in as inputs.
	bucketInputs := map[string]bool{lam.Params[0]: true, lam.Params[1]: true}
	owner := map[string]string{}
	elemVar := map[string]string{}
	var order []string
	kOf := map[string]int64{}
	e := lam.Body
	for {
		f, ok := e.(ocal.For)
		if !ok {
			break
		}
		src, ok := f.Src.(ocal.Var)
		if !ok {
			return nil, fmt.Errorf("exec: hash join inner loop over non-variable"), true
		}
		if bucketInputs[src.Name] {
			owner[f.X] = src.Name
			order = append(order, src.Name)
			kOf[src.Name] = f.K.Bind(l.o.Params)
		} else if in, ok := owner[src.Name]; ok {
			owner[f.X] = in
		}
		if in, ok := owner[f.X]; ok {
			elemVar[in] = f.X
		}
		e = f.Body
	}
	if len(order) != 2 {
		return nil, fmt.Errorf("exec: hash join inner body is not a two-relation join"), true
	}
	keys, swapOut, err := compileJoinBody(e, elemVar[order[0]], elemVar[order[1]])
	if err != nil {
		return nil, err, true
	}
	kj := kOf[order[0]]
	if k2 := kOf[order[1]]; k2 > kj {
		kj = k2
	}
	if kj <= 0 {
		kj = 1
	}
	left, right := sides[0], sides[1]
	if order[0] == lam.Params[1] {
		left, right = right, left
	}
	bufW := int64(64)
	if l.o.RAMBytes > 0 {
		w := int64(2) * 4
		if left.table != nil {
			w = int64(left.table.Arity) * 4
		}
		bufW = l.o.RAMBytes / (buckets + 1) / w
		if bufW < 1 {
			bufW = 1
		}
	}
	// Key attributes: the conservative hash-part rule only fires on
	// first-attribute equi-joins, so 0/0.
	return &HashJoin{
		L: left, R: right,
		Buckets: buckets,
		KRead:   kj, BufW: bufW, KJoin: kj,
		KeyL: 0, KeyR: 0, EquiKeys: keys, SwapOutput: swapOut,
		OrderedOutput: ordered,
	}, nil, true
}

func (l *lowerer) lowerExtSort(prog ocal.Expr) (Operator, error, bool) {
	app, ok := prog.(ocal.App)
	if !ok {
		return nil, nil, false
	}
	tf, ok := app.Fn.(ocal.TreeFold)
	if !ok {
		return nil, nil, false
	}
	unf, ok := tf.Fn.(ocal.UnfoldR)
	if !ok {
		return nil, fmt.Errorf("exec: treeFold without merge step"), true
	}
	if _, ok := unf.Fn.(ocal.FuncPow); !ok {
		if _, ok := unf.Fn.(ocal.Mrg); !ok {
			return nil, fmt.Errorf("exec: treeFold without merge step"), true
		}
	}
	arg := app.Arg
	// A blocked identity scan around the input (for (xB [k] <- E) xB) only
	// affects how the first pass reads; the sort operator blocks reads
	// itself via Bin.
	if f, ok := arg.(ocal.For); ok {
		if body, okB := f.Body.(ocal.Var); okB && body.Name == f.X {
			arg = f.Src
		}
	}
	// A sort ignores its input order: lower the source as a bag.
	in, err := l.withOrdered(false, func() (Input, error) { return l.lowerInput(arg) })
	if err != nil {
		return nil, err, true
	}
	way := tf.K.Bind(l.o.Params)
	if way < 2 {
		way = 2
	}
	return &ExtSort{
		In: in, Way: int(way),
		Bin: unf.K.Bind(l.o.Params), Bout: tf.OutK.Bind(l.o.Params),
	}, nil, true
}

func (l *lowerer) lowerUnfold(prog ocal.Expr) (Operator, error, bool) {
	app, ok := prog.(ocal.App)
	if !ok {
		return nil, nil, false
	}
	unf, ok := app.Fn.(ocal.UnfoldR)
	if !ok {
		return nil, nil, false
	}
	// unfoldR with a merge step over a blocked scan is handled by the sort
	// lowering; a bare unfoldR application takes a tuple of sources. A
	// one-tuple prints as its bare element (<R> and R are the same
	// canonical form), so a non-tuple argument is a single source.
	elems := []ocal.Expr{app.Arg}
	if tupArg, ok := app.Arg.(ocal.Tup); ok {
		elems = tupArg.Elems
	}
	var ins []Input
	scratch := 0
	for _, el := range elems {
		if _, isEmpty := el.(ocal.Empty); isEmpty {
			if len(ins) > 0 {
				return nil, fmt.Errorf("exec: scratch state must precede inputs"), true
			}
			scratch++
			continue
		}
		// The step threads state element by element: input order matters.
		in, err := l.withOrdered(true, func() (Input, error) { return l.lowerInput(el) })
		if err != nil {
			return nil, err, true
		}
		ins = append(ins, in)
	}
	step, err := parseUnfoldStep(unf.Fn, scratch+len(ins))
	if err != nil {
		return nil, err, true
	}
	return &UnfoldR{
		Ins: ins, K: unf.K.Bind(l.o.Params),
		tree: step, StateArity: scratch + len(ins),
	}, nil, true
}

func (l *lowerer) lowerFold(prog ocal.Expr) (Operator, error, bool) {
	// Optional final lambda around the fold (e.g. avg's division), applied
	// to the accumulator CPU-side.
	var final *ocal.Lam
	if app, ok := prog.(ocal.App); ok {
		if lam, isLam := app.Fn.(ocal.Lam); isLam && len(lam.Params) == 1 {
			if inner, ok := app.Arg.(ocal.App); ok {
				if _, isFold := inner.Fn.(ocal.FoldL); isFold {
					final, prog = &lam, inner
				}
			}
		}
	}
	app, ok := prog.(ocal.App)
	if !ok {
		return nil, nil, false
	}
	fl, ok := app.Fn.(ocal.FoldL)
	if !ok {
		return nil, nil, false
	}
	// A fold threads its accumulator row by row: its source must deliver
	// the single-worker order at every worker count.
	var in Input
	var k int64 = 1
	switch src := app.Arg.(type) {
	case ocal.For:
		// Blocked identity scan: for (xB [k] <- E) xB.
		if body, okB := src.Body.(ocal.Var); okB && body.Name == src.X {
			inner, err := l.withOrdered(true, func() (Input, error) { return l.lowerInput(src.Src) })
			if err != nil {
				return nil, err, true
			}
			in = inner
			k = src.K.Bind(l.o.Params)
		} else {
			inner, err := l.withOrdered(true, func() (Input, error) {
				op, err := l.lower(src)
				if err != nil {
					return Input{}, err
				}
				return OpInput(op), nil
			})
			if err != nil {
				return nil, fmt.Errorf("exec: unsupported fold source %s: %w", ocal.String(src), err), true
			}
			in = inner
		}
	default:
		inner, err := l.withOrdered(true, func() (Input, error) { return l.lowerInput(app.Arg) })
		if err != nil {
			return nil, fmt.Errorf("exec: unsupported fold source %s", ocal.String(app.Arg)), true
		}
		in = inner
	}
	kern, err := parseFoldKernel(fl.Init, fl.Fn, final)
	if err != nil {
		return nil, fmt.Errorf("exec: cannot lower fold: %v\n%s", err, bodyGrammar), true
	}
	return &Fold{In: in, K: k, kern: kern}, nil, true
}
