package exec

import (
	"context"
	"fmt"
	"maps"
	"slices"

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
	// RAMBytes is the RAM node size: the pool's default budget (see Exchange).
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
	// ExecWorkers overrides how many partition tasks of the morsel-driven
	// parallel sections run concurrently (0: Lanes(); 1: one at a time), as
	// plan.ExecOptions.ExecWorkers sets it. Partition degrees are decided
	// by the plan, never by the lane count, so the output digest and every
	// device charge are identical for every count; only wall-clock changes.
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
// tree. Lowering is recursive and compositional, one construct at a time:
// every operator input may itself be a lowered subexpression, piped through
// the batch protocol. Base-table inputs stay fused into their consuming
// operator (direct blocked device reads at the tuned block size), so the
// single-shape programs the synthesizer emits charge exactly what the
// monolithic plans charged. The tree's root feeds o.Sink, which becomes the
// program's root.
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
		ram:       o.RAMBytes,
		shared:    &sharedState{},
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
// the operators that know their semantics (partition degrees, sort
// sections).
type lowerer struct {
	o LowerOpts
	// ordered marks that the expression being lowered feeds an
	// order-sensitive consumer (a fold threads its accumulator through the
	// rows, a streaming merge requires sorted streams), possibly through
	// order-preserving operators like projections. A partitioned flatMap
	// lowered under this flag delivers its parts in order, so the
	// consumer's result is identical for every worker count. Consumers
	// that treat their input as a bag (joins, exchanges, sorts) clear it.
	ordered bool
	// parts binds the parameters of the flatMap lambdas being lowered to
	// exchange parts. It is non-nil inside a flatMap body, whose per-part
	// instances are not instrumented (see instr).
	parts map[string]Input
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
	// flatMap over partitioned inputs: a GRACE hash join when its body
	// joins the parts.
	if op, err, ok := l.lowerFlatMap(prog); ok {
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
		if in, err := l.lowerInput(v); err == nil {
			return &Scan{In: in}, nil
		}
	}
	return nil, fmt.Errorf("exec: cannot lower %s", ocal.String(prog))
}

// lowerInput lowers a source subexpression into an operator input: input
// tables and exchange parts fuse, anything else streams.
func (l *lowerer) lowerInput(e ocal.Expr) (Input, error) {
	if v, ok := e.(ocal.Var); ok {
		if in, isPart := l.parts[v.Name]; isPart {
			return in, nil
		}
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
	tiles []int64 // block sizes of inner re-blocking loops (cache tiling)
}

// walkNest reads the (possibly blocked and tiled) For nest at e down to
// its innermost body. A loop over a variable an enclosing loop bound
// re-blocks that loop's source; any other loop introduces a source, which
// lowerInput resolves to an input.
func (l *lowerer) walkNest(e ocal.Expr) ([]*srcInfo, ocal.Expr, error) {
	var srcs []*srcInfo
	owner := map[string]*srcInfo{} // loop variable -> its source
	for {
		f, ok := e.(ocal.For)
		if !ok {
			return srcs, e, nil
		}
		k := f.K.Bind(l.o.Params)
		s := owner[varName(f.Src)]
		if s != nil {
			s.tiles = append(s.tiles, k)
			s.elem = f.X
		} else {
			in, err := l.lowerInput(f.Src)
			if err != nil {
				return nil, nil, err
			}
			s = &srcInfo{in: in, k: k, elem: f.X}
			srcs = append(srcs, s)
		}
		owner[f.X] = s
		e = f.Body
	}
}

// varName is e's name when e is a variable, else "".
func varName(e ocal.Expr) string {
	v, _ := e.(ocal.Var)
	return v.Name
}

// blockScan matches the blocked identity scan for (xB [k] <- E) xB, which
// concatenates E's blocks back.
func blockScan(e ocal.Expr) (ocal.For, bool) {
	f, ok := e.(ocal.For)
	if !ok {
		return f, false
	}
	v, ok := f.Body.(ocal.Var)
	return f, ok && v.Name == f.X
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
	if _, ok := prog.(ocal.For); !ok {
		return nil, nil, false
	}
	if f, ok := blockScan(prog); ok {
		in, err := l.lowerInput(f.Src)
		if err != nil {
			return nil, err, true
		}
		if in.op == nil {
			return &Scan{In: in, K: f.K.Bind(l.o.Params)}, nil, true
		}
		return in.op, nil, true
	}
	// A loop nest consumes its sources as bags (a single-source projection
	// preserves order, so it keeps the current flag; a join over two sources
	// materializes/rescans the inner anyway).
	srcs, e, err := l.walkNest(prog)
	if err != nil {
		return nil, err, true
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

// lowerFlatMap lowers flatMap(λ) over partitioned inputs to a Gather whose
// part i is λ's body, lowered with λ's parameters bound to part i of each
// input's exchange. The exchanges run in the order the body's loops first
// read them (the outer loop's first), at the largest block such a loop
// reads.
func (l *lowerer) lowerFlatMap(prog ocal.Expr) (Operator, error, bool) {
	app, ok := prog.(ocal.App)
	if !ok {
		return nil, nil, false
	}
	fm, ok := app.Fn.(ocal.FlatMap)
	if !ok {
		return nil, nil, false
	}
	xs, err := l.lowerZip(app.Arg)
	if err != nil {
		return nil, err, true
	}
	lam, ok := fm.Fn.(ocal.Lam)
	if !ok || len(lam.Params) != len(xs) {
		return nil, fmt.Errorf("exec: flatMap over %d partitioned inputs needs a lambda of %d parameters", len(xs), len(xs)), true
	}
	order, k := l.partReads(lam)
	g := &Gather{Parts: make([]Operator, xs[0].Parts), Ordered: l.ordered}
	for _, i := range order {
		xs[i].KRead = k
		g.Exchanges = append(g.Exchanges, xs[i])
	}
	outer := l.parts
	defer func() { l.parts = outer }()
	for i := range g.Parts {
		l.parts = map[string]Input{}
		maps.Copy(l.parts, outer)
		for j, p := range lam.Params {
			l.parts[p] = Input{x: xs[j], part: i}
		}
		if g.Parts[i], err = l.lower(lam.Body); err != nil {
			return nil, err, true
		}
		if _, scalar := g.Parts[i].(*Fold); scalar {
			return nil, fmt.Errorf("exec: flatMap body %s is a scalar fold", ocal.String(lam.Body)), true
		}
	}
	return g, nil, true
}

// partReads walks a flatMap body for its loops over λ's parameters: the
// parameter indices in the order such a loop first reads them, then the
// ones no loop reads, and the largest block such a loop reads (at least 1).
// A nested lambda or loop that rebinds a parameter's name hides it.
func (l *lowerer) partReads(lam ocal.Lam) (order []int, k int64) {
	k = 1
	var walk func(e ocal.Expr, hidden []string)
	walk = func(e ocal.Expr, hidden []string) {
		switch t := e.(type) {
		case ocal.Lam:
			hidden = append(slices.Clip(hidden), t.Params...)
		case ocal.For:
			if i := slices.Index(lam.Params, varName(t.Src)); i >= 0 && !slices.Contains(hidden, lam.Params[i]) {
				k = max(k, t.K.Bind(l.o.Params))
				if !slices.Contains(order, i) {
					order = append(order, i)
				}
			}
			walk(t.Src, hidden)
			walk(t.Body, append(slices.Clip(hidden), t.X))
			return
		}
		for _, c := range ocal.Children(e) {
			walk(c, hidden)
		}
	}
	walk(lam.Body, nil)
	for i := range lam.Params {
		if !slices.Contains(order, i) {
			order = append(order, i)
		}
	}
	return order, k
}

// lowerZip lowers a flatMap's argument, zip[n] over n partitioned inputs or
// one partitioned input, to their exchanges, whose parts pair up by number:
// their degrees must agree.
func (l *lowerer) lowerZip(e ocal.Expr) ([]*Exchange, error) {
	elems := []ocal.Expr{e}
	if app, ok := e.(ocal.App); ok {
		if z, ok := app.Fn.(ocal.ZipLists); ok {
			elems = []ocal.Expr{app.Arg}
			if tup, ok := app.Arg.(ocal.Tup); ok {
				elems = tup.Elems
			}
			if len(elems) != z.N {
				return nil, fmt.Errorf("exec: zip[%d] over %d inputs", z.N, len(elems))
			}
		}
	}
	xs := make([]*Exchange, len(elems))
	for i, el := range elems {
		x, err := l.lowerPartition(el)
		if err != nil {
			return nil, err
		}
		if xs[i] = x; x.Parts != xs[0].Parts {
			return nil, fmt.Errorf("exec: zip over partitions of different degrees (%d vs %d)", xs[0].Parts, x.Parts)
		}
	}
	return xs, nil
}

// lowerPartition lowers partition[s](E) to an Exchange of E into s parts.
// The exchange hashes rows to parts: E is lowered as a bag.
func (l *lowerer) lowerPartition(e ocal.Expr) (*Exchange, error) {
	app, _ := e.(ocal.App)
	pf, ok := app.Fn.(ocal.PartitionF)
	if !ok {
		return nil, fmt.Errorf("exec: cannot lower flatMap over %s, which is not partitioned", ocal.String(e))
	}
	in, err := l.withOrdered(false, func() (Input, error) { return l.lowerInput(app.Arg) })
	if err != nil {
		return nil, err
	}
	return &Exchange{In: in, Parts: max(pf.S.Bind(l.o.Params), 1)}, nil
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
	// A blocked identity scan around the input only affects how the first
	// pass reads; the sort operator blocks reads itself via Bin.
	if f, ok := blockScan(arg); ok {
		arg = f.Src
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
	kind, tree, err := parseUnfoldStep(unf.Fn, scratch+len(ins))
	if err != nil {
		return nil, err, true
	}
	return &UnfoldR{
		Ins: ins, K: unf.K.Bind(l.o.Params),
		kind: kind, tree: tree, StateArity: scratch + len(ins),
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
	// the single-worker order at every worker count. A blocked identity scan
	// sets the fold's read block.
	src, k := app.Arg, int64(1)
	if f, ok := blockScan(src); ok {
		src, k = f.Src, f.K.Bind(l.o.Params)
	}
	in, err := l.withOrdered(true, func() (Input, error) { return l.lowerInput(src) })
	if err != nil {
		return nil, fmt.Errorf("exec: unsupported fold source %s: %w", ocal.String(app.Arg), err), true
	}
	kern, err := parseFoldKernel(fl.Init, fl.Fn, final)
	if err != nil {
		return nil, fmt.Errorf("exec: cannot lower fold: %v\n%s", err, bodyGrammar), true
	}
	return &Fold{In: in, K: k, kern: kern}, nil, true
}
