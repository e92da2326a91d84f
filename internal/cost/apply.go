package cost

import (
	"fmt"
	"math"

	"ocas/internal/ocal"
	sym "ocas/internal/symbolic"
)

// estApp dispatches function application costing to the per-definition cost
// plugins ("OCAS contains efficient generator plugins for all definitions in
// Figure 2" — each plugin has a matching cost function here).
func (r *run) estApp(t ocal.App, g *ctx) (AType, locT, error) {
	switch fn := t.Fn.(type) {
	case ocal.Lam:
		return r.applyLam(fn, t.Arg, g)
	case ocal.FlatMap:
		return r.applyFlatMap(fn, t.Arg, g)
	case ocal.FoldL:
		return r.applyFoldL(fn, t.Arg, g)
	case ocal.TreeFold:
		return r.applyTreeFold(fn, t.Arg, g)
	case ocal.UnfoldR:
		return r.applyUnfoldR(fn, t.Arg, g)
	case ocal.PartitionF:
		return r.applyPartition(fn, t.Arg, g)
	case ocal.ZipLists:
		return r.applyZipLists(fn, t.Arg, g)
	case ocal.App:
		// Curried application: cost the inner application first.
		return nil, locT{}, fmt.Errorf("cost: curried applications are not supported: %s", ocal.String(t))
	}
	return nil, locT{}, fmt.Errorf("cost: cannot cost application of %s", ocal.String(t.Fn))
}

// applyLam binds parameters without charging transfers: the body's loops and
// definitions charge for the data they actually pull (the Figure 6 λ rule's
// transfer terms materialize at the consuming constructs, avoiding double
// counting when the argument is a tuple of device-resident relations).
func (r *run) applyLam(fn ocal.Lam, arg ocal.Expr, g *ctx) (AType, locT, error) {
	argAt, argLoc, err := r.est(arg, g)
	if err != nil {
		return nil, locT{}, err
	}
	if len(fn.Params) == 1 {
		return r.est(fn.Body, g.bind(fn.Params[0], binding{at: argAt, loc: argLoc}))
	}
	tup, ok := argAt.(ATuple)
	if !ok || len(tup) != len(fn.Params) {
		return nil, locT{}, fmt.Errorf("cost: lambda expects a %d-tuple, got %s", len(fn.Params), argAt)
	}
	ng := g
	for i, p := range fn.Params {
		ng = ng.bind(p, binding{at: tup[i], loc: argLoc.at(i)})
	}
	return r.est(fn.Body, ng)
}

// applyFlatMap charges an element-granular stream of the source plus the
// body once per element ("the cost of the flatMap construct is the same as
// that of for with k set to 1").
func (r *run) applyFlatMap(fn ocal.FlatMap, arg ocal.Expr, g *ctx) (AType, locT, error) {
	argAt, argLoc, err := r.est(arg, g)
	if err != nil {
		return nil, locT{}, err
	}
	n, err := Card(argAt)
	if err != nil {
		return nil, locT{}, fmt.Errorf("cost: flatMap over non-list: %w", err)
	}
	elem, _ := Elem(argAt)
	xLoc := r.root()
	if src := argLoc.nodeOf(); src != r.root() && src != "" {
		if containsList(elem) {
			// Elements are themselves collections (e.g. hash-partition
			// buckets): they stay on the device and the body's own loops
			// charge for fetching them.
			xLoc = src
		} else {
			xLoc = r.chargeUp(src, Size(r.b, argAt), n)
		}
	}
	lam, ok := fn.Fn.(ocal.Lam)
	if !ok {
		return nil, locT{}, fmt.Errorf("cost: flatMap function must be a lambda, got %s", ocal.String(fn.Fn))
	}
	var bodyAt AType
	err = r.scaled(n, func() error {
		ng := g
		if len(lam.Params) == 1 {
			ng = ng.bind(lam.Params[0], binding{at: elem, loc: leafLoc(xLoc)})
		} else {
			tup, ok := elem.(ATuple)
			if !ok || len(tup) != len(lam.Params) {
				return fmt.Errorf("cost: flatMap lambda arity mismatch on %s", elem)
			}
			for i, p := range lam.Params {
				ng = ng.bind(p, binding{at: tup[i], loc: leafLoc(xLoc)})
			}
		}
		at, _, err := r.est(lam.Body, ng)
		bodyAt = at
		return err
	})
	if err != nil {
		return nil, locT{}, err
	}
	if _, ok := bodyAt.(AList); !ok {
		return nil, locT{}, fmt.Errorf("cost: flatMap body must produce a list")
	}
	return ScaleCard(r.b, bodyAt, n), leafLoc(r.root()), nil
}

// applyFoldL implements the Figure 6 foldL rule. The source is streamed
// element-wise; when the accumulator grows, it shuttles between the root and
// the intermediate device every iteration, with its size growing linearly in
// the iteration index — the closed-form Sum produces the x(x+1)/2 shape of
// the naive insertion sort (Section 7.2).
func (r *run) applyFoldL(fn ocal.FoldL, arg ocal.Expr, g *ctx) (AType, locT, error) {
	rootLoc := leafLoc(r.root())
	argAt, argLoc, err := r.est(arg, g)
	if err != nil {
		return nil, locT{}, err
	}
	n, err := Card(argAt)
	if err != nil {
		return nil, locT{}, fmt.Errorf("cost: foldL over non-list: %w", err)
	}
	elem, _ := Elem(argAt)
	if src := argLoc.nodeOf(); src != r.root() && src != "" {
		r.chargeUp(src, Size(r.b, argAt), n)
	}
	initAt, _, err := r.est(fn.Init, g)
	if err != nil {
		return nil, locT{}, err
	}

	// One symbolic application of the step to (init, elem) yields the
	// per-iteration growth; step-internal charges are scaled by n.
	var stepAt AType
	err = r.scaled(n, func() error {
		at, err := r.applyStep(fn.Fn, ATuple{initAt, elem}, g)
		stepAt = at
		return err
	})
	if err != nil {
		return nil, locT{}, err
	}

	// Result per Figure 5: R(c) + card·(R(step) − R(c)).
	resAt := r.foldResult(initAt, stepAt, n)

	// Accumulator shuttling: only when the accumulator demonstrably grows.
	growB := r.b.Sub(Size(r.b, stepAt), Size(r.b, initAt))
	if !isZeroExpr(growB) {
		mi := r.inter
		if mi != "" && mi != r.root() {
			s0 := Size(r.b, initAt)
			c0 := cardOrZero(initAt)
			gB := growB
			gC := r.b.Sub(cardOrZero(stepAt), c0)
			i := sym.V("_i")
			upBytes := r.b.Sum("_i", n, r.b.Add(s0, r.b.Mul(i, gB)))
			upInits := n // one read initiation per iteration (sequential acc read)
			downBytes := r.b.Sum("_i", n, r.b.Add(s0, r.b.Mul(r.b.Add(i, sym.One), gB)))
			downInits := r.b.Sum("_i", n, r.b.Add(c0, r.b.Mul(r.b.Add(i, sym.One), gC)))
			r.chargePathUp(mi, upBytes, upInits)
			r.chargeDownPath(mi, downBytes, downInits)
		}
	}
	return resAt, rootLoc, nil
}

// chargePathUp charges each edge from node src up to the root.
func (r *run) chargePathUp(src string, bytes, inits sym.Expr) {
	for src != r.root() && src != "" {
		src = r.chargeUp(src, bytes, inits)
	}
}

// applyStep computes the result annotated type of applying a fold step
// function to an argument type, binding everything at the root (transfers
// are modelled by the fold rule itself).
func (r *run) applyStep(fn ocal.Expr, argAt AType, g *ctx) (AType, error) {
	rootLoc := leafLoc(r.root())
	switch f := fn.(type) {
	case ocal.Lam:
		ng := g
		if len(f.Params) == 1 {
			ng = ng.bind(f.Params[0], binding{at: argAt, loc: rootLoc})
		} else {
			tup, ok := argAt.(ATuple)
			if !ok || len(tup) != len(f.Params) {
				return nil, fmt.Errorf("cost: fold step arity mismatch on %s", argAt)
			}
			for i, p := range f.Params {
				ng = ng.bind(p, binding{at: tup[i], loc: rootLoc})
			}
		}
		at, _, err := r.est(f.Body, ng)
		return at, err
	case ocal.UnfoldR:
		// Merging step: output card is the sum of the input cards. A bare
		// list is a collapsed 1-tuple (see applyUnfoldR).
		tup, ok := argAt.(ATuple)
		if !ok {
			if l, isList := argAt.(AList); isList {
				tup = ATuple{l}
			} else {
				return nil, fmt.Errorf("cost: unfoldR step needs a tuple of lists")
			}
		}
		return r.mergeResult(tup, f.Hint)
	}
	return nil, fmt.Errorf("cost: unsupported fold step %s", ocal.String(fn))
}

func (r *run) foldResult(initAt, stepAt AType, n sym.Expr) AType {
	switch s := stepAt.(type) {
	case AList:
		c0 := cardOrZero(initAt)
		growth := r.b.Sub(s.Card, c0)
		return AList{Card: r.b.Add(c0, r.b.Mul(n, growth)), Elem: s.Elem}
	case AConst:
		i0, ok := initAt.(AConst)
		if !ok {
			return stepAt
		}
		return AConst{Size: r.b.Add(i0.Size, r.b.Mul(n, r.b.Sub(s.Size, i0.Size)))}
	case ATuple:
		i0, ok := initAt.(ATuple)
		if !ok || len(i0) != len(s) {
			return stepAt
		}
		out := make(ATuple, len(s))
		for i := range s {
			out[i] = r.foldResult(i0[i], s[i], n)
		}
		return out
	}
	return stepAt
}

func cardOrZero(a AType) sym.Expr {
	if c, err := Card(a); err == nil {
		return c
	}
	return sym.Zero
}

func isZeroExpr(e sym.Expr) bool {
	c, ok := e.(sym.Const)
	return ok && c == 0
}

// mergeResult is the worst-case output of a merge-style unfoldR.
func (r *run) mergeResult(inputs ATuple, hint ocal.CardHint) (AType, error) {
	var cards []sym.Expr
	var elem AType
	for _, in := range inputs {
		l, ok := in.(AList)
		if !ok {
			return nil, fmt.Errorf("cost: unfoldR input is not a list: %s", in)
		}
		cards = append(cards, l.Card)
		if elem == nil {
			elem = l.Elem
		} else {
			elem = MaxT(r.b, elem, l.Elem)
		}
	}
	// A hint overrides the worst case with a programmer-supplied estimate
	// (Section 5.1).
	card := r.b.Add(cards...)
	switch {
	case len(cards) == 0:
	case hint == ocal.HintFirstCard:
		card = cards[0]
	case hint == ocal.HintMaxCards:
		card = r.b.Max(cards...)
	}
	return AList{Card: card, Elem: elem}, nil
}

// containsList reports whether an annotated type has a list component.
func containsList(a AType) bool {
	switch t := a.(type) {
	case AList:
		return true
	case ATuple:
		for _, e := range t {
			if containsList(e) {
				return true
			}
		}
	}
	return false
}

// applyUnfoldR costs a top-level merge (set operations, zips): every input
// list is streamed up in blocks of K, the output is produced at the root.
func (r *run) applyUnfoldR(fn ocal.UnfoldR, arg ocal.Expr, g *ctx) (AType, locT, error) {
	argAt, argLoc, err := r.est(arg, g)
	if err != nil {
		return nil, locT{}, err
	}
	tup, ok := argAt.(ATuple)
	if !ok {
		// A single-input merge's 1-tuple wrapper has no surface syntax —
		// it prints as a parenthesized list and re-parses as the list
		// itself — so a bare list is the same shape.
		if l, isList := argAt.(AList); isList {
			tup = ATuple{l}
		} else {
			return nil, locT{}, fmt.Errorf("cost: unfoldR argument must be a tuple of lists")
		}
	}
	k := paramExpr(fn.K)
	// Streams that are alone on their device are read sequentially (the
	// seq-ac reasoning applied to the blocked unfoldR): interleaved streams
	// from the same device seek per block.
	perDevice := map[string]int{}
	for i := range tup {
		if src := argLoc.at(i).nodeOf(); src != r.root() && src != "" {
			perDevice[src]++
		}
	}
	for i, in := range tup {
		l, ok := in.(AList)
		if !ok {
			return nil, locT{}, fmt.Errorf("cost: unfoldR input %d is not a list", i+1)
		}
		src := argLoc.at(i).nodeOf()
		if src == r.root() || src == "" {
			continue
		}
		var inits sym.Expr
		parent := r.h.Parent(src)
		if perDevice[src] == 1 && r.p.Output != src && parent != nil {
			inits = r.seqInits(src, parent.Name, Size(r.b, l))
		} else {
			inits = r.b.Ceil(r.b.Div(l.Card, k))
		}
		up := r.chargeUp(src, Size(r.b, l), inits)
		if !fn.K.IsOne() {
			r.addResident(up, fmt.Sprintf("mergebuf:%d:%s", i, fn.K.String()),
				r.b.Mul(k, Size(r.b, l.Elem)))
			if d := r.h.Node(src); d != nil && d.MaxSeqR > 0 {
				r.addCons(r.b.Mul(k, Size(r.b, l.Elem)), hierVar(src, "maxSeqR"),
					"merge input block fits maxSeqR of "+src)
			}
		}
	}
	out, err := r.mergeResult(tup, fn.Hint)
	if err != nil {
		return nil, locT{}, err
	}
	return out, leafLoc(r.root()), nil
}

// applyTreeFold is the external-sort cost plugin. For a seed of x runs and
// branching b = 2^k, the data makes ceil(log2(x)/k) passes; every pass moves
// all N elements up and down with block-amortized initiations:
//
//	levels · (N·elemB·(UnitTrUp+UnitTrDown) + N/bin·InitComUp + N/bout·InitComDown)
//
// matching the paper's 2^k-way External Merge-Sort formula in Section 7.2.
func (r *run) applyTreeFold(fn ocal.TreeFold, arg ocal.Expr, g *ctx) (AType, locT, error) {
	rootLoc := leafLoc(r.root())
	argAt, argLoc, err := r.est(arg, g)
	if err != nil {
		return nil, locT{}, err
	}
	runs, err := Card(argAt)
	if err != nil {
		return nil, locT{}, fmt.Errorf("cost: treeFold over non-list: %w", err)
	}
	runAt, _ := Elem(argAt)

	unf, isMerge := fn.Fn.(ocal.UnfoldR)
	if !isMerge {
		// Generic treeFold on in-memory data: result is one item; charge
		// nothing beyond fetching the seed stream.
		if src := argLoc.nodeOf(); src != r.root() && src != "" {
			r.chargeUp(src, Size(r.b, argAt), runs)
		}
		return runAt, rootLoc, nil
	}

	runList, ok := runAt.(AList)
	if !ok {
		return nil, locT{}, fmt.Errorf("cost: treeFold merge needs a list of runs, got %s", runAt)
	}
	total := r.b.Mul(runs, runList.Card) // N elements overall
	elemB := Size(r.b, runList.Elem)
	bytes := r.b.Mul(total, elemB)

	b, bLit := fn.K.Literal()
	var levels sym.Expr
	if bLit && b >= 2 {
		levels = r.b.Ceil(r.b.Div(r.b.Log2(runs), sym.C(math.Log2(float64(b)))))
	} else {
		levels = r.b.Ceil(r.b.Log2(runs))
	}
	levels = r.b.Max(sym.One, levels)

	mi := r.inter
	if mi == "" || mi == r.root() {
		mi = argLoc.nodeOf()
	}
	bin := paramExpr(unf.K)
	bout := paramExpr(fn.OutK)
	upInits := r.b.Mul(levels, r.b.Ceil(r.b.Div(total, bin)))
	downInits := r.b.Mul(levels, r.b.Ceil(r.b.Div(total, bout)))
	if mi != "" && mi != r.root() {
		r.chargePathUp(mi, r.b.Mul(levels, bytes), upInits)
		r.chargeDownPath(mi, r.b.Mul(levels, bytes), downInits)
		// Residency: b input buffers of bin elements plus one output buffer.
		if !unf.K.IsOne() {
			nb := float64(2)
			if bLit {
				nb = float64(b)
			}
			r.addResident(r.root(), "sortbufs:"+unf.K.String(),
				r.b.Add(r.b.Mul(sym.C(nb), bin, elemB), r.b.Mul(bout, elemB)))
			if d := r.h.Node(mi); d != nil {
				if d.MaxSeqR > 0 {
					r.addCons(r.b.Mul(bin, elemB), hierVar(mi, "maxSeqR"),
						"sort input block fits maxSeqR of "+mi)
				}
				if d.MaxSeqW > 0 {
					r.addCons(r.b.Mul(bout, elemB), hierVar(mi, "maxSeqW"),
						"sort output block fits maxSeqW of "+mi)
				}
			}
		}
	}
	return AList{Card: total, Elem: runList.Elem}, rootLoc, nil
}

// applyPartition is the hash-part cost plugin: one sequential pass reading
// the input and writing s partitions to the intermediate device (linear-time
// implementation plugin of Section 3).
func (r *run) applyPartition(fn ocal.PartitionF, arg ocal.Expr, g *ctx) (AType, locT, error) {
	argAt, argLoc, err := r.est(arg, g)
	if err != nil {
		return nil, locT{}, err
	}
	l, ok := argAt.(AList)
	if !ok {
		return nil, locT{}, fmt.Errorf("cost: partition over non-list")
	}
	s := paramExpr(fn.S)
	mi := r.inter
	src := argLoc.nodeOf()
	bytes := Size(r.b, l)
	if src != r.root() && src != "" {
		// Sequential read pass of the whole input.
		parent := r.h.Parent(src)
		var inits sym.Expr = sym.One
		if parent != nil {
			inits = r.seqInits(src, parent.Name, bytes)
		}
		r.chargePathUp(src, bytes, inits)
	}
	if mi != "" && mi != r.root() {
		// Write the s partitions through per-bucket buffers: the RAM splits
		// into s+1 write buffers of ram/(s+1) bytes, and every buffer
		// eviction initiates a device write (interleaved streams seek).
		ramBytes := hierVar(r.root(), "size")
		bufW := r.b.Div(ramBytes, r.b.Add(s, sym.One))
		flushes := r.b.Max(s, r.b.Ceil(r.b.Div(bytes, bufW)))
		r.chargeDownPath(mi, bytes, flushes)
		saved := r.phase
		r.phase = "partition"
		r.addResident(r.root(), "partbufs:"+fn.S.String(), r.b.Mul(s, bufW))
		r.phase = saved
	}
	bucket := AList{Card: r.b.Ceil(r.b.Div(l.Card, s)), Elem: l.Elem}
	out := AList{Card: s, Elem: bucket}
	return out, leafLoc(mi), nil
}

// applyZipLists pairs corresponding buckets; it is pure bookkeeping.
func (r *run) applyZipLists(fn ocal.ZipLists, arg ocal.Expr, g *ctx) (AType, locT, error) {
	argAt, argLoc, err := r.est(arg, g)
	if err != nil {
		return nil, locT{}, err
	}
	tup, ok := argAt.(ATuple)
	if !ok || len(tup) != fn.N {
		return nil, locT{}, fmt.Errorf("cost: zip expects a %d-tuple", fn.N)
	}
	elems := make(ATuple, fn.N)
	var outer sym.Expr = sym.One
	for i, in := range tup {
		l, ok := in.(AList)
		if !ok {
			return nil, locT{}, fmt.Errorf("cost: zip input %d is not a list", i+1)
		}
		elems[i] = l.Elem
		if i == 0 {
			outer = l.Card
		}
	}
	loc := argLoc.at(0)
	return AList{Card: outer, Elem: elems}, loc, nil
}
