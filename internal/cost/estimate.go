package cost

import (
	"fmt"
	"sort"
	"strings"

	"ocas/internal/memory"
	"ocas/internal/ocal"
	sym "ocas/internal/symbolic"
)

// Placement states where program inputs reside in the hierarchy, how large
// they are (symbolically), and where the output is written ("" = consumed by
// the CPU), per Section 4: "the location of the input data, as well as the
// output node, must both be specified".
type Placement struct {
	InputLoc  map[string]string // input var -> node name
	InputType map[string]ocal.Type
	InputCard map[string]sym.Expr // input var -> cardinality (e.g. Var("x"))
	Output    string              // output node, or "" for CPU-consumed
	// Intermediate is the node where growing intermediate results (fold
	// accumulators, partitions, sort runs) spill; defaults to the output
	// node, else the location of the alphabetically first input.
	Intermediate string
}

// Result of costing one program.
type Result struct {
	Size        AType
	Events      *Events
	Constraints []Constraint
	// Seconds is the full symbolic cost formula.
	Seconds sym.Expr
	// Params lists the symbolic tuning parameters appearing in the formula.
	Params []string
}

// locT locates a value: a leaf node name, or per-component locations for
// tuples (so a tuple of device-resident relations keeps each component's
// placement).
type locT struct {
	node  string
	comps []locT
}

func leafLoc(n string) locT { return locT{node: n} }

func (l locT) at(i int) locT {
	if len(l.comps) > 0 && i < len(l.comps) {
		return l.comps[i]
	}
	return locT{node: l.node}
}

// nodeOf collapses a location to a single node (used where a compound value
// is consumed as a whole).
func (l locT) nodeOf() string {
	if l.node != "" {
		return l.node
	}
	if len(l.comps) > 0 {
		return l.comps[0].nodeOf()
	}
	return ""
}

type binding struct {
	at  AType
	loc locT
}

// ctx is a persistent binding environment: bind pushes one entry, sharing
// the tail with the parent scope. Environments are tiny (a handful of
// binders), so the linear lookup beats the map-copy-per-bind this used to
// be — est binds at every loop and lambda of every candidate program.
type ctx struct {
	name   string
	b      binding
	parent *ctx
}

func (c *ctx) bind(name string, b binding) *ctx {
	return &ctx{name: name, b: b, parent: c}
}

func (c *ctx) lookup(name string) (binding, bool) {
	for ; c != nil; c = c.parent {
		if c.name == name {
			return c.b, true
		}
	}
	return binding{}, false
}

type run struct {
	h     *memory.Hierarchy
	p     Placement
	b     *sym.Builder
	inter string // the node growing intermediate results spill to
	ev    *Events
	cons  []Constraint
	resid map[string]map[string]sym.Expr // node -> dedupe key -> resident bytes
	// downTo records devices that received intermediate writes during
	// estimation; the final output write can only be sequential when the
	// output device was otherwise untouched.
	downTo map[string]bool
	// phase labels the residency group: buffers of phases that do not
	// overlap in time (e.g. hash-partitioning versus the subsequent
	// per-bucket joins) must not share one capacity constraint.
	phase string
}

func (r *run) phaseName() string {
	if r.phase == "" {
		return "main"
	}
	return r.phase
}

func (r *run) root() string { return r.h.Root.Name }

// Intermediate is the node growing intermediate results spill to under p:
// Placement.Intermediate, else the output node, else the first input
// location in name order.
func Intermediate(p Placement) string {
	if p.Intermediate != "" {
		return p.Intermediate
	}
	if p.Output != "" {
		return p.Output
	}
	var names []string
	for _, loc := range p.InputLoc {
		names = append(names, loc)
	}
	sort.Strings(names)
	if len(names) > 0 {
		return names[0]
	}
	return ""
}

func (r *run) addResident(node, key string, bytes sym.Expr) {
	group := node + "\x00" + r.phaseName()
	if r.resid[group] == nil {
		r.resid[group] = map[string]sym.Expr{}
	}
	r.resid[group][key] = bytes
}

func (r *run) addCons(lhs, rhs sym.Expr, why string) {
	r.cons = append(r.cons, Constraint{LHS: lhs, RHS: rhs, Why: why})
}

// chargeUp charges moving `bytes` with `inits` transfer initiations one hop
// upward from node loc, returning the destination node.
func (r *run) chargeUp(loc string, bytes, inits sym.Expr) string {
	parent := r.h.Parent(loc)
	if parent == nil {
		return loc
	}
	e := Edge{From: loc, To: parent.Name}
	r.ev.addBytes(r.b, e, bytes)
	r.ev.addInit(r.b, e, inits)
	return parent.Name
}

// chargeDownPath charges moving bytes from the root down to node dst,
// one edge at a time.
func (r *run) chargeDownPath(dst string, bytes, inits sym.Expr) {
	path, err := r.h.PathToRoot(dst)
	if err != nil {
		return
	}
	// path = dst ... root; walk top-down.
	for i := len(path) - 1; i > 0; i-- {
		e := Edge{From: path[i], To: path[i-1]}
		r.ev.addBytes(r.b, e, bytes)
		r.ev.addInit(r.b, e, inits)
	}
	if r.downTo == nil {
		r.downTo = map[string]bool{}
	}
	r.downTo[dst] = true
}

// paramExpr converts an AST parameter to a symbolic expression.
func paramExpr(p ocal.Param) sym.Expr {
	if v, ok := p.Literal(); ok {
		return sym.C(float64(v))
	}
	return sym.V(p.Sym)
}

// seqInits is the seq-ac InitCom count of Section 6.2:
// max(1, total / min(m1.maxSeqR, m2.maxSeqW)), with 0 meaning "unlimited".
// It is written max(1, total/maxSeqR, total/maxSeqW), which takes no branch
// on which limit is smaller and gives the same bits: a correctly rounded
// 1/limit, and its product with a non-negative total, are monotone.
func (r *run) seqInits(from, to string, bytes sym.Expr) sym.Expr {
	terms := []sym.Expr{sym.One}
	if n := r.h.Node(from); n != nil && n.MaxSeqR > 0 {
		terms = append(terms, r.b.Div(bytes, hierVar(from, "maxSeqR")))
	}
	if n := r.h.Node(to); n != nil && n.MaxSeqW > 0 {
		terms = append(terms, r.b.Div(bytes, hierVar(to, "maxSeqW")))
	}
	return r.b.Max(terms...)
}

// Estimator costs the programs of one search space, all under one hierarchy
// and placement. It builds every formula through one symbolic Builder, so
// the sub-formulas the members share — a member differs from its parent in
// one rewritten subtree — are built once and are one pointer; and it derives
// the inputs' annotated types once. The formulas are exactly Estimate's.
// Estimate is safe for concurrent use. Drop the Estimator with the search
// space's costing: the Builder keeps every formula it built.
type Estimator struct {
	h      *memory.Hierarchy
	p      Placement
	inputs *ctx   // each input bound to its annotated type and location
	inter  string // see Intermediate
	err    error  // why no program can be costed under p
	b      *sym.Builder
}

// NewEstimator returns an Estimator for the programs of one search space.
func NewEstimator(h *memory.Hierarchy, p Placement) *Estimator {
	return newEstimator(h, p, sym.NewBuilder())
}

func newEstimator(h *memory.Hierarchy, p Placement, b *sym.Builder) *Estimator {
	e := &Estimator{h: h, p: p, inter: Intermediate(p), b: b}
	for name, loc := range p.InputLoc {
		t, ok := p.InputType[name]
		if !ok {
			e.err = fmt.Errorf("cost: input %q has no type", name)
			return e
		}
		card, ok := p.InputCard[name]
		if !ok {
			e.err = fmt.Errorf("cost: input %q has no cardinality", name)
			return e
		}
		e.inputs = e.inputs.bind(name, binding{at: FromType(t, card, ""), loc: leafLoc(loc)})
	}
	return e
}

// Stats reports what the Estimator's Builder did: the distinct formula nodes
// it interned and the calls its memo answered.
func (e *Estimator) Stats() sym.BuilderStats { return e.b.Stats() }

// Estimate costs prog under the hierarchy and placement, building its
// formulas with the package-level constructors; an Estimator is what costs
// many programs.
func Estimate(h *memory.Hierarchy, p Placement, prog ocal.Expr) (*Result, error) {
	return newEstimator(h, p, nil).Estimate(prog)
}

// Estimate costs prog. It implements the rules of Figures 5 and 6 together
// with the definition cost plugins of Sections 3 and 6.
func (e *Estimator) Estimate(prog ocal.Expr) (*Result, error) {
	if e.err != nil {
		return nil, e.err
	}
	h, p := e.h, e.p
	r := &run{h: h, p: p, b: e.b, inter: e.inter, ev: NewEvents(), resid: map[string]map[string]sym.Expr{}}
	at, _, err := r.est(prog, e.inputs)
	if err != nil {
		return nil, err
	}

	// Output write-out: the program result is evicted from the root to the
	// output node through the output buffer (Section 5.2: "when the output
	// buffer is filled, it is completely evicted to the output memory
	// level").
	if p.Output != "" {
		bytes := Size(r.b, at)
		outK := OutK(prog)
		// When nothing else touches the output device (no input stored
		// there, no intermediate spill), the buffered output stream is
		// written sequentially — the seq-ac reasoning applied to writes,
		// and the reason the "other HDD" and flash variants win.
		outSequential := !r.downTo[p.Output]
		for _, loc := range p.InputLoc {
			if loc == p.Output {
				outSequential = false
			}
		}
		// Unbuffered element-wise output (the naive specification) pays one
		// initiation per tuple even on a dedicated device: sequentiality is
		// only exploited once apply-block has introduced the output buffer.
		if v, ok := outK.Literal(); ok && v == 1 {
			outSequential = false
		}
		var inits sym.Expr
		if outSequential {
			if parent := h.Parent(p.Output); parent != nil {
				inits = r.seqInits(parent.Name, p.Output, bytes)
			} else {
				inits = sym.One
			}
			if v, ok := outK.Literal(); !ok || v != 1 {
				ko := paramExpr(outK)
				var elemB sym.Expr = sym.One
				if el, err := Elem(at); err == nil {
					elemB = Size(r.b, el)
				}
				r.addResident(r.root(), "outbuf:"+outK.String(), r.b.Mul(ko, elemB))
			}
		} else if v, ok := outK.Literal(); ok && v == 1 {
			// Unbuffered: one initiation per output element.
			if c, err := Card(at); err == nil {
				inits = c
			} else {
				inits = sym.One
			}
		} else {
			ko := paramExpr(outK)
			if c, err := Card(at); err == nil {
				inits = r.b.Ceil(r.b.Div(c, ko))
			} else {
				inits = sym.One
			}
			var elemB sym.Expr = sym.One
			if el, err := Elem(at); err == nil {
				elemB = Size(r.b, el)
			}
			r.addResident(r.root(), "outbuf:"+outK.String(), r.b.Mul(ko, elemB))
			if n := h.Node(p.Output); n != nil && n.MaxSeqW > 0 {
				r.addCons(r.b.Mul(ko, elemB), hierVar(p.Output, "maxSeqW"),
					"output block fits maxSeqW of "+p.Output)
			}
		}
		r.chargeDownPath(p.Output, bytes, inits)
	}

	// Residency constraints: everything resident at a node during one
	// phase must fit that node.
	var groupBuf, keyBuf [8]string
	var termBuf [8]sym.Expr
	groups := groupBuf[:0]
	for g := range r.resid {
		groups = append(groups, g)
	}
	sort.Strings(groups)
	for _, g := range groups {
		keys := keyBuf[:0]
		for k := range r.resid[g] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		terms := termBuf[:0]
		for _, k := range keys {
			terms = append(terms, r.resid[g][k])
		}
		nodeName, phase, _ := strings.Cut(g, "\x00")
		if h.Node(nodeName) != nil {
			r.addCons(r.b.Add(terms...), hierVar(nodeName, "size"),
				"resident data fits "+nodeName+" ("+phase+" phase)")
		}
	}

	res := &Result{
		Size:        at,
		Events:      r.ev,
		Constraints: r.cons,
		Seconds:     r.ev.seconds(r.b, h),
		Params:      ocal.Params(prog),
	}
	return res, nil
}

// OutK locates the output-buffering parameter the estimator prices: the
// outermost For, TreeFold or UnfoldR OutK that is not 1. The executor's
// sink buffers its output by the same parameter.
func OutK(e ocal.Expr) ocal.Param {
	switch t := e.(type) {
	case ocal.For:
		if !t.OutK.IsOne() {
			return t.OutK
		}
	case ocal.TreeFold:
		if !t.OutK.IsOne() {
			return t.OutK
		}
	case ocal.UnfoldR:
		if !t.OutK.IsOne() {
			return t.OutK
		}
	}
	for _, c := range ocal.Children(e) {
		if p := OutK(c); !p.IsOne() {
			return p
		}
	}
	return ocal.Lit(1)
}

// scaled estimates f's charges in a sub-tally and multiplies them by factor
// before merging, implementing the "card/k · C(body)" part of Figure 6.
func (r *run) scaled(factor sym.Expr, f func() error) error {
	saved := r.ev
	r.ev = NewEvents()
	err := f()
	sub := r.ev
	r.ev = saved
	if err != nil {
		return err
	}
	sub.scale(r.b, factor)
	r.ev.merge(r.b, sub)
	return nil
}

func (r *run) est(e ocal.Expr, g *ctx) (AType, locT, error) {
	rootLoc := leafLoc(r.root())
	switch t := e.(type) {
	case ocal.Var:
		b, ok := g.lookup(t.Name)
		if !ok {
			return nil, locT{}, fmt.Errorf("cost: unbound variable %q", t.Name)
		}
		return b.at, b.loc, nil
	case ocal.IntLit, ocal.BoolLit:
		return AConst{Size: sym.C(float64(ocal.AtomBytes))}, rootLoc, nil
	case ocal.StrLit:
		return AConst{Size: sym.C(float64(len(t.V)))}, rootLoc, nil
	case ocal.Tup:
		out := make(ATuple, len(t.Elems))
		locs := make([]locT, len(t.Elems))
		for i, el := range t.Elems {
			at, loc, err := r.est(el, g)
			if err != nil {
				return nil, locT{}, err
			}
			out[i] = at
			locs[i] = loc
		}
		return out, locT{comps: locs}, nil
	case ocal.Proj:
		at, loc, err := r.est(t.E, g)
		if err != nil {
			return nil, locT{}, err
		}
		tup, ok := at.(ATuple)
		if !ok || t.I < 1 || t.I > len(tup) {
			return nil, locT{}, fmt.Errorf("cost: bad projection .%d on %s", t.I, at)
		}
		return tup[t.I-1], loc.at(t.I - 1), nil
	case ocal.Single:
		at, _, err := r.est(t.E, g)
		if err != nil {
			return nil, locT{}, err
		}
		return AList{Card: sym.One, Elem: at}, rootLoc, nil
	case ocal.Empty:
		return AList{Card: sym.Zero, Elem: AConst{Size: sym.Zero}}, rootLoc, nil
	case ocal.If:
		if _, _, err := r.est(t.Cond, g); err != nil {
			return nil, locT{}, err
		}
		thenAt, thenLoc, err := r.est(t.Then, g)
		if err != nil {
			return nil, locT{}, err
		}
		elseAt, _, err := r.est(t.Else, g)
		if err != nil {
			return nil, locT{}, err
		}
		return MaxT(r.b, thenAt, elseAt), thenLoc, nil
	case ocal.Prim:
		return r.estPrim(t, g)
	case ocal.For:
		return r.estFor(t, g)
	case ocal.App:
		return r.estApp(t, g)
	case ocal.Lam, ocal.FlatMap, ocal.FoldL, ocal.TreeFold, ocal.UnfoldR,
		ocal.Mrg, ocal.ZipStep, ocal.FuncPow, ocal.PartitionF, ocal.ZipLists:
		return nil, locT{}, fmt.Errorf("cost: bare function %s not applied; costing assumes definitions are matched with applications", ocal.String(e))
	}
	return nil, locT{}, fmt.Errorf("cost: cannot estimate %T", e)
}

func (r *run) estPrim(t ocal.Prim, g *ctx) (AType, locT, error) {
	rootLoc := leafLoc(r.root())
	args := make([]AType, len(t.Args))
	for i, a := range t.Args {
		at, _, err := r.est(a, g)
		if err != nil {
			return nil, locT{}, err
		}
		args[i] = at
	}
	switch t.Op {
	case ocal.OpConcat:
		return AddT(r.b, args[0], args[1]), rootLoc, nil
	case ocal.OpHead:
		el, err := Elem(args[0])
		if err != nil {
			return nil, locT{}, err
		}
		return el, rootLoc, nil
	case ocal.OpTail:
		l, ok := args[0].(AList)
		if !ok {
			return nil, locT{}, fmt.Errorf("cost: tail of non-list")
		}
		return AList{Card: r.b.Max(sym.Zero, r.b.Sub(l.Card, sym.One)), Elem: l.Elem}, rootLoc, nil
	default:
		return AConst{Size: sym.C(float64(ocal.AtomBytes))}, rootLoc, nil
	}
}

// seqStillValid re-checks the seq-ac side condition against the current
// program: rewrites applied after the annotation (e.g. swap-iter moving a
// same-device loop inside) can invalidate it, in which case the costing
// engine falls back to per-block initiations. The condition mirrors the
// rule's: no other loop inside the body streams from the same device, and
// the program output does not interfere with it.
func (r *run) seqStillValid(f ocal.For, g *ctx, dev string) bool {
	if r.p.Output == dev {
		return false
	}
	var conflict func(e ocal.Expr) bool
	conflict = func(e ocal.Expr) bool {
		if inner, ok := e.(ocal.For); ok {
			if src, ok := inner.Src.(ocal.Var); ok {
				if b, bound := g.lookup(src.Name); bound && b.loc.nodeOf() == dev {
					return true
				}
			}
		}
		for _, c := range ocal.Children(e) {
			if conflict(c) {
				return true
			}
		}
		return false
	}
	return !conflict(f.Body)
}

// estFor implements the for rule: blocked transfer of the source one hop up
// the hierarchy, body charged once per block (Figure 6), result size scaled
// by the iteration count (Figure 5).
func (r *run) estFor(t ocal.For, g *ctx) (AType, locT, error) {
	rootLoc := leafLoc(r.root())
	srcAt, srcLoc, err := r.est(t.Src, g)
	if err != nil {
		return nil, locT{}, err
	}
	n, err := Card(srcAt)
	if err != nil {
		return nil, locT{}, fmt.Errorf("cost: for over non-list: %w", err)
	}
	elem, _ := Elem(srcAt)
	k := paramExpr(t.K)
	elemBytes := Size(r.b, elem)

	xLocNode := r.root()
	src := srcLoc.nodeOf()
	if src != r.root() && src != "" {
		bytes := Size(r.b, srcAt)
		var inits sym.Expr
		parent := r.h.Parent(src)
		if t.Seq != nil && parent != nil && t.Seq.From == src && t.Seq.To == parent.Name &&
			r.seqStillValid(t, g, src) {
			inits = r.seqInits(src, parent.Name, bytes)
		} else {
			inits = r.b.Ceil(r.b.Div(n, k))
		}
		xLocNode = r.chargeUp(src, bytes, inits)
		if !t.K.IsOne() {
			r.addResident(xLocNode, "block:"+t.X+":"+t.K.String(), r.b.Mul(k, elemBytes))
			if d := r.h.Node(src); d != nil && d.MaxSeqR > 0 {
				r.addCons(r.b.Mul(k, elemBytes), hierVar(src, "maxSeqR"),
					fmt.Sprintf("read block %s fits maxSeqR of %s", t.K.String(), src))
			}
		}
	}

	var xAt AType
	if t.K.IsOne() {
		xAt = elem
	} else {
		xAt = AList{Card: k, Elem: elem}
	}
	iters := r.b.Ceil(r.b.Div(n, k))
	var bodyAt AType
	err = r.scaled(iters, func() error {
		at, _, err := r.est(t.Body, g.bind(t.X, binding{at: xAt, loc: leafLoc(xLocNode)}))
		bodyAt = at
		return err
	})
	if err != nil {
		return nil, locT{}, err
	}
	if _, ok := bodyAt.(AList); !ok {
		return nil, locT{}, fmt.Errorf("cost: for body must produce a list, got %s", bodyAt)
	}
	return ScaleCard(r.b, bodyAt, iters), rootLoc, nil
}
