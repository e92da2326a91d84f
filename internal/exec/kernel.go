package exec

import (
	"errors"
	"fmt"
	"math"

	"ocas/internal/ocal"
)

// This file is the executor's kernel compiler, the only evaluator of per-row
// OCAL bodies. At Lower time scan/filter/project bodies, fold steps (with
// their init and final lambda) and unfoldR steps are parsed into small typed
// trees over one expression IR, which one evaluator (kexpr.eval) runs; at
// execution time a scan body or fold step is bound to its input's arity,
// known at the first block, and runs as a flat Go loop (a predicate pass
// filling a selection vector plus a projection pass reading through it, or a
// decision tree walked per row when the body is more than one filtered row or
// can fail), and an unfoldR step runs as a cursor machine over its operator's
// windows. Kernels never touch the charging code: block reads,
// cpu() charges and batch boundaries belong to the operators, so digests,
// ledgers, the virtual clock and EXPLAIN ANALYZE counters do not depend on
// a body's shape. A body outside the grammar (bodyGrammar, stepGrammar) does
// not lower; a column reference the arity cannot serve binds to a failing
// leaf that raises interp's error on the row where interp would evaluate it.

// Exact interp error texts: a kernel must fail byte-identically to the
// reference interpreter the differential suites compare it with.
var (
	errDivZero   = errors.New("interp: division by zero")
	errModZero   = errors.New("interp: modulo by zero")
	errHeadEmpty = errors.New("interp: head of empty or non-list")
	errTailEmpty = errors.New("interp: tail of empty or non-list")
	errZipRagged = errors.New("interp: z applied to ragged lists (head of empty list)")
)

// ---------------------------------------------------------------------------
// Expressions

type kexprKind int

const (
	kCol    kexprKind = iota // one input column, widened to int64
	kLit                     // integer or boolean (0/1) literal
	kElem                    // the whole loop element used as a scalar (arity 1)
	kAcc                     // one component of a fold's accumulator
	kArith                   // Add/Sub/Mul/Div/Mod over two integers
	kCmp                     // ordered/equality comparison of two integers
	kLogic                   // And/Or over two conditions, Not over one (r nil)
	kIf                      // if c then l else r over integers, one branch evaluated
	kHead                    // unfoldR step: one column of head(tailᵈ(sᵢ)); col < 0: the row itself
	kEmpty                   // unfoldR step: length(tailᵈ(sᵢ)) == 0
	kRowCmp                  // unfoldR step: two bare heads, compared as whole rows
	// What bind makes of a reference the input arity cannot serve:
	kBadProj  // x.c past the arity, or on an arity-1 row (a bare Int): fails like interp's projection
	kRow      // the whole element of arity > 1 where an integer is wanted
	kRowArith // arithmetic with a kRow operand: fails like interp's, once both operands evaluated
)

// kexpr is the one compiled expression IR of scan, filter, fold and unfoldR
// step kernels: an int64-valued tree over one input row (and, in a fold, the
// accumulator; in an unfoldR step, the state windows instead of a row),
// conditions evaluating to 0 or 1. Arithmetic is int64 (ocal.Int), truncated
// to int32 only at row encode — where a row of ocal.Int values would narrow
// to its int32 encoding. The parsers keep the two sorts apart: parseScalar
// only builds integer nodes, parseCond only boolean ones.
type kexpr struct {
	kind kexprKind
	col  int   // kCol, kHead, kBadProj: column; kAcc: accumulator component
	lit  int64 // kLit: the value; kBadProj, kRow: the arity bound at
	op   ocal.PrimOp
	l, r *kexpr
	c    *kexpr // kIf: the condition
	// kHead, kEmpty: the state component i and the tail count d of tailᵈ(sᵢ).
	win, depth int
}

// kvars names the variables a kernel body may reference: the loop element
// and, for fold steps, the accumulator of the given width ("" otherwise) —
// or, for unfoldR steps, the state components.
type kvars struct {
	elem, acc string
	accWidth  int
	// state names an unfoldR step's list components: one name per component
	// (\<l1, l2> -> …), or a single name for the whole state tuple of
	// stateN components, referenced as g.1 … g.n (\g -> …).
	state  []string
	stateN int
}

// list resolves a list expression tailᵈ(sᵢ) of an unfoldR step to (i, d).
func (v kvars) list(e ocal.Expr) (win, depth int, ok bool) {
	for {
		p, isPrim := e.(ocal.Prim)
		if !isPrim || p.Op != ocal.OpTail || len(p.Args) != 1 {
			break
		}
		e, depth = p.Args[0], depth+1
	}
	switch t := e.(type) {
	case ocal.Var:
		if len(v.state) > 1 {
			for i, name := range v.state {
				if name == t.Name {
					return i, depth, true
				}
			}
		}
	case ocal.Proj:
		x, isVar := t.E.(ocal.Var)
		if isVar && len(v.state) == 1 && x.Name == v.state[0] && t.I >= 1 && t.I <= v.stateN {
			return t.I - 1, depth, true
		}
	}
	return 0, 0, false
}

// stepLookahead is how far behind a window's first row an unfoldR step may
// read: UnfoldR refills a window at one remaining row, so head(tail(sᵢ)) and
// length(tail(sᵢ)) see the stream, and anything deeper would see where a
// transfer block happened to end.
const stepLookahead = 1

// head parses head(tailᵈ(sᵢ)) — a whole row of an unfoldR step's state.
func (v kvars) head(e ocal.Expr) (*kexpr, bool) {
	p, ok := e.(ocal.Prim)
	if !ok || p.Op != ocal.OpHead || len(p.Args) != 1 {
		return nil, false
	}
	win, depth, ok := v.list(p.Args[0])
	if !ok || depth > stepLookahead {
		return nil, false
	}
	return &kexpr{kind: kHead, col: -1, win: win, depth: depth}, true
}

// parseScalar parses an integer-valued expression over the loop element
// (and the fold accumulator), or over the heads of an unfoldR step's state.
func parseScalar(e ocal.Expr, v kvars) (*kexpr, bool) {
	switch t := e.(type) {
	case ocal.IntLit:
		return &kexpr{kind: kLit, lit: t.V}, true
	case ocal.Var:
		switch {
		case v.acc != "" && t.Name == v.acc:
			// Only a width-1 accumulator is a bare Int.
			if v.accWidth == 1 {
				return &kexpr{kind: kAcc}, true
			}
		case t.Name == v.elem:
			return &kexpr{kind: kElem}, true
		}
	case ocal.Proj:
		if h, ok := v.head(t.E); ok && t.I >= 1 {
			h.col = t.I - 1
			return h, true
		}
		x, ok := t.E.(ocal.Var)
		switch {
		case !ok || t.I < 1:
		case v.acc != "" && x.Name == v.acc:
			// Projecting a width-1 accumulator (a bare Int) is an interp
			// error, so the shape is not kernelizable.
			if v.accWidth > 1 && t.I <= v.accWidth {
				return &kexpr{kind: kAcc, col: t.I - 1}, true
			}
		case x.Name == v.elem:
			return &kexpr{kind: kCol, col: t.I - 1}, true
		}
	case ocal.If:
		c, okC := parseCond(t.Cond, v)
		l, okL := parseScalar(t.Then, v)
		r, okR := parseScalar(t.Else, v)
		if okC && okL && okR {
			return &kexpr{kind: kIf, c: c, l: l, r: r}, true
		}
	case ocal.Prim:
		switch t.Op {
		case ocal.OpHead:
			// A bare head is an integer only on arity-1 rows (checked when it
			// evaluates).
			return v.head(t)
		case ocal.OpAdd, ocal.OpSub, ocal.OpMul, ocal.OpDiv, ocal.OpMod:
			if len(t.Args) != 2 {
				return nil, false
			}
			l, okL := parseScalar(t.Args[0], v)
			r, okR := parseScalar(t.Args[1], v)
			if okL && okR {
				return &kexpr{kind: kArith, op: t.Op, l: l, r: r}, true
			}
		}
	}
	return nil, false
}

// empty parses length(tailᵈ(sᵢ)) == 0, an unfoldR step's emptiness test.
func (v kvars) empty(cmp ocal.Prim) (*kexpr, bool) {
	n, isLen := cmp.Args[0].(ocal.Prim)
	zero, isLit := cmp.Args[1].(ocal.IntLit)
	if cmp.Op != ocal.OpEq || !isLen || n.Op != ocal.OpLength || len(n.Args) != 1 || !isLit || zero.V != 0 {
		return nil, false
	}
	win, depth, ok := v.list(n.Args[0])
	if !ok || depth > stepLookahead {
		return nil, false
	}
	return &kexpr{kind: kEmpty, win: win, depth: depth}, true
}

// parseCond parses a boolean condition: comparisons over integer scalars,
// And/Or/Not compositions and boolean literals. Comparisons over non-scalar
// operands are outside the grammar — except between two bare heads of an
// unfoldR step, which compare as whole rows (see compareRows).
func parseCond(e ocal.Expr, v kvars) (*kexpr, bool) {
	switch t := e.(type) {
	case ocal.BoolLit:
		c := &kexpr{kind: kLit}
		if t.V {
			c.lit = 1
		}
		return c, true
	case ocal.Prim:
		switch t.Op {
		case ocal.OpEq, ocal.OpNe, ocal.OpLt, ocal.OpLe, ocal.OpGt, ocal.OpGe:
			if len(t.Args) != 2 {
				return nil, false
			}
			if c, ok := v.empty(t); ok {
				return c, true
			}
			l, okL := parseScalar(t.Args[0], v)
			r, okR := parseScalar(t.Args[1], v)
			switch {
			case !okL || !okR:
			case l.isRow() && r.isRow():
				return &kexpr{kind: kRowCmp, op: t.Op, l: l, r: r}, true
			default:
				return &kexpr{kind: kCmp, op: t.Op, l: l, r: r}, true
			}
		case ocal.OpAnd, ocal.OpOr:
			if len(t.Args) != 2 {
				return nil, false
			}
			l, okL := parseCond(t.Args[0], v)
			r, okR := parseCond(t.Args[1], v)
			if okL && okR {
				return &kexpr{kind: kLogic, op: t.Op, l: l, r: r}, true
			}
		case ocal.OpNot:
			if len(t.Args) != 1 {
				return nil, false
			}
			if a, ok := parseCond(t.Args[0], v); ok {
				return &kexpr{kind: kLogic, op: ocal.OpNot, l: a}, true
			}
		}
	}
	return nil, false
}

// canErr reports whether evaluating the expression can fail: Div/Mod by
// zero, or a leaf the arity could not bind.
func (e *kexpr) canErr() bool {
	if e == nil {
		return false
	}
	switch e.kind {
	case kBadProj, kRow, kRowArith:
		return true
	}
	return e.op == ocal.OpDiv || e.op == ocal.OpMod || e.l.canErr() || e.r.canErr() || e.c.canErr()
}

// bind returns a copy of the parsed expression specialized to the input
// arity, resolving kElem to column 0 at arity 1 (where a row is a bare Int).
// A reference the arity cannot serve — a column past it, a projection of an
// arity-1 row, the whole element as an integer at arity > 1 — becomes a
// failing leaf, so the error surfaces only on a row that evaluates it, with
// interp's text.
func (e *kexpr) bind(ar int) *kexpr {
	if e == nil {
		return nil
	}
	b := *e
	switch e.kind {
	case kCol:
		if ar == 1 || e.col >= ar {
			b.kind, b.lit = kBadProj, int64(ar)
		}
	case kElem:
		if ar == 1 {
			b.kind, b.col = kCol, 0
		} else {
			b.kind, b.lit = kRow, int64(ar)
		}
	}
	b.l, b.r, b.c = e.l.bind(ar), e.r.bind(ar), e.c.bind(ar)
	if b.kind == kArith && (b.l.kind == kRow || b.r.kind == kRow) {
		b.kind = kRowArith
	}
	return &b
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// kenv is what an expression reads — row i of a column block and, in a fold,
// the accumulator; in an unfoldR step, the state windows — and the first
// failure its evaluation raised.
type kenv struct {
	cols [][]int32
	i    int
	acc  []int64
	ws   []stepWin
	err  error
}

// fail records err unless an earlier failure is recorded, and yields 0.
func (x *kenv) fail(err error) int64 {
	if x.err == nil {
		x.err = err
	}
	return 0
}

// eval is the one evaluator of kexpr trees: scan bodies, fold steps, final
// lambdas and unfoldR steps. Operands evaluate eagerly, left to right:
// interp's evalPrim evaluates every argument before the operator applies, so
// a Div by zero surfaces on the same row and the same operation — even in the
// right operand of an And/Or the left one already decides. Like interp's if,
// only the branch the condition selects evaluates. A failure does not stop
// the walk (a failing node yields 0); x keeps the first one, which is
// interp's, and the caller checks x.err before it uses a value.
func (e *kexpr) eval(x *kenv) int64 {
	// Seven kinds at most: from eight on, the compiler dispatches through a
	// jump table, and the indirect jump per node cost the unfoldR step
	// machines 10-15%. Every other kind is a leaf, read through operand.
	switch e.kind {
	case kArith, kCmp, kLogic:
	case kIf:
		if e.c.eval(x) != 0 {
			return e.l.eval(x)
		}
		return e.r.eval(x)
	case kHead:
		// The row must exist; a bare head reads a one-attribute row, a
		// column a wider row that has it.
		w, c := &x.ws[e.win], max(e.col, 0)
		if w.need(e.depth) != nil || (e.col < 0) != (w.width(e.depth) == 1) || c >= w.width(e.depth) {
			return x.fail(x.headErr(e))
		}
		return w.value(e.depth, c)
	case kEmpty:
		n := x.ws[e.win].rows() - e.depth
		if n < 0 {
			return x.fail(errTailEmpty)
		}
		return b2i(n == 0)
	case kRowCmp:
		return b2i(cmpHolds(e.op, int64(x.compareRows(e.l, e.r)), 0))
	default: // a column, a literal, an accumulator component, a failing leaf
		if v, ok := e.operand(x); ok {
			return v
		}
		return x.fail(e.unbound(x))
	}
	a, ok := e.l.operand(x)
	if !ok {
		a = e.l.eval(x)
	}
	if e.r == nil { // Not
		return a ^ 1
	}
	b, ok := e.r.operand(x)
	if !ok {
		b = e.r.eval(x)
	}
	switch e.op {
	case ocal.OpAdd:
		return a + b
	case ocal.OpSub:
		return a - b
	case ocal.OpMul:
		return a * b
	case ocal.OpDiv:
		if b == 0 {
			return x.fail(errDivZero)
		}
		return a / b
	case ocal.OpMod:
		if b == 0 {
			return x.fail(errModZero)
		}
		return a % b
	case ocal.OpAnd:
		return a & b
	case ocal.OpOr:
		return a | b
	}
	return b2i(cmpHolds(e.op, a, b))
}

// operand reads the leaves most operands are — a column, a literal, an
// accumulator component — in place, saving eval's call; ok is false for any
// other node.
func (e *kexpr) operand(x *kenv) (v int64, ok bool) {
	switch e.kind {
	case kCol:
		return int64(x.cols[e.col][x.i]), true
	case kLit:
		return e.lit, true
	case kAcc:
		return x.acc[e.col], true
	}
	return 0, false
}

// unbound is the failure of a leaf the input arity could not bind, raised
// once its operands evaluated.
func (e *kexpr) unbound(x *kenv) error {
	switch e.kind {
	case kBadProj:
		if e.lit == 1 {
			return fmt.Errorf("interp: projection .%d on non-tuple %d", e.col+1, x.cols[0][x.i])
		}
		return fmt.Errorf("interp: projection .%d out of range (arity %d)", e.col+1, e.lit)
	case kRow:
		return fmt.Errorf("exec: a row of %d attributes used as an integer", e.lit)
	}
	var args [2]ocal.Value
	for j, o := range [2]*kexpr{e.l, e.r} {
		if o.kind != kRow {
			args[j] = ocal.Int(o.eval(x))
			continue
		}
		row := make(ocal.Tuple, len(x.cols))
		for c := range x.cols {
			row[c] = ocal.Int(x.cols[c][x.i])
		}
		args[j] = row
	}
	return fmt.Errorf("interp: arithmetic on non-integers %s, %s", args[0], args[1])
}

func cmpHolds(op ocal.PrimOp, a, b int64) bool {
	switch op {
	case ocal.OpEq:
		return a == b
	case ocal.OpNe:
		return a != b
	case ocal.OpLt:
		return a < b
	case ocal.OpLe:
		return a <= b
	case ocal.OpGt:
		return a > b
	default: // OpGe
		return a >= b
	}
}

// ---------------------------------------------------------------------------
// Scan/filter/project kernels

// bodyGrammar is what parseScanBody and parseFoldKernel accept; Lower prints
// it with every rejection.
const bodyGrammar = `the scan and fold grammar over the loop element x (in a fold, the accumulator a of n components):
  body   = [] | [row] | body ++ body | if cond then body else body
  row    = x | scalar | <row, …>, every row of a body as wide as the others
  fold   = foldL(init, \<a, x> -> step)(…) | (\a -> final)(foldL(…)(…))
  init   = const | <const, …>, n constants: scalars without variables
  step   = scalar | <scalar, …>, n scalars
  final  = frow | [frow], frow = scalar | <scalar, …> over a alone
  cond   = scalar ⋚ scalar | cond and cond | cond or cond | not cond | true | false
  scalar = integer | x.c | x (arity 1) | a (n = 1) | a.i (n > 1)
         | scalar (+ - * / %) scalar | if cond then scalar else scalar`

// outPart is one flattened component of the output row: either the whole
// input row spliced in (wholeRow — `x` inside the output tuple, or the
// identity body [x]) or one integer scalar. In an unfoldR step the spliced
// row is a head of the state, and scalar holds its kHead.
type outPart struct {
	wholeRow bool
	scalar   *kexpr
}

// stepNode is one node of a compiled decision tree — a scan body, or an
// unfoldR step: a decision (cond non-nil), in a scan body a concatenation
// (concat: then's rows, then els's), or a leaf. A parsed tree is immutable
// and may share subtrees; a Project owns the arity-bound copy it runs, an
// UnfoldR the windows it runs its tree against.
type stepNode struct {
	cond      *kexpr
	concat    bool
	then, els *stepNode

	fail error     // leaf: the step fails (z on ragged lists)
	emit []outPart // leaf: the emitted row; nil emits nothing
	upd  []stepUpd // unfoldR leaf: the next state, one update per component
	// stalls marks an unfoldR leaf whose progress depends on the data (it
	// emits nothing and only clears or replaces components): the operator
	// checks that some component changed length, like interp's unfoldR does.
	stalls bool
}

// parseDecision parses the decision node both kinds of tree share, its
// branches through sub.
func parseDecision(t ocal.If, v kvars, sub func(ocal.Expr, kvars) (*stepNode, error)) (*stepNode, error) {
	cond, ok := parseCond(t.Cond, v)
	if !ok {
		return nil, fmt.Errorf("unsupported condition %s", ocal.String(t.Cond))
	}
	then, err := sub(t.Then, v)
	if err != nil {
		return nil, err
	}
	els, err := sub(t.Else, v)
	if err != nil {
		return nil, err
	}
	return &stepNode{cond: cond, then: then, els: els}, nil
}

// parseScanBody compiles a single-source loop body over v.elem into its
// decision tree; an error says what is outside bodyGrammar. The tree is
// arity-independent: a streamed input's arity is only known at run time,
// where newProjKernel binds a copy.
func parseScanBody(e ocal.Expr, v kvars) (*stepNode, error) {
	switch t := e.(type) {
	case ocal.Empty:
		return &stepNode{}, nil
	case ocal.Single:
		emit, ok := flattenOut(t.E, v, nil)
		if !ok || len(emit) == 0 {
			return nil, fmt.Errorf("unsupported row %s", ocal.String(t.E))
		}
		return &stepNode{emit: emit}, nil
	case ocal.If:
		return parseDecision(t, v, parseScanBody)
	case ocal.Prim:
		if t.Op == ocal.OpConcat && len(t.Args) == 2 {
			l, err := parseScanBody(t.Args[0], v)
			if err != nil {
				return nil, err
			}
			r, err := parseScanBody(t.Args[1], v)
			if err != nil {
				return nil, err
			}
			return &stepNode{concat: true, then: l, els: r}, nil
		}
	}
	return nil, fmt.Errorf("%s is not a list of rows", ocal.String(e))
}

// flattenOut flattens the emitted value into row components, recursing
// through nested tuples: a row is flat however its tuple nests.
func flattenOut(e ocal.Expr, v kvars, acc []outPart) ([]outPart, bool) {
	if x, ok := e.(ocal.Var); ok && x.Name == v.elem {
		return append(acc, outPart{wholeRow: true}), true
	}
	if h, ok := v.head(e); ok {
		return append(acc, outPart{wholeRow: true, scalar: h}), true
	}
	if t, ok := e.(ocal.Tup); ok {
		for _, el := range t.Elems {
			var ok bool
			if acc, ok = flattenOut(el, v, acc); !ok {
				return nil, false
			}
		}
		return acc, true
	}
	s, ok := parseScalar(e, v)
	if !ok {
		return nil, false
	}
	return append(acc, outPart{scalar: s}), true
}

// bindBody copies a scan body bound to the input arity. Every emitting leaf
// must produce *width attributes (0: not yet known): a whole-row splice is as
// wide as the input, so rows of different widths only show here — before any
// row is emitted.
func (n *stepNode) bindBody(ar int, width *int) (*stepNode, error) {
	b := &stepNode{concat: n.concat, cond: n.cond.bind(ar)}
	if n.then != nil {
		var err error
		if b.then, err = n.then.bindBody(ar, width); err != nil {
			return nil, err
		}
		if b.els, err = n.els.bindBody(ar, width); err != nil {
			return nil, err
		}
		return b, nil
	}
	w := 0
	for _, p := range n.emit {
		b.emit = append(b.emit, outPart{wholeRow: p.wholeRow, scalar: p.scalar.bind(ar)})
		if p.wholeRow {
			w += ar
		} else {
			w++
		}
	}
	switch {
	case w == 0 || w == *width:
	case *width == 0:
		*width = w
	default:
		return nil, fmt.Errorf("exec: scan body emits rows of %d and of %d attributes", *width, w)
	}
	return b, nil
}

// canErr reports whether walking the tree can fail somewhere.
func (n *stepNode) canErr() bool {
	if n == nil {
		return false
	}
	for _, p := range n.emit {
		if p.scalar.canErr() {
			return true
		}
	}
	return n.cond.canErr() || n.then.canErr() || n.els.canErr()
}

// projKernel is a scan body specialized to one input arity, owned by a
// single operator instance (its selection vector and evaluation state are
// reused across blocks and must not be shared between strands). One row under
// at most one condition, none of it able to fail, runs as a selection-vector
// pass plus a columnar projection; any other body keeps its tree, walked per
// input row, so a failure surfaces on the row and at the operation interp's
// does.
type projKernel struct {
	ar       int
	outWidth int
	cond     *kexpr    // nil: every row survives
	parts    []outPart // the row, in output order
	tree     *stepNode // when non-nil: the body, walked per row

	x   kenv
	sel []int32 // reusable selection vector: indices of surviving rows
}

// newProjKernel binds a parsed scan body to the input arity.
func newProjKernel(body *stepNode, ar int) (*projKernel, error) {
	k := &projKernel{ar: ar}
	root, err := body.bindBody(ar, &k.outWidth)
	if err != nil {
		return nil, err
	}
	leaf := root
	if c, els := root.cond, root.els; c != nil && root.then.emit != nil && els.then == nil && els.emit == nil {
		k.cond, leaf = c, root.then
	}
	if leaf.emit == nil || root.canErr() {
		k.cond, k.tree = nil, root
	} else {
		k.parts = leaf.emit
	}
	return k, nil
}

// run executes the kernel over one column block, appending the produced
// rows to the emitter's column vectors in input order (a row's own rows left
// to right), so batch boundaries — and with them EXPLAIN counters — depend
// on the body's output alone. The caller has already charged the block's CPU
// cost.
func (k *projKernel) run(em *emitter, cols [][]int32, rows int) error {
	em.reserve(k.outWidth)
	x := &k.x
	x.cols = cols
	if k.tree != nil {
		for x.i = 0; x.i < rows; x.i++ {
			if err := k.tree.emitRows(em, k.ar, x); err != nil {
				return err
			}
		}
		return nil
	}
	// The filter marks survivors in the selection vector instead of
	// compacting rows; the projection reads through it.
	var sel []int32
	if k.cond != nil {
		if sel = k.buildSel(cols, rows); len(sel) == 0 {
			return nil
		}
	}
	k.project(em, cols, rows, sel)
	return nil
}

// buildSel runs the filter pass over one column block, filling the reusable
// selection vector with the indices of surviving rows. The candidate index is
// stored unconditionally and the cursor advances only on survival. A column
// compared with a literal, the common filter, runs as one branchless range
// test over the column vector.
func (k *projKernel) buildSel(cols [][]int32, rows int) []int32 {
	if cap(k.sel) < rows {
		k.sel = make([]int32, rows)
	}
	sel, n := k.sel[:rows], 0
	if c := k.cond; c.kind == kCmp && c.l.kind == kCol && c.r.kind == kLit {
		lo, span, out := litRange(c.op, c.r.lit)
		for i, v := range cols[c.l.col][:rows] {
			sel[n] = int32(i)
			n += int(b2i(uint64(int64(v))-lo <= span != out))
		}
	} else {
		x := &k.x
		for x.i = 0; x.i < rows; x.i++ {
			sel[n] = int32(x.i)
			n += int(k.cond.eval(x))
		}
	}
	k.sel = sel
	return sel[:n]
}

// litRange turns v ⋚ lit over int32 values v into a range test: v holds
// exactly when uint64(v)-lo <= span (wrapping) differs from out. Clamping lit
// to one past the int32 range keeps every comparison's answer and every
// bound finite.
func litRange(op ocal.PrimOp, lit int64) (lo, span uint64, out bool) {
	lit = max(math.MinInt32-1, min(lit, math.MaxInt32+1))
	first, last := int64(math.MinInt64), int64(math.MaxInt64)
	switch op {
	case ocal.OpLt:
		last = lit - 1
	case ocal.OpLe:
		last = lit
	case ocal.OpGt:
		first = lit + 1
	case ocal.OpGe:
		first = lit
	default: // OpEq, OpNe
		first, last, out = lit, lit, op == ocal.OpNe
	}
	return uint64(first), uint64(last) - uint64(first), out
}

// appendSel appends src (or its sel-selected subset) to dst column-wise.
func appendSel(dst, src, sel []int32) []int32 {
	if sel == nil {
		return append(dst, src...)
	}
	for _, i := range sel {
		dst = append(dst, src[i])
	}
	return dst
}

// project appends the projected block (optionally filtered through sel) to
// the emitter column by column: input columns — a whole-row splice
// contributes all of them in place — are bulk copies, and a scalar component
// evaluates down its whole output column.
func (k *projKernel) project(em *emitter, cols [][]int32, rows int, sel []int32) {
	oc := 0
	for _, p := range k.parts {
		switch {
		case p.wholeRow:
			for c := 0; c < k.ar; c++ {
				em.cols[oc] = appendSel(em.cols[oc], cols[c][:rows], sel)
				oc++
			}
			continue
		case p.scalar.kind == kCol:
			em.cols[oc] = appendSel(em.cols[oc], cols[p.scalar.col][:rows], sel)
		default:
			em.cols[oc] = k.evalColumn(p.scalar, em.cols[oc], rows, sel)
		}
		oc++
	}
}

// evalColumn appends e's value at every row of the block sel selects (every
// row when sel is nil) to dst.
func (k *projKernel) evalColumn(e *kexpr, dst []int32, rows int, sel []int32) []int32 {
	x := &k.x
	if sel == nil {
		for x.i = 0; x.i < rows; x.i++ {
			dst = append(dst, int32(e.eval(x)))
		}
		return dst
	}
	for _, i := range sel {
		x.i = int(i)
		dst = append(dst, int32(e.eval(x)))
	}
	return dst
}

// emitParts appends the row the parts make of the row x is at.
func emitParts(em *emitter, parts []outPart, ar int, x *kenv) error {
	oc := 0
	for _, p := range parts {
		if p.wholeRow {
			for c := 0; c < ar; c++ {
				em.cols[oc] = append(em.cols[oc], x.cols[c][x.i])
				oc++
			}
			continue
		}
		em.cols[oc] = append(em.cols[oc], int32(p.scalar.eval(x)))
		oc++
	}
	if x.err != nil {
		// Drop the failed row so the emitter stays row-aligned.
		for c := 0; c < oc; c++ {
			em.cols[c] = em.cols[c][:len(em.cols[c])-1]
		}
	}
	return x.err
}

// emitRows walks a bound scan body for the row x is at: conditions evaluate
// lazily like interp's if — only the branch taken is looked at — and a
// concatenation emits its left rows before its right ones.
func (n *stepNode) emitRows(em *emitter, ar int, x *kenv) error {
	for {
		switch {
		case n.concat:
			if err := n.then.emitRows(em, ar, x); err != nil {
				return err
			}
			n = n.els
		case n.cond != nil:
			if n.cond.eval(x) != 0 {
				n = n.then
			} else {
				n = n.els
			}
			if x.err != nil {
				return x.err
			}
		case n.emit == nil:
			return nil
		default:
			return emitParts(em, n.emit, ar, x)
		}
	}
}

// ---------------------------------------------------------------------------
// Fold kernels

// foldKernelSpec compiles foldL(init, \<a, x> -> step), and the final lambda
// a program may apply to the result, into an integer accumulator kernel: the
// accumulator lives in an []int64 and becomes an ocal.Value once, at the end.
type foldKernelSpec struct {
	init []int64
	body []*kexpr // one scalar per accumulator component
	// final is the final lambda's row over the accumulator (nil: the
	// accumulator is the result), finalList whether it is wrapped in a list.
	final     []*kexpr
	finalList bool
}

// foldKernel is a spec's mutable run state, owned by one Fold instance.
type foldKernel struct {
	spec *foldKernelSpec
	// bodyF is the arity-bound body (bound at the first block, when a
	// streamed input's arity becomes known).
	bodyF []*kexpr
	x     kenv // x.acc is the accumulator
	tmp   []int64
}

// rowElems lists the components of a flat row: the elements of a tuple, or
// the lone expression.
func rowElems(e ocal.Expr) []ocal.Expr {
	if t, ok := e.(ocal.Tup); ok && len(t.Elems) > 1 {
		return t.Elems
	}
	return []ocal.Expr{e}
}

// parseScalars parses every component of a flat row.
func parseScalars(row ocal.Expr, v kvars) ([]*kexpr, error) {
	var out []*kexpr
	for _, e := range rowElems(row) {
		s, ok := parseScalar(e, v)
		if !ok {
			return nil, fmt.Errorf("unsupported scalar %s", ocal.String(e))
		}
		out = append(out, s)
	}
	return out, nil
}

// parseFoldKernel compiles a fold: its init, its step fn and the final lambda
// applied to its result (nil: none); an error says what is outside
// bodyGrammar.
func parseFoldKernel(init, fn ocal.Expr, final *ocal.Lam) (*foldKernelSpec, error) {
	lam, ok := fn.(ocal.Lam)
	if !ok || len(lam.Params) != 2 {
		return nil, fmt.Errorf("%s is not a step \\<a, x> -> …", ocal.String(fn))
	}
	consts, err := parseScalars(init, kvars{})
	if err != nil {
		return nil, fmt.Errorf("init: %v", err)
	}
	spec := &foldKernelSpec{}
	var x kenv
	for _, c := range consts {
		spec.init = append(spec.init, c.eval(&x))
	}
	if x.err != nil {
		return nil, fmt.Errorf("init: %v", x.err)
	}
	v := kvars{elem: lam.Params[1], acc: lam.Params[0], accWidth: len(spec.init)}
	if spec.body, err = parseScalars(lam.Body, v); err != nil {
		return nil, err
	}
	if len(spec.body) != len(spec.init) {
		return nil, fmt.Errorf("the step builds %d components, init has %d", len(spec.body), len(spec.init))
	}
	if final == nil {
		return spec, nil
	}
	row := final.Body
	if s, ok := row.(ocal.Single); ok {
		spec.finalList, row = true, s.E
	}
	spec.final, err = parseScalars(row, kvars{acc: final.Params[0], accWidth: len(spec.init)})
	return spec, err
}

// newKernel instantiates the spec's mutable run state.
func (s *foldKernelSpec) newKernel() *foldKernel {
	k := &foldKernel{spec: s, tmp: make([]int64, len(s.init))}
	k.x.acc = append([]int64(nil), s.init...)
	return k
}

// step folds one column block into the accumulator. Body components
// evaluate against the pre-row accumulator (all reads before any write),
// like interp rebuilding the accumulator tuple from the old one.
func (k *foldKernel) step(cols [][]int32, rows int) error {
	if k.bodyF == nil {
		for _, f := range k.spec.body {
			k.bodyF = append(k.bodyF, f.bind(len(cols)))
		}
	}
	x := &k.x
	x.cols = cols
	for x.i = 0; x.i < rows; x.i++ {
		for j, f := range k.bodyF {
			k.tmp[j] = f.eval(x)
		}
		if x.err != nil {
			return x.err
		}
		copy(x.acc, k.tmp)
	}
	return nil
}

// result is the fold's value: the accumulator, through the final lambda when
// there is one, in the shape interp gives it.
func (k *foldKernel) result() (ocal.Value, error) {
	vals := k.x.acc
	if k.spec.final != nil {
		x := kenv{acc: vals}
		vals = make([]int64, len(k.spec.final))
		for j, f := range k.spec.final {
			vals[j] = f.eval(&x)
		}
		if x.err != nil {
			return nil, x.err
		}
	}
	var res ocal.Value = ocal.Int(vals[0])
	if len(vals) > 1 {
		t := make(ocal.Tuple, len(vals))
		for i, v := range vals {
			t[i] = ocal.Int(v)
		}
		res = t
	}
	if k.spec.finalList {
		res = ocal.List{res}
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// unfoldR step kernels

// stepGrammar is what parseUnfoldStep accepts, printed with every rejection.
const stepGrammar = `the unfoldR step grammar over n state components:
  step   = \<s1, …, sn> -> tree | \g -> tree (si written g.i) | mrg | funcPow[k](mrg) | z[n]
  tree   = if cond then tree else tree | <chunk, <upd1, …, updn>>
  list   = si | tail(si)
  cond   = length(list) == 0 | head(list) ⋚ head(list) | scalar ⋚ scalar
         | cond and cond | cond or cond | not cond | true | false
  scalar = integer | head(list).c | head(list) | scalar (+ - * / %) scalar
         | if cond then scalar else scalar
  chunk  = [] | [row], row = head(list) | scalar | <row, …>
  updi   = [] | si | tail(si) | tail(tail(si)) | [srow]
         | [srow] ++ tail(si) | [srow] ++ tail(tail(si)),
           srow = head(list) | scalar | <scalar, scalar, …>
  and every leaf emits a row or can change a component`

// stepWin is one state component of an unfoldR step's cursor machine: the
// unread rows [pos, n) of the reader's current column block, behind at most
// one front row held as int64 — a row the step put back (a running sum
// stays un-truncated until it is emitted), a scratch component's only row,
// or the row carried over a refill.
type stepWin struct {
	front  []int64 // the front row while held (reused buffer otherwise)
	held   bool
	cols   [][]int32
	pos, n int
}

func (w *stepWin) rows() int {
	if w.held {
		return w.n - w.pos + 1
	}
	return w.n - w.pos
}

// need checks that head(tailᵈ(·)) exists, failing like interp's tail and head.
func (w *stepWin) need(d int) error {
	switch n := w.rows() - d; {
	case n < 0:
		return errTailEmpty
	case n == 0:
		return errHeadEmpty
	}
	return nil
}

// width is the arity of row d, value its column c. Both want need(d) checked.
func (w *stepWin) width(d int) int {
	if w.held && d == 0 {
		return len(w.front)
	}
	return len(w.cols)
}

func (w *stepWin) value(d, c int) int64 {
	if w.held {
		if d == 0 {
			return w.front[c]
		}
		d--
	}
	return int64(w.cols[c][w.pos+d])
}

func (w *stepWin) appendRow(dst []int64, d int) []int64 {
	if w.held {
		if d == 0 {
			return append(dst, w.front...)
		}
		d--
	}
	for _, col := range w.cols {
		dst = append(dst, int64(col[w.pos+d]))
	}
	return dst
}

// drop advances past the first m rows (the caller checked rows() >= m).
func (w *stepWin) drop(m int) {
	if w.held && m > 0 {
		w.held = false
		m--
	}
	w.pos += m
}

// push puts row in front; no front row may be held.
func (w *stepWin) push(row []int64) {
	w.front = append(w.front[:0], row...)
	w.held = true
}

// isRow reports whether e is a bare head(tailᵈ(sᵢ)): the row, not a column.
func (e *kexpr) isRow() bool { return e.kind == kHead && e.col < 0 }

// headErr is why a kHead leaf — column col of head(tailᵈ(sᵢ)), or the row
// itself (col < 0) where it is one attribute wide — has no value: interp's
// error for a missing row or column, or the executor's own for a wider row
// used as an integer.
func (x *kenv) headErr(e *kexpr) error {
	w := &x.ws[e.win]
	if err := w.need(e.depth); err != nil {
		return err
	}
	switch wd := w.width(e.depth); {
	case e.col < 0:
		return fmt.Errorf("exec: unfoldR step uses a row of %d attributes as an integer", wd)
	case wd == 1:
		return fmt.Errorf("interp: projection .%d on non-tuple %d", e.col+1, w.value(e.depth, 0))
	default:
		return fmt.Errorf("interp: projection .%d out of range (arity %d)", e.col+1, wd)
	}
}

// compareRows orders two state rows like ocal.ValueCompare orders the values
// interp holds for them: attribute by attribute.
func (x *kenv) compareRows(l, r *kexpr) int {
	wl, wr := &x.ws[l.win], &x.ws[r.win]
	if err := wl.need(l.depth); err != nil {
		x.fail(err)
		return 0
	}
	if err := wr.need(r.depth); err != nil {
		x.fail(err)
		return 0
	}
	n := wl.width(l.depth)
	if m := wr.width(r.depth); m != n {
		x.fail(fmt.Errorf("exec: unfoldR step compares rows of %d and %d attributes", n, m))
		return 0
	}
	for c := 0; c < n; c++ {
		switch a, b := wl.value(l.depth, c), wr.value(r.depth, c); {
		case a < b:
			return -1
		case a > b:
			return 1
		}
	}
	return 0
}

// evalRow evaluates a row of the step into dst, splicing state rows whole.
func evalRow(parts []outPart, x *kenv, dst []int64) ([]int64, error) {
	dst = dst[:0]
	for _, p := range parts {
		if !p.wholeRow {
			dst = append(dst, p.scalar.eval(x))
			continue
		}
		w := &x.ws[p.scalar.win]
		if err := w.need(p.scalar.depth); err != nil {
			x.fail(err)
			break
		}
		dst = w.appendRow(dst, p.scalar.depth)
	}
	return dst, x.err
}

// stepUpd is one component's next state: tailᵐ of itself when keep is set,
// nothing otherwise, behind row when there is one.
type stepUpd struct {
	keep bool
	m    int
	row  []outPart
}

// leaf walks the decisions down to the leaf the current state selects.
func (n *stepNode) leaf(x *kenv) (*stepNode, error) {
	for n.cond != nil {
		if n.cond.eval(x) != 0 {
			n = n.then
		} else {
			n = n.els
		}
		if x.err != nil {
			return nil, x.err
		}
	}
	return n, nil
}

// parseUnfoldStep compiles the step of an unfoldR over n state components
// into its decision tree. A step outside stepGrammar is an error.
func parseUnfoldStep(fn ocal.Expr, n int) (*stepNode, error) {
	var root *stepNode
	var err error
	switch t := fn.(type) {
	case ocal.Mrg:
		root, err = mergeStepTree(n, 2)
	case ocal.FuncPow:
		if _, isMrg := t.Fn.(ocal.Mrg); !isMrg || t.K < 0 || t.K > 6 {
			err = fmt.Errorf("funcPow[%d](%s) is not a merge of at most 64 lists", t.K, ocal.String(t.Fn))
			break
		}
		root, err = mergeStepTree(n, 1<<t.K)
	case ocal.ZipStep:
		root, err = zipStepTree(n, t.N)
	case ocal.Lam:
		v := kvars{state: t.Params, stateN: n}
		if len(t.Params) != 1 && len(t.Params) != n {
			err = fmt.Errorf("the step takes %d lists, the state has %d", len(t.Params), n)
			break
		}
		root, err = parseStepTree(t.Body, v)
	default:
		err = fmt.Errorf("%s is not a step function", ocal.String(fn))
	}
	if err != nil {
		return nil, fmt.Errorf("exec: cannot lower unfoldR step: %v\n%s", err, stepGrammar)
	}
	return root, nil
}

func parseStepTree(e ocal.Expr, v kvars) (*stepNode, error) {
	switch t := e.(type) {
	case ocal.If:
		return parseDecision(t, v, parseStepTree)
	case ocal.Tup:
		if len(t.Elems) == 2 {
			return parseStepLeaf(t, v)
		}
	}
	return nil, fmt.Errorf("%s is neither a conditional nor <chunk, state>", ocal.String(e))
}

func parseStepLeaf(t ocal.Tup, v kvars) (*stepNode, error) {
	leaf := &stepNode{}
	switch chunk := t.Elems[0].(type) {
	case ocal.Empty:
	case ocal.Single:
		var ok bool
		if leaf.emit, ok = flattenOut(chunk.E, v, nil); !ok || len(leaf.emit) == 0 {
			return nil, fmt.Errorf("unsupported emitted row %s", ocal.String(chunk.E))
		}
	default:
		return nil, fmt.Errorf("unsupported chunk %s", ocal.String(chunk))
	}
	state, ok := t.Elems[1].(ocal.Tup)
	if !ok || len(state.Elems) != v.stateN {
		return nil, fmt.Errorf("next state %s is not a tuple of %d lists", ocal.String(t.Elems[1]), v.stateN)
	}
	progress := leaf.emit != nil
	for i, e := range state.Elems {
		u, ok := parseStepUpd(e, i, v)
		if !ok {
			return nil, fmt.Errorf("unsupported component %d of next state %s", i+1, ocal.String(state))
		}
		leaf.upd = append(leaf.upd, u)
		switch {
		case u.keep && (u.row == nil && u.m > 0 || u.m > 1):
			progress = true // the component certainly changes length
		case !u.keep:
			leaf.stalls = true // … if it held a different number of rows
		}
	}
	if progress {
		leaf.stalls = false
	} else if !leaf.stalls {
		return nil, fmt.Errorf("leaf %s makes no progress", ocal.String(t))
	}
	return leaf, nil
}

// parseStepUpd parses component i's next state.
func parseStepUpd(e ocal.Expr, i int, v kvars) (stepUpd, bool) {
	var u stepUpd
	var rowExpr ocal.Expr
	rest := e // the list that stays: e itself, or the right operand of ++
	switch t := e.(type) {
	case ocal.Empty:
		return u, true
	case ocal.Single:
		rowExpr, rest = t.E, nil
	case ocal.Prim:
		if t.Op == ocal.OpConcat && len(t.Args) == 2 {
			if s, ok := t.Args[0].(ocal.Single); ok {
				rowExpr, rest = s.E, t.Args[1]
			}
		}
	}
	if rowExpr != nil {
		if h, ok := v.head(rowExpr); ok {
			u.row = []outPart{{wholeRow: true, scalar: h}}
		} else {
			// Only flat rows: a nested tuple would not project like interp's.
			for _, el := range rowElems(rowExpr) {
				sc, ok := parseScalar(el, v)
				if !ok {
					return u, false
				}
				u.row = append(u.row, outPart{scalar: sc})
			}
		}
		if rest == nil {
			return u, true
		}
	}
	// A row goes in front of a shortened list only: the window holds one
	// front row, and [row] ++ sᵢ could stack a second on it.
	win, m, ok := v.list(rest)
	if !ok || win != i || (u.row != nil && m == 0) || m > stepLookahead+1 {
		return u, false
	}
	u.keep, u.m = true, m
	return u, true
}

// mergeStepTree is mrg (ways 2) and funcPow[k](mrg) (ways 2^k) as a step
// tree: among the non-empty lists, emit the smallest head — the first of
// equals — and advance that list. Subtrees are shared per (next list, best
// so far), so the tree has ways² nodes, not 3^ways.
func mergeStepTree(n, ways int) (*stepNode, error) {
	if n != ways {
		return nil, fmt.Errorf("a %d-way merge over %d lists", ways, n)
	}
	head := func(i int) *kexpr { return &kexpr{kind: kHead, col: -1, win: i} }
	memo := map[[2]int]*stepNode{}
	var build func(i, best int) *stepNode
	build = func(i, best int) *stepNode {
		key := [2]int{i, best}
		if nd := memo[key]; nd != nil {
			return nd
		}
		var nd *stepNode
		switch {
		case i == n && best < 0:
			// Every list is empty: unreachable, the operator stops first.
			nd = &stepNode{upd: make([]stepUpd, n), stalls: true}
		case i == n:
			nd = &stepNode{emit: []outPart{{wholeRow: true, scalar: head(best)}}, upd: make([]stepUpd, n)}
			for j := range nd.upd {
				nd.upd[j].keep = true
			}
			nd.upd[best].m = 1
		case best < 0:
			nd = &stepNode{cond: &kexpr{kind: kEmpty, win: i}, then: build(i+1, -1), els: build(i+1, i)}
		default:
			smaller := &kexpr{kind: kRowCmp, op: ocal.OpLt, l: head(i), r: head(best)}
			nd = &stepNode{cond: &kexpr{kind: kEmpty, win: i}, then: build(i+1, best),
				els: &stepNode{cond: smaller, then: build(i+1, i), els: build(i+1, best)}}
		}
		memo[key] = nd
		return nd
	}
	return build(0, -1), nil
}

// zipStepTree is z[n] as a step tree: one leaf emitting every head side by
// side and advancing every list, guarded against ragged lists.
func zipStepTree(n, arity int) (*stepNode, error) {
	if n != arity {
		return nil, fmt.Errorf("z[%d] over %d lists", arity, n)
	}
	leaf := &stepNode{upd: make([]stepUpd, n)}
	var ragged *kexpr
	for i := 0; i < n; i++ {
		leaf.emit = append(leaf.emit, outPart{wholeRow: true, scalar: &kexpr{kind: kHead, col: -1, win: i}})
		leaf.upd[i] = stepUpd{keep: true, m: 1}
		empty := &kexpr{kind: kEmpty, win: i}
		if ragged == nil {
			ragged = empty
		} else {
			ragged = &kexpr{kind: kLogic, op: ocal.OpOr, l: ragged, r: empty}
		}
	}
	return &stepNode{cond: ragged, then: &stepNode{fail: errZipRagged}, els: leaf}, nil
}

// ---------------------------------------------------------------------------
// Probe index

// probeIdx is the equi-join index over one resident outer block. The
// layout is bucket-packed (CSR): offs holds Fibonacci-hashed bucket
// boundaries and ents the (key, row) pairs of each bucket contiguously, so
// probing a key is a bounded sequential scan instead of a pointer chase,
// and the key comparison never touches the outer block. The counting sort
// is stable, so a bucket enumerates rows in ascending order — matches come
// out in the nested loop's order. Buffers are reused across outer blocks.
type probeIdx struct {
	offs  []int32  // size+1 bucket boundaries
	ents  []uint64 // key bits <<32 | row, bucket-packed, ascending row per bucket
	cur   []int32  // placement cursors, scratch
	shift uint32
}

// probeHash is Fibonacci hashing of an int32 key into a bucket.
func probeHash(key int32, shift uint32) uint32 {
	return (uint32(key) * 2654435769) >> shift
}

// build indexes a block's contiguous key column — with the columnar batch
// layout the key vector arrives ready to stream, no stride walk needed.
func (ix *probeIdx) build(keys []int32) {
	nx := int64(len(keys))
	size := int64(8)
	shift := uint32(29)
	for size < nx*2 {
		size <<= 1
		shift--
	}
	if int64(cap(ix.offs)) < size+1 {
		ix.offs = make([]int32, size+1)
		ix.cur = make([]int32, size+1)
	}
	ix.offs = ix.offs[:size+1]
	ix.cur = ix.cur[:size+1]
	for i := range ix.offs {
		ix.offs[i] = 0
	}
	if int64(cap(ix.ents)) < nx {
		ix.ents = make([]uint64, nx)
	}
	ix.ents = ix.ents[:nx]
	ix.shift = shift
	for _, k := range keys {
		ix.offs[probeHash(k, shift)+1]++
	}
	for i := int64(1); i <= size; i++ {
		ix.offs[i] += ix.offs[i-1]
	}
	copy(ix.cur, ix.offs[:size])
	for a, k := range keys {
		h := probeHash(k, shift)
		ix.ents[ix.cur[h]] = uint64(uint32(k))<<32 | uint64(a)
		ix.cur[h]++
	}
}
