package exec

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"ocas/internal/ocal"
)

// This file is the executor's kernel compiler, the only evaluator of per-row
// OCAL bodies. At Lower time scan/filter/project bodies, fold steps (with
// their init and final lambda) and unfoldR lambda steps are parsed into small
// typed trees over one expression IR (kexpr). At execution time each tree is
// staged once into Go closures (kfn, scanFn, stepFn): a scan body or fold step
// when it binds to its input's arity at the first block, an unfoldR lambda
// step at the first refill, once its windows' widths are known. A scan body
// runs as a flat Go loop (a predicate pass filling a selection vector plus a
// projection pass reading through it, or its staged tree per row when the
// body is more than one filtered row or can fail), a fold step of additive
// components as one column loop per component, an unfoldR lambda step as
// nested closures that test, emit and update its windows in place; the
// library steps run as column kernels. Kernels never touch the charging code: block reads, cpu()
// charges and batch boundaries belong to the operators, so digests, ledgers,
// the virtual clock and EXPLAIN ANALYZE counters do not depend on a body's
// shape. A body outside the grammar (bodyGrammar, stepGrammar) does not
// lower; a column reference the arity cannot serve binds to a failing leaf
// that raises interp's error on the row where interp would evaluate it.

// Exact interp error texts: a kernel must fail byte-identically to the
// reference interpreter the differential suites compare it with.
var (
	errDivZero   = errors.New("interp: division by zero")
	errModZero   = errors.New("interp: modulo by zero")
	errHeadEmpty = errors.New("interp: head of empty or non-list")
	errTailEmpty = errors.New("interp: tail of empty or non-list")
	errZipRagged = errors.New("interp: z applied to ragged lists (head of empty list)")
	// … and the executor's own, for a step that changes nothing.
	errNoProgress = errors.New("exec: unfoldR step made no progress")
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

// has reports whether f holds for e or for a node below it.
func (e *kexpr) has(f func(*kexpr) bool) bool {
	return e != nil && (f(e) || e.l.has(f) || e.r.has(f) || e.c.has(f))
}

// canErr reports whether evaluating the expression can fail: Div/Mod by
// zero, or a leaf the arity could not bind.
func (e *kexpr) canErr() bool {
	return e.has(func(n *kexpr) bool {
		return n.kind == kBadProj || n.kind == kRow || n.kind == kRowArith || n.op == ocal.OpDiv || n.op == ocal.OpMod
	})
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
// the accumulator (an unfoldR step's closures hold their windows) — and the
// first failure its evaluation raised.
type kenv struct {
	cols [][]int32
	i    int
	acc  []int64
	err  error
}

// fail records err unless an earlier failure is recorded, and yields 0.
func (x *kenv) fail(err error) int64 {
	if x.err == nil {
		x.err = err
	}
	return 0
}

// kfn is a staged expression: the closure compile makes of a bound kexpr,
// once per operator, then run per row (or per unfoldR step). Operands
// evaluate eagerly, left to right: interp's evalPrim evaluates every argument
// before the operator applies, so a Div by zero surfaces on the same row and
// the same operation — even in the right operand of an And/Or the left one
// already decides. Like interp's if, only the branch the condition selects
// evaluates. A failure does not stop the evaluation (a failing node yields
// 0); x keeps the first one, which is interp's, and the caller checks x.err
// before it uses a value. A kfn holds no state, so strands may share one.
type kfn func(x *kenv) int64

// compile stages a bound expression. In an unfoldR step, known[i] is how
// many rows window i of ws, the step's windows, is proven to hold where e
// evaluates; both are nil elsewhere.
func (e *kexpr) compile(known []int, ws []stepWin) kfn {
	switch e.kind {
	case kLit:
		v := e.lit
		return func(*kenv) int64 { return v }
	case kCol:
		c := e.col
		return func(x *kenv) int64 { return int64(x.cols[c][x.i]) }
	case kAcc:
		c := e.col
		return func(x *kenv) int64 { return x.acc[c] }
	case kIf:
		c, l, r := e.c.compile(known, ws), e.l.compile(known, ws), e.r.compile(known, ws)
		return func(x *kenv) int64 {
			if c(x) != 0 {
				return l(x)
			}
			return r(x)
		}
	case kHead:
		return e.compileHead(known, ws)
	case kEmpty:
		w, d := &ws[e.win], e.depth
		return func(x *kenv) int64 {
			n := w.rows() - d
			if n < 0 {
				return x.fail(errTailEmpty)
			}
			return b2i(n == 0)
		}
	case kRowCmp:
		holds := e.rowTest(known, ws)
		return func(x *kenv) int64 {
			h, err := holds()
			if err != nil {
				return x.fail(err)
			}
			return b2i(h)
		}
	case kBadProj, kRow:
		return func(x *kenv) int64 { return x.fail(e.unbound(x, nil, nil)) }
	case kRowArith:
		l, r := e.l.compile(known, ws), e.r.compile(known, ws)
		return func(x *kenv) int64 { return x.fail(e.unbound(x, l, r)) }
	}
	l := e.l.compile(known, ws)
	if e.r == nil { // Not
		return func(x *kenv) int64 { return l(x) ^ 1 }
	}
	r, neg := e.r.compile(known, ws), b2i(negated(e.op))
	if a, b, ok := e.leaves(); ok {
		return leafOp(e.op, a, b, neg)
	}
	switch e.op {
	case ocal.OpAdd:
		return func(x *kenv) int64 { return l(x) + r(x) }
	case ocal.OpSub:
		return func(x *kenv) int64 { return l(x) - r(x) }
	case ocal.OpMul:
		return func(x *kenv) int64 { return l(x) * r(x) }
	case ocal.OpDiv:
		return func(x *kenv) int64 {
			if a, b := l(x), r(x); b != 0 {
				return a / b
			}
			return x.fail(errDivZero)
		}
	case ocal.OpMod:
		return func(x *kenv) int64 {
			if a, b := l(x), r(x); b != 0 {
				return a % b
			}
			return x.fail(errModZero)
		}
	case ocal.OpAnd:
		return func(x *kenv) int64 { return l(x) & r(x) }
	case ocal.OpOr:
		return func(x *kenv) int64 { return l(x) | r(x) }
	case ocal.OpEq, ocal.OpNe:
		return func(x *kenv) int64 { return b2i(l(x) == r(x)) ^ neg }
	case ocal.OpLt, ocal.OpGe:
		return func(x *kenv) int64 { return b2i(l(x) < r(x)) ^ neg }
	}
	return func(x *kenv) int64 { return b2i(l(x) > r(x)) ^ neg } // Gt, Le
}

// negated reports whether a comparison's closure negates another's: Ne
// tests Eq, Ge Lt and Le Gt.
func negated(op ocal.PrimOp) bool { return op == ocal.OpNe || op == ocal.OpGe || op == ocal.OpLe }

// kleaf is a leaf an operator's closure reads in place: a column, an
// accumulator component or a literal.
type kleaf struct {
	kind kexprKind
	col  int
	lit  int64
}

func (o *kleaf) get(x *kenv) int64 {
	switch o.kind {
	case kCol:
		return int64(x.cols[o.col][x.i])
	case kAcc:
		return x.acc[o.col]
	}
	return o.lit
}

// leaves returns an arithmetic or comparison node's operands as leaves, when
// both are.
func (e *kexpr) leaves() (a, b kleaf, ok bool) {
	leaf := func(o *kexpr) bool { return o.kind == kCol || o.kind == kAcc || o.kind == kLit }
	ok = e.kind != kLogic && leaf(e.l) && leaf(e.r)
	return kleaf{e.l.kind, e.l.col, e.l.lit}, kleaf{e.r.kind, e.r.col, e.r.lit}, ok
}

// leafOp stages an operator over two leaves, read in place.
func leafOp(op ocal.PrimOp, l, r kleaf, neg int64) kfn {
	switch op {
	case ocal.OpAdd:
		return func(x *kenv) int64 { return l.get(x) + r.get(x) }
	case ocal.OpSub:
		return func(x *kenv) int64 { return l.get(x) - r.get(x) }
	case ocal.OpMul:
		return func(x *kenv) int64 { return l.get(x) * r.get(x) }
	case ocal.OpDiv:
		return func(x *kenv) int64 {
			if a, b := l.get(x), r.get(x); b != 0 {
				return a / b
			}
			return x.fail(errDivZero)
		}
	case ocal.OpMod:
		return func(x *kenv) int64 {
			if a, b := l.get(x), r.get(x); b != 0 {
				return a % b
			}
			return x.fail(errModZero)
		}
	case ocal.OpEq, ocal.OpNe:
		return func(x *kenv) int64 { return b2i(l.get(x) == r.get(x)) ^ neg }
	case ocal.OpLt, ocal.OpGe:
		return func(x *kenv) int64 { return b2i(l.get(x) < r.get(x)) ^ neg }
	}
	return func(x *kenv) int64 { return b2i(l.get(x) > r.get(x)) ^ neg } // Gt, Le
}

// unbound is the failure of a leaf the input arity could not bind, raised
// once its operands (l and r, a kRowArith's staged operands) evaluated.
func (e *kexpr) unbound(x *kenv, l, r kfn) error {
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
			args[j] = ocal.Int([2]kfn{l, r}[j](x))
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
	fn       kfn // a bound scan body's scalar, staged
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
		bp := outPart{wholeRow: p.wholeRow, scalar: p.scalar.bind(ar)}
		if p.wholeRow {
			w += ar
		} else {
			w, bp.fn = w+1, bp.scalar.compile(nil, nil)
		}
		b.emit = append(b.emit, bp)
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

// canErr reports whether running the tree can fail somewhere.
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
// pass plus a columnar projection; any other body runs its staged tree per
// input row, so a failure surfaces on the row and at the operation interp's
// does.
type projKernel struct {
	ar       int
	outWidth int
	cond     *kexpr // nil: every row survives
	condF    kfn
	parts    []outPart // the row, in output order
	tree     scanFn    // when non-nil: the body, run per row

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
		k.cond, k.tree = nil, root.stageBody(ar)
		return k, nil
	}
	if k.parts = leaf.emit; k.cond != nil {
		k.condF = k.cond.compile(nil, nil)
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
			if err := k.tree(em, x); err != nil {
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
	sel, n := slices.Grow(k.sel[:0], rows)[:rows], 0
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
			n += int(k.condF(x))
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
			em.cols[oc] = k.evalColumn(p.fn, em.cols[oc], rows, sel)
		}
		oc++
	}
}

// evalColumn appends f's value at every row of the block sel selects (every
// row when sel is nil) to dst.
func (k *projKernel) evalColumn(f kfn, dst []int32, rows int, sel []int32) []int32 {
	x := &k.x
	if sel == nil {
		for x.i = 0; x.i < rows; x.i++ {
			dst = append(dst, int32(f(x)))
		}
		return dst
	}
	for _, i := range sel {
		x.i = int(i)
		dst = append(dst, int32(f(x)))
	}
	return dst
}

// scanFn is a staged scan body: it appends the rows the body makes of the
// row x is at to the emitter, a concatenation's left rows before its right
// ones, and fails with the first failure of a row it evaluates.
type scanFn func(em *emitter, x *kenv) error

// stageBody stages a scan body bound to arity ar. Conditions evaluate lazily
// like interp's if: only the branch taken runs.
func (n *stepNode) stageBody(ar int) scanFn {
	switch {
	case n.concat:
		l, r := n.then.stageBody(ar), n.els.stageBody(ar)
		return func(em *emitter, x *kenv) error {
			if err := l(em, x); err != nil {
				return err
			}
			return r(em, x)
		}
	case n.cond != nil:
		c, t, e := n.cond.compile(nil, nil), n.then.stageBody(ar), n.els.stageBody(ar)
		return func(em *emitter, x *kenv) error {
			switch v := c(x); {
			case x.err != nil:
				return x.err
			case v != 0:
				return t(em, x)
			}
			return e(em, x)
		}
	case n.emit == nil:
		return func(*emitter, *kenv) error { return nil }
	}
	parts := n.emit
	return func(em *emitter, x *kenv) error {
		oc := 0
		for _, p := range parts {
			if !p.wholeRow {
				em.cols[oc] = append(em.cols[oc], int32(p.fn(x)))
				oc++
				continue
			}
			for c := range ar {
				em.cols[oc] = append(em.cols[oc], x.cols[c][x.i])
				oc++
			}
		}
		if x.err != nil {
			// Drop the failed row so the emitter stays row-aligned.
			for c := range oc {
				em.cols[c] = em.cols[c][:len(em.cols[c])-1]
			}
		}
		return x.err
	}
}

// ---------------------------------------------------------------------------
// Fold kernels

// foldKernelSpec compiles foldL(init, \<a, x> -> step), and the final lambda
// a program may apply to the result, into an integer accumulator kernel: the
// accumulator lives in an []int64 and becomes an ocal.Value once, at the end.
type foldKernelSpec struct {
	init []int64
	// initErr is init's failure: interp evaluates init before the fold's
	// source, so the run fails with it as it starts.
	initErr error
	body    []*kexpr // one scalar per accumulator component
	// final is the final lambda's row over the accumulator, staged (nil: the
	// accumulator is the result), finalList whether it is wrapped in a list.
	final     []kfn
	finalList bool
}

// foldKernel is a spec's mutable run state, owned by one Fold instance. Its
// step is staged at the first block, when a streamed input's arity becomes
// known. A step whose every component is additive, a.j + s where s reads
// only the row and cannot fail, runs as one column loop per component and
// block (int64 addition wraps alike in any order); any other step runs its
// closures once per row.
type foldKernel struct {
	spec *foldKernelSpec
	fns  []kfn     // per component, its staged step (nil until the first block)
	sums []foldSum // per component, its addend, when every one is additive
	x    kenv      // x.acc is the accumulator
	tmp  []int64
}

// foldSum is an additive component's addend: a column (col >= 0), a literal
// (lit) or any other row expression (f).
type foldSum struct {
	col int
	lit int64
	f   kfn
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
		spec.init = append(spec.init, c.compile(nil, nil)(&x))
	}
	spec.initErr = x.err
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
	fin, err := parseScalars(row, kvars{acc: final.Params[0], accWidth: len(spec.init)})
	for _, f := range fin {
		spec.final = append(spec.final, f.compile(nil, nil))
	}
	return spec, err
}

// newKernel instantiates the spec's mutable run state.
func (s *foldKernelSpec) newKernel() *foldKernel {
	k := &foldKernel{spec: s, tmp: make([]int64, len(s.init))}
	k.x.acc = append([]int64(nil), s.init...)
	return k
}

// stage binds the step to the input arity ar.
func (k *foldKernel) stage(ar int) {
	var sums []foldSum
	for j, f := range k.spec.body {
		e := f.bind(ar)
		k.fns = append(k.fns, e.compile(nil, nil))
		switch s := e.addend(j); {
		case s == nil:
		case s.kind == kCol:
			sums = append(sums, foldSum{col: s.col})
		case s.kind == kLit:
			sums = append(sums, foldSum{col: -1, lit: s.lit})
		default:
			sums = append(sums, foldSum{col: -1, f: s.compile(nil, nil)})
		}
	}
	if len(sums) == len(k.fns) {
		k.sums = sums
	}
}

// addend returns s when e is a.j + s or s + a.j, and s reads only the row
// and cannot fail.
func (e *kexpr) addend(j int) *kexpr {
	if e.kind != kArith || e.op != ocal.OpAdd {
		return nil
	}
	for _, p := range [2][2]*kexpr{{e.l, e.r}, {e.r, e.l}} {
		if p[0].kind == kAcc && p[0].col == j && !p[1].canErr() &&
			!p[1].has(func(n *kexpr) bool { return n.kind == kAcc }) {
			return p[1]
		}
	}
	return nil
}

// step folds one column block into the accumulator. Per-row components
// evaluate against the pre-row accumulator (all reads before any write),
// like interp rebuilding the accumulator tuple from the old one.
func (k *foldKernel) step(cols [][]int32, rows int) error {
	if k.fns == nil {
		k.stage(len(cols))
	}
	x := &k.x
	x.cols = cols
	for j, s := range k.sums {
		t := s.lit * int64(rows)
		switch {
		case s.col >= 0:
			for _, v := range cols[s.col][:rows] {
				t += int64(v)
			}
		case s.f != nil:
			for x.i = 0; x.i < rows; x.i++ {
				t += s.f(x)
			}
		}
		x.acc[j] += t
	}
	if k.sums != nil {
		return nil
	}
	for x.i = 0; x.i < rows; x.i++ {
		for j, f := range k.fns {
			k.tmp[j] = f(x)
		}
		if x.err != nil {
			return x.err
		}
		for j, v := range k.tmp {
			x.acc[j] = v
		}
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
			vals[j] = f(&x)
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
  step   = \<s1, …, sn> -> tree | \g -> tree (si written g.i) | kernel
  kernel = mrg | funcPow[k](mrg), k ≤ 6 | z[n], over as many lists as the state has
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

// stepWin is one state component of an unfoldR step: the unread rows
// [pos, n) of the reader's current span, behind at most one front row held
// as int64 — a row the step put back (a running sum stays un-truncated
// until it is emitted), a scratch component's only row, or the row carried
// over to a new span.
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

// emit appends row d to the emitter's columns from column at on and returns
// the column after it.
func (w *stepWin) emit(em *emitter, at, d int) int {
	if w.held {
		if d == 0 {
			for c, v := range w.front {
				em.cols[at+c] = append(em.cols[at+c], int32(v))
			}
			return at + len(w.front)
		}
		d--
	}
	for c, col := range w.cols {
		em.cols[at+c] = append(em.cols[at+c], col[w.pos+d])
	}
	return at + len(w.cols)
}

// drop advances past the first m rows (the caller checked rows() >= m).
func (w *stepWin) drop(m int) {
	if w.held && m > 0 {
		w.held = false
		m--
	}
	w.pos += m
}

// less reports whether w's head row orders before v's, attribute by
// attribute as compareRows orders them; both rows are ar attributes wide.
func (w *stepWin) less(v *stepWin, ar int) bool {
	for c := range ar {
		if a, b := w.value(0, c), v.value(0, c); a != b {
			return a < b
		}
	}
	return false
}

// errRowWidths is the failure of a step that compares rows of n and m
// attributes.
func errRowWidths(n, m int) error {
	return fmt.Errorf("exec: unfoldR step compares rows of %d and %d attributes", n, m)
}

// merge is the kernel of mrg and funcPow[k](mrg): it takes steps — emit the
// smallest head row, the first of equals, and advance its list — from the
// windows' column blocks until a window is due a refill or limit rows are
// out. The non-empty lists have one width, or the first step fails as
// comparing two of their heads does.
func (o *UnfoldR) merge(limit int64) error {
	if err := o.refillAll(); err != nil {
		return err
	}
	ws := o.wins
	first := -1
	for i := range ws {
		switch {
		case ws[i].rows() == 0:
		case first < 0:
			first = i
		case ws[i].width(0) != ws[first].width(0):
			return errRowWidths(ws[i].width(0), ws[first].width(0))
		}
	}
	if first < 0 {
		o.done = true
		return nil
	}
	ar := ws[first].width(0)
	if err := o.em.fit(ar); err != nil {
		return err
	}
	for ; limit > 0; limit-- {
		best := -1
		for i := range ws {
			if ws[i].rows() > 0 && (best < 0 || ws[i].less(&ws[best], ar)) {
				best = i
			}
		}
		if best < 0 {
			return nil
		}
		w := &ws[best]
		for c := range ar {
			o.em.cols[c] = append(o.em.cols[c], int32(w.value(0, c)))
		}
		w.drop(1)
		o.steps++
		if o.due(best) {
			return nil
		}
	}
	return nil
}

// zip is the kernel of z[n]: it takes steps — emit every head side by side
// and advance every list — until a window is due a refill or limit rows
// are out, with one append per column. A step that finds some lists empty
// and not all fails as interp's z does.
func (o *UnfoldR) zip(limit int64) error {
	if err := o.refillAll(); err != nil {
		return err
	}
	ws := o.wins
	run, empty, width := limit, 0, 0
	for i := range ws {
		r := int64(ws[i].rows())
		if r == 0 {
			empty++
			continue
		}
		width += ws[i].width(0)
		if i >= o.scratch && !o.spans[i-o.scratch].eof {
			r-- // the refill comes at one row left
		}
		run = min(run, r)
	}
	switch {
	case empty == len(ws):
		o.done = true
		return nil
	case empty > 0:
		return errZipRagged
	}
	if err := o.em.fit(width); err != nil {
		return err
	}
	n, at := int(max(run, 1)), 0 // a refill is always followed by a step
	for i := range ws {
		w, front := &ws[i], 0
		if w.held {
			front = 1
		}
		for c := range w.width(0) {
			col := o.em.cols[at+c]
			if w.held {
				col = append(col, int32(w.front[c]))
			}
			if n > front {
				col = append(col, w.cols[c][w.pos:w.pos+n-front]...)
			}
			o.em.cols[at+c] = col
		}
		at += w.width(0)
		w.drop(n)
	}
	o.steps += int64(n)
	return nil
}

// isRow reports whether e is a bare head(tailᵈ(sᵢ)): the row, not a column.
func (e *kexpr) isRow() bool { return e.kind == kHead && e.col < 0 }

// headErr is why a kHead leaf — column col of head(tailᵈ(sᵢ)), or the row
// itself (col < 0) where it is one attribute wide — has no value: interp's
// error for a missing row or column, or the executor's own for a wider row
// used as an integer.
func (w *stepWin) headErr(e *kexpr) error {
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

// compareRows orders row dl of wl and row dr of wr like ocal.ValueCompare
// orders the values interp holds for them: attribute by attribute. sure: both
// rows are proven to exist.
func compareRows(wl *stepWin, dl int, wr *stepWin, dr int, sure bool) (int, error) {
	if !sure {
		if err := wl.need(dl); err != nil {
			return 0, err
		}
		if err := wr.need(dr); err != nil {
			return 0, err
		}
	}
	n := wl.width(dl)
	if m := wr.width(dr); m != n {
		return 0, errRowWidths(n, m)
	}
	for c := range n {
		switch a, b := wl.value(dl, c), wr.value(dr, c); {
		case a < b:
			return -1, nil
		case a > b:
			return 1, nil
		}
	}
	return 0, nil
}

// rowTest stages a kRowCmp condition: whether its two state rows compare as
// it says, which is whether their order is the sign its comparison tests
// (Eq 0, Lt -1, Gt 1) unless the comparison is negated.
func (e *kexpr) rowTest(known []int, ws []stepWin) func() (bool, error) {
	l, r, neg := e.l, e.r, negated(e.op)
	sign := int(b2i(e.op == ocal.OpGt || e.op == ocal.OpLe) - b2i(e.op == ocal.OpLt || e.op == ocal.OpGe))
	wl, wr, sure := &ws[l.win], &ws[r.win], known[l.win] > l.depth && known[r.win] > r.depth
	return func() (bool, error) {
		ord, err := compareRows(wl, l.depth, wr, r.depth, sure)
		return (ord == sign) != neg, err
	}
}

// compileHead stages column col of head(tailᵈ(sᵢ)), or the row itself where
// it is one attribute wide (col < 0), read in place: from the front row,
// whose width is checked per read, or from the window's columns, whose width
// the first refill fixed for the run. A row the path proved to exist skips
// its need check.
func (e *kexpr) compileHead(known []int, ws []stepWin) kfn {
	w, d, c, bare := &ws[e.win], e.depth, max(e.col, 0), e.col < 0
	sure, colsFit := known[e.win] > d, (len(w.cols) == 1) == bare && c < len(w.cols)
	return func(x *kenv) int64 {
		if w.held && d == 0 {
			if (len(w.front) == 1) == bare && c < len(w.front) {
				return w.front[c]
			}
		} else if colsFit && (sure || w.need(d) == nil) {
			return w.value(d, c)
		}
		return x.fail(w.headErr(e))
	}
}

// learn records in known what cond evaluating to holds proves about the
// windows' rows: length(tailᵈ(sᵢ)) == 0 failing proves d+1 rows, holding d.
func (e *kexpr) learn(holds bool, known []int) {
	if e.kind == kEmpty {
		known[e.win] = max(known[e.win], e.depth+int(b2i(!holds)))
	}
}

// stepFn is a staged unfoldR lambda step: one call takes one step.
type stepFn func() error

// stageStep stages a step tree for o, whose windows the first refill left
// with their column widths; known[i] is how many rows window i is proven to
// hold on the path to n. The closures capture o's windows, emitter and
// evaluation state. An emptiness test or a row comparison decides in place.
func (n *stepNode) stageStep(o *UnfoldR, known []int) stepFn {
	if n.cond == nil {
		return n.stageLeaf(o, known)
	}
	tk, ek := slices.Clone(known), slices.Clone(known)
	n.cond.learn(true, tk)
	n.cond.learn(false, ek)
	t, e, c := n.then.stageStep(o, tk), n.els.stageStep(o, ek), n.cond
	switch c.kind {
	case kEmpty:
		w, d := &o.wins[c.win], c.depth
		return func() error {
			switch r := w.rows() - d; {
			case r == 0:
				return t()
			case r > 0:
				return e()
			}
			return errTailEmpty
		}
	case kRowCmp:
		holds := c.rowTest(known, o.wins)
		return func() error {
			switch h, err := holds(); {
			case err != nil:
				return err
			case h:
				return t()
			}
			return e()
		}
	}
	f, x := c.compile(known, o.wins), &o.x
	return func() error {
		switch v := f(x); {
		case x.err != nil:
			return x.err
		case v != 0:
			return t()
		}
		return e()
	}
}

// stepRow is a staged row of a leaf: the emitted row, or a component's next
// front row. Before the leaf writes anything, a row with something to check
// (a scalar, a row not proven to exist, a copy to buffer) is read into buf:
// its scalars' values, and its state row when an earlier update of the leaf
// changes that row's window (buffered). Other state rows are copied straight
// from their windows when the row is written.
type stepRow struct {
	parts           []stepPart
	buf             []int64
	check, buffered bool
}

// stepPart is a scalar (fn), or the whole row head(tailᵈ(w)) (fn nil),
// known to exist when sure.
type stepPart struct {
	fn    kfn
	w     *stepWin
	win   int
	depth int
	sure  bool
}

func stageRow(parts []outPart, known []int, ws []stepWin) stepRow {
	var r stepRow
	for _, p := range parts {
		sp := stepPart{}
		if h := p.scalar; p.wholeRow {
			sp = stepPart{w: &ws[h.win], win: h.win, depth: h.depth, sure: known[h.win] > h.depth}
		} else {
			sp.fn = h.compile(known, ws)
		}
		r.parts, r.check = append(r.parts, sp), r.check || !sp.sure
	}
	return r
}

// read reads the row against the step's state, in interp's order, and fails
// as interp's first failing read would.
func (r *stepRow) read(x *kenv) error {
	r.buf = r.buf[:0]
	for i := range r.parts {
		p := &r.parts[i]
		if p.fn != nil {
			if r.buf = append(r.buf, p.fn(x)); x.err != nil {
				return x.err
			}
			continue
		}
		if !p.sure {
			if err := p.w.need(p.depth); err != nil {
				return err
			}
		}
		if r.buffered {
			r.buf = p.w.appendRow(r.buf, p.depth)
		}
	}
	return nil
}

// checkReads checks a leaf's reads in interp's order — the chunk, then each
// component's row and tail — against the state the step was given.
func checkReads(x *kenv, emit *stepRow, upd []stepUpdate) error {
	if emit.check {
		if err := emit.read(x); err != nil {
			return err
		}
	}
	for k := range upd {
		u := &upd[k]
		if u.row.check {
			if err := u.row.read(x); err != nil {
				return err
			}
		}
		if u.keep && !u.sure && u.w.rows() < u.m {
			return errTailEmpty
		}
	}
	return nil
}

// put appends an evaluated row to the emitter: its scalars from buf, its
// state rows straight from their windows, each attribute truncated to its
// int32 encoding — the one place an unfoldR step's arithmetic narrows.
func (r *stepRow) put(em *emitter) error {
	if p := &r.parts[0]; len(r.parts) == 1 && p.fn == nil {
		if wd := p.w.width(p.depth); wd != em.arity {
			if err := em.fit(wd); err != nil {
				return err
			}
		}
		p.w.emit(em, 0, p.depth)
		return nil
	}
	wd := len(r.buf)
	for i := range r.parts {
		if p := &r.parts[i]; p.fn == nil {
			wd += p.w.width(p.depth)
		}
	}
	if wd != em.arity {
		if err := em.fit(wd); err != nil {
			return err
		}
	}
	oc, k := 0, 0
	for i := range r.parts {
		if p := &r.parts[i]; p.fn == nil {
			oc = p.w.emit(em, oc, p.depth)
			continue
		}
		em.cols[oc] = append(em.cols[oc], int32(r.buf[k]))
		oc, k = oc+1, k+1
	}
	return nil
}

// stepUpdate is a staged update of one component w of a leaf.
type stepUpdate struct {
	w                *stepWin
	m                int
	keep, push, sure bool // sure: the tail's rows are proven
	row              stepRow
}

// stageLeaf stages a leaf: it checks every read in interp's order — the
// chunk, then each component's row and tail — then emits, then updates the
// components it changes one by one.
func (n *stepNode) stageLeaf(o *UnfoldR, known []int) stepFn {
	emit, emits, stalls := stageRow(n.emit, known, o.wins), n.emit != nil, n.stalls
	var upd []stepUpdate
	changed, check := make([]bool, len(n.upd)), emit.check
	for i, u := range n.upd {
		if changed[i] = !u.keep || u.m > 0 || u.row != nil; !changed[i] {
			continue
		}
		s := stepUpdate{w: &o.wins[i], m: u.m, keep: u.keep, push: u.row != nil, sure: known[i] >= u.m,
			row: stageRow(u.row, known, o.wins)}
		if p := s.row.parts; s.push && p[0].fn == nil {
			s.row.buffered = p[0].win <= i && changed[p[0].win]
			s.row.check = s.row.check || s.row.buffered
		}
		upd, check = append(upd, s), check || s.row.check || s.keep && !s.sure
	}
	x, em := &o.x, &o.em
	return func() error {
		if check {
			if err := checkReads(x, &emit, upd); err != nil {
				return err
			}
		}
		if emits {
			if err := emit.put(em); err != nil {
				return err
			}
		}
		progress := !stalls
		for k := range upd {
			u := &upd[k]
			w, before := u.w, 0
			if stalls {
				before = w.rows()
			}
			if u.keep {
				w.drop(u.m)
			} else {
				w.held, w.pos = false, w.n
			}
			if u.push {
				if p := &u.row.parts[0]; p.fn == nil && !u.row.buffered {
					w.front = p.w.appendRow(w.front[:0], p.depth)
				} else {
					w.front = append(w.front[:0], u.row.buf...)
				}
				w.held = true
			}
			progress = progress || before != w.rows()
		}
		if !progress {
			return errNoProgress
		}
		o.steps++
		return nil
	}
}

// stepUpd is one component's next state: tailᵐ of itself when keep is set,
// nothing otherwise, behind row when there is one.
type stepUpd struct {
	keep bool
	m    int
	row  []outPart
}

// stepKind is how an UnfoldR takes its steps: a lambda runs its staged
// decision tree once per step, and the library steps, whose semantics the
// executor knows, run as column kernels over the windows between two refills.
type stepKind uint8

const (
	lambdaStep stepKind = iota
	mergeStep           // mrg and funcPow[k](mrg): emit the smallest head, the first of equals
	zipStep             // z[n]: emit every head side by side
)

// parseUnfoldStep compiles the step of an unfoldR over n state components:
// a library step to its kernel's kind, a lambda to its decision tree. A step
// outside stepGrammar is an error.
func parseUnfoldStep(fn ocal.Expr, n int) (stepKind, *stepNode, error) {
	kind, ways := mergeStep, 2
	var root *stepNode
	var err error
	switch t := fn.(type) {
	case ocal.Mrg:
	case ocal.FuncPow:
		if _, isMrg := t.Fn.(ocal.Mrg); !isMrg || t.K < 0 || t.K > 6 {
			err = fmt.Errorf("funcPow[%d](%s) is not a merge of at most 64 lists", t.K, ocal.String(t.Fn))
			break
		}
		ways = 1 << t.K
	case ocal.ZipStep:
		if kind = zipStep; n != t.N {
			err = fmt.Errorf("z[%d] over %d lists", t.N, n)
		}
	case ocal.Lam:
		kind = lambdaStep
		v := kvars{state: t.Params, stateN: n}
		if len(t.Params) != 1 && len(t.Params) != n {
			err = fmt.Errorf("the step takes %d lists, the state has %d", len(t.Params), n)
			break
		}
		root, err = parseStepTree(t.Body, v)
	default:
		err = fmt.Errorf("%s is not a step function", ocal.String(fn))
	}
	if err == nil && kind == mergeStep && n != ways {
		err = fmt.Errorf("a %d-way merge over %d lists", ways, n)
	}
	if err != nil {
		return 0, nil, fmt.Errorf("exec: cannot lower unfoldR step: %v\n%s", err, stepGrammar)
	}
	return kind, root, nil
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
	ix.offs = slices.Grow(ix.offs[:0], int(size)+1)[:size+1]
	ix.cur = slices.Grow(ix.cur[:0], int(size)+1)[:size+1]
	clear(ix.offs)
	ix.ents = slices.Grow(ix.ents[:0], int(nx))[:nx]
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
