package exec

import (
	"errors"
	"fmt"

	"ocas/internal/ocal"
)

// This file is the executor's kernel compiler, the only evaluator of per-row
// OCAL bodies. At Lower time scan/filter/project bodies, fold steps (with
// their init and final lambda) and unfoldR steps are parsed into small typed
// trees over one expression IR; at execution time a scan body or fold step is
// bound to its input's arity, known at the first block, and runs as a flat Go
// loop (a predicate pass filling a selection vector plus a projection pass
// reading through it, a fused row loop when the body can error, or a decision
// tree walked per row), and an unfoldR step runs as a cursor machine over its
// operator's windows. Kernels never touch the charging code: block reads,
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
	kCol   kexprKind = iota // one input column, widened to int64
	kLit                    // integer or boolean (0/1) literal
	kElem                   // the whole loop element used as a scalar (arity 1)
	kAcc                    // one component of a fold's accumulator
	kArith                  // Add/Sub/Mul/Div/Mod over two integers
	kCmp                    // ordered/equality comparison of two integers
	kLogic                  // And/Or over two conditions, Not over one (r nil)
	kIf                     // if c then l else r over integers, one branch evaluated
	kHead                   // unfoldR step: one column of head(tailᵈ(sᵢ)); col < 0: the row itself
	kEmpty                  // unfoldR step: length(tailᵈ(sᵢ)) == 0
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
// unfoldR step, which compare as whole rows (see evalStep).
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
			if okL && okR {
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
	switch e.kind {
	case kBadProj, kRow, kRowArith:
		return true
	}
	if e.l == nil {
		return false
	}
	if e.op == ocal.OpDiv || e.op == ocal.OpMod {
		return true
	}
	return e.l.canErr() || (e.r != nil && e.r.canErr()) || (e.c != nil && e.c.canErr())
}

// bind returns a copy of the parsed expression specialized to the input
// arity, resolving kElem to column 0 at arity 1 (where a row is a bare Int).
// A reference the arity cannot serve — a column past it, a projection of an
// arity-1 row, the whole element as an integer at arity > 1 — becomes a
// failing leaf, so the error surfaces only on a row that evaluates it, with
// interp's text.
func (e *kexpr) bind(ar int) *kexpr {
	b := *e
	switch e.kind {
	case kCol:
		if ar == 1 || e.col >= ar {
			b.kind, b.lit = kBadProj, int64(ar)
		}
		return &b
	case kElem:
		if ar == 1 {
			b.kind, b.col = kCol, 0
		} else {
			b.kind, b.lit = kRow, int64(ar)
		}
		return &b
	case kLit, kAcc:
		return &b
	}
	b.l = e.l.bind(ar)
	if e.r != nil {
		b.r = e.r.bind(ar)
	}
	if e.c != nil {
		b.c = e.c.bind(ar)
	}
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

// eval evaluates the expression against row i of a column block (acc is the
// fold accumulator, nil elsewhere) with error checking. Operands evaluate
// eagerly, left to right: interp's evalPrim evaluates every argument before
// the operator applies, so a Div by zero surfaces on the same row and the
// same operation — even in the right operand of an And/Or the left one
// already decides.
func (e *kexpr) eval(acc []int64, cols [][]int32, i int) (int64, error) {
	switch e.kind {
	case kCol:
		return int64(cols[e.col][i]), nil
	case kLit:
		return e.lit, nil
	case kAcc:
		return acc[e.col], nil
	case kIf:
		// Like interp's if: only the branch the condition selects evaluates.
		c, err := e.c.eval(acc, cols, i)
		if err != nil {
			return 0, err
		}
		if c != 0 {
			return e.l.eval(acc, cols, i)
		}
		return e.r.eval(acc, cols, i)
	case kBadProj:
		if e.lit == 1 {
			return 0, fmt.Errorf("interp: projection .%d on non-tuple %d", e.col+1, cols[0][i])
		}
		return 0, fmt.Errorf("interp: projection .%d out of range (arity %d)", e.col+1, e.lit)
	case kRow:
		return 0, fmt.Errorf("exec: a row of %d attributes used as an integer", e.lit)
	case kRowArith:
		var args [2]ocal.Value
		for j, o := range [2]*kexpr{e.l, e.r} {
			if o.kind == kRow {
				row := make(ocal.Tuple, len(cols))
				for c := range cols {
					row[c] = ocal.Int(cols[c][i])
				}
				args[j] = row
				continue
			}
			v, err := o.eval(acc, cols, i)
			if err != nil {
				return 0, err
			}
			args[j] = ocal.Int(v)
		}
		return 0, fmt.Errorf("interp: arithmetic on non-integers %s, %s", args[0], args[1])
	}
	a, err := e.l.eval(acc, cols, i)
	if err != nil {
		return 0, err
	}
	if e.r == nil { // Not
		return a ^ 1, nil
	}
	b, err := e.r.eval(acc, cols, i)
	if err != nil {
		return 0, err
	}
	return applyChecked(e.op, a, b)
}

// applyChecked applies a binary operator, failing like interp on a zero
// divisor.
func applyChecked(op ocal.PrimOp, a, b int64) (int64, error) {
	switch op {
	case ocal.OpDiv:
		if b == 0 {
			return 0, errDivZero
		}
		return a / b, nil
	case ocal.OpMod:
		if b == 0 {
			return 0, errModZero
		}
		return a % b, nil
	}
	return applyOp(op, a, b), nil
}

// evalFast evaluates an expression proven error-free (canErr is false);
// with no errors and no side effects, short-circuiting And/Or is
// unobservable and allowed.
func (e *kexpr) evalFast(acc []int64, cols [][]int32, i int) int64 {
	switch e.kind {
	case kCol:
		return int64(cols[e.col][i])
	case kLit:
		return e.lit
	case kAcc:
		return acc[e.col]
	case kIf:
		if e.c.evalFast(acc, cols, i) != 0 {
			return e.l.evalFast(acc, cols, i)
		}
		return e.r.evalFast(acc, cols, i)
	}
	a := e.l.evalFast(acc, cols, i)
	switch {
	case e.r == nil: // Not
		return a ^ 1
	case e.op == ocal.OpAnd && a == 0, e.op == ocal.OpOr && a != 0:
		return a
	}
	return applyOp(e.op, a, e.r.evalFast(acc, cols, i))
}

// applyOp applies a total binary operator (everything but Div/Mod).
func applyOp(op ocal.PrimOp, a, b int64) int64 {
	switch op {
	case ocal.OpAdd:
		return a + b
	case ocal.OpSub:
		return a - b
	case ocal.OpMul:
		return a * b
	case ocal.OpAnd:
		return a & b
	case ocal.OpOr:
		return a | b
	}
	return b2i(cmpHolds(op, a, b))
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
	b := &stepNode{concat: n.concat}
	if n.cond != nil {
		b.cond = n.cond.bind(ar)
	}
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
		if p.wholeRow {
			b.emit = append(b.emit, p)
			w += ar
			continue
		}
		b.emit = append(b.emit, outPart{scalar: p.scalar.bind(ar)})
		w++
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

// projKernel is a scan body specialized to one input arity, owned by a
// single operator instance (its selection vector is reused across blocks and
// must not be shared between strands). One row under at most one condition
// runs as a selection-vector pass plus a columnar projection; any other body
// keeps its tree, walked per input row.
type projKernel struct {
	ar       int
	outWidth int
	cond     *kexpr    // nil: every row survives
	identity bool      // output is the input row verbatim
	gather   []int     // when non-nil: output columns are input columns
	parts    []outPart // general projection (gather nil), in output order
	canErr   bool      // run row-at-a-time to keep error order
	tree     *stepNode // when non-nil: the body beyond [row] | if cond then [row] else []

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
		k.cond, k.canErr, leaf = c, c.canErr(), root.then
	}
	if leaf.emit == nil {
		k.tree = root
		return k, nil
	}
	// The whole-row splice contributes the input's ar columns in place.
	// When every output component resolves to an input column, the kernel
	// runs in gather (or identity) mode; otherwise the ordered parts list
	// drives the general projection.
	k.parts = leaf.emit
	cols := make([]int, 0, k.outWidth)
	for _, p := range k.parts {
		switch {
		case p.wholeRow:
			for c := 0; c < ar; c++ {
				cols = append(cols, c)
			}
		case p.scalar.kind == kCol:
			cols = append(cols, p.scalar.col)
		default:
			k.canErr = k.canErr || p.scalar.canErr()
		}
	}
	if len(cols) == k.outWidth {
		k.gather = cols
		k.parts = nil
		if len(cols) == ar {
			k.identity = true
			for i, c := range cols {
				if c != i {
					k.identity = false
					break
				}
			}
		}
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
	if k.tree != nil {
		for i := 0; i < rows; i++ {
			if err := k.tree.emitRows(em, k.ar, cols, i); err != nil {
				return err
			}
		}
		return nil
	}
	if k.canErr {
		return k.runChecked(em, cols, rows)
	}
	if k.cond == nil {
		// Unconditional projection: no selection pass needed.
		k.project(em, cols, rows, nil)
		return nil
	}
	// Phase 1: the filter marks survivors in the selection vector instead
	// of compacting rows.
	sel := k.buildSel(cols, rows)
	if len(sel) == 0 {
		return nil
	}
	// Phase 2: project through the selection without copying rejected rows.
	k.project(em, cols, rows, sel)
	return nil
}

// buildSel runs the filter pass over one column block, filling the
// reusable selection vector with the indices of surviving rows. Valid only
// for an error-free condition.
func (k *projKernel) buildSel(cols [][]int32, rows int) []int32 {
	if cap(k.sel) < rows {
		k.sel = make([]int32, rows)
	}
	// The specialized loops are branchless: the candidate index is stored
	// unconditionally and the cursor advances only on survival, so the
	// filter runs at memory speed regardless of selectivity.
	sel, n := k.sel[:rows], 0
	if c := k.cond; c.kind == kCmp && c.l.kind == kCol && c.r.kind == kLit {
		// Pre-specialized column-vs-literal comparison loops over the
		// contiguous column vector.
		col, lit := cols[c.l.col][:rows], c.r.lit
		switch c.op {
		case ocal.OpEq:
			for i, v := range col {
				sel[n] = int32(i)
				if int64(v) == lit {
					n++
				}
			}
		case ocal.OpNe:
			for i, v := range col {
				sel[n] = int32(i)
				if int64(v) != lit {
					n++
				}
			}
		case ocal.OpLt:
			for i, v := range col {
				sel[n] = int32(i)
				if int64(v) < lit {
					n++
				}
			}
		case ocal.OpLe:
			for i, v := range col {
				sel[n] = int32(i)
				if int64(v) <= lit {
					n++
				}
			}
		case ocal.OpGt:
			for i, v := range col {
				sel[n] = int32(i)
				if int64(v) > lit {
					n++
				}
			}
		default:
			for i, v := range col {
				sel[n] = int32(i)
				if int64(v) >= lit {
					n++
				}
			}
		}
	} else if c.kind == kCmp && c.l.kind == kCol && c.r.kind == kCol {
		// Column-vs-column comparison loop.
		ci, cj := cols[c.l.col][:rows], cols[c.r.col][:rows]
		for i := 0; i < rows; i++ {
			sel[n] = int32(i)
			if cmpHolds(c.op, int64(ci[i]), int64(cj[i])) {
				n++
			}
		}
	} else {
		for i := 0; i < rows; i++ {
			sel[n] = int32(i)
			if c.evalFast(nil, cols, i) != 0 {
				n++
			}
		}
	}
	k.sel = sel
	return sel[:n]
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
// the emitter column by column: identity and gather modes are per-column
// bulk copies, and scalar components evaluate down their whole output
// column — the struct-of-arrays payoff.
func (k *projKernel) project(em *emitter, cols [][]int32, rows int, sel []int32) {
	switch {
	case k.identity:
		for c := 0; c < k.ar; c++ {
			em.cols[c] = appendSel(em.cols[c], cols[c][:rows], sel)
		}
	case k.gather != nil:
		for j, c := range k.gather {
			em.cols[j] = appendSel(em.cols[j], cols[c][:rows], sel)
		}
	default:
		oc := 0
		for _, p := range k.parts {
			if p.wholeRow {
				for c := 0; c < k.ar; c++ {
					em.cols[oc] = appendSel(em.cols[oc], cols[c][:rows], sel)
					oc++
				}
				continue
			}
			em.cols[oc] = evalPartFast(p.scalar, em.cols[oc], cols, rows, sel)
			oc++
		}
	}
}

// evalPartFast appends one scalar output column, specializing the common
// depth-1 shapes — a bare column, a literal, and column/literal
// arithmetic — into tight loops over the contiguous column vectors. The
// int32 arithmetic is exact: the interpreter computes in int64 and
// truncates the result, and truncation mod 2^32 commutes with add, sub
// and mul (Div/Mod imply canErr and never reach the fast path). Deeper
// expressions fall back to the recursive evalFast walk per row.
func evalPartFast(e *kexpr, dst []int32, cols [][]int32, rows int, sel []int32) []int32 {
	switch {
	case e.kind == kCol:
		return appendSel(dst, cols[e.col][:rows], sel)
	case e.kind == kLit:
		v, n := int32(e.lit), rows
		if sel != nil {
			n = len(sel)
		}
		for i := 0; i < n; i++ {
			dst = append(dst, v)
		}
		return dst
	case e.kind == kArith && e.l.kind == kCol && e.r.kind == kCol:
		a, b := cols[e.l.col][:rows], cols[e.r.col][:rows]
		switch e.op {
		case ocal.OpAdd:
			if sel == nil {
				for i := range a {
					dst = append(dst, a[i]+b[i])
				}
			} else {
				for _, i := range sel {
					dst = append(dst, a[i]+b[i])
				}
			}
			return dst
		case ocal.OpSub:
			if sel == nil {
				for i := range a {
					dst = append(dst, a[i]-b[i])
				}
			} else {
				for _, i := range sel {
					dst = append(dst, a[i]-b[i])
				}
			}
			return dst
		case ocal.OpMul:
			if sel == nil {
				for i := range a {
					dst = append(dst, a[i]*b[i])
				}
			} else {
				for _, i := range sel {
					dst = append(dst, a[i]*b[i])
				}
			}
			return dst
		}
	case e.kind == kArith && e.l.kind == kCol && e.r.kind == kLit:
		a, lit := cols[e.l.col][:rows], int32(e.r.lit)
		switch e.op {
		case ocal.OpAdd:
			if sel == nil {
				for i := range a {
					dst = append(dst, a[i]+lit)
				}
			} else {
				for _, i := range sel {
					dst = append(dst, a[i]+lit)
				}
			}
			return dst
		case ocal.OpSub:
			if sel == nil {
				for i := range a {
					dst = append(dst, a[i]-lit)
				}
			} else {
				for _, i := range sel {
					dst = append(dst, a[i]-lit)
				}
			}
			return dst
		case ocal.OpMul:
			if sel == nil {
				for i := range a {
					dst = append(dst, a[i]*lit)
				}
			} else {
				for _, i := range sel {
					dst = append(dst, a[i]*lit)
				}
			}
			return dst
		}
	case e.kind == kArith && e.l.kind == kLit && e.r.kind == kCol:
		lit, b := int32(e.l.lit), cols[e.r.col][:rows]
		switch e.op {
		case ocal.OpAdd:
			if sel == nil {
				for i := range b {
					dst = append(dst, lit+b[i])
				}
			} else {
				for _, i := range sel {
					dst = append(dst, lit+b[i])
				}
			}
			return dst
		case ocal.OpSub:
			if sel == nil {
				for i := range b {
					dst = append(dst, lit-b[i])
				}
			} else {
				for _, i := range sel {
					dst = append(dst, lit-b[i])
				}
			}
			return dst
		case ocal.OpMul:
			if sel == nil {
				for i := range b {
					dst = append(dst, lit*b[i])
				}
			} else {
				for _, i := range sel {
					dst = append(dst, lit*b[i])
				}
			}
			return dst
		}
	}
	if sel == nil {
		for i := 0; i < rows; i++ {
			dst = append(dst, int32(e.evalFast(nil, cols, i)))
		}
	} else {
		for _, i := range sel {
			dst = append(dst, int32(e.evalFast(nil, cols, int(i))))
		}
	}
	return dst
}

// runChecked is the erroring variant: condition then output per row, in
// row order, so the first failing operation is the one interp would hit.
func (k *projKernel) runChecked(em *emitter, cols [][]int32, rows int) error {
	for i := 0; i < rows; i++ {
		if k.cond != nil {
			ok, err := k.cond.eval(nil, cols, i)
			if err != nil {
				return err
			}
			if ok == 0 {
				continue
			}
		}
		if k.gather != nil {
			for j, c := range k.gather {
				em.cols[j] = append(em.cols[j], cols[c][i])
			}
			continue
		}
		if err := emitParts(em, k.parts, k.ar, cols, i); err != nil {
			return err
		}
	}
	return nil
}

// emitParts appends the row the parts make of input row i.
func emitParts(em *emitter, parts []outPart, ar int, cols [][]int32, i int) error {
	oc := 0
	for _, p := range parts {
		if p.wholeRow {
			for c := 0; c < ar; c++ {
				em.cols[oc] = append(em.cols[oc], cols[c][i])
				oc++
			}
			continue
		}
		v, err := p.scalar.eval(nil, cols, i)
		if err != nil {
			// Drop the partial row so the emitter stays row-aligned.
			for c := 0; c < oc; c++ {
				em.cols[c] = em.cols[c][:len(em.cols[c])-1]
			}
			return err
		}
		em.cols[oc] = append(em.cols[oc], int32(v))
		oc++
	}
	return nil
}

// emitRows walks a bound scan body for input row i: conditions evaluate
// lazily like interp's if — only the branch taken is looked at — and a
// concatenation emits its left rows before its right ones.
func (n *stepNode) emitRows(em *emitter, ar int, cols [][]int32, i int) error {
	for {
		switch {
		case n.concat:
			if err := n.then.emitRows(em, ar, cols, i); err != nil {
				return err
			}
			n = n.els
		case n.cond != nil:
			v, err := n.cond.eval(nil, cols, i)
			if err != nil {
				return err
			}
			if v != 0 {
				n = n.then
			} else {
				n = n.els
			}
		case n.emit == nil:
			return nil
		default:
			return emitParts(em, n.emit, ar, cols, i)
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
	bodyF  []*kexpr
	canErr bool
	acc    []int64
	tmp    []int64
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
	for _, c := range consts {
		v, err := c.eval(nil, nil, 0)
		if err != nil {
			return nil, fmt.Errorf("init: %v", err)
		}
		spec.init = append(spec.init, v)
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
	k := &foldKernel{spec: s, acc: append([]int64(nil), s.init...)}
	k.tmp = make([]int64, len(s.init))
	return k
}

// step folds one column block into the accumulator. Body components
// evaluate against the pre-row accumulator (all reads before any write),
// like interp rebuilding the accumulator tuple from the old one.
func (k *foldKernel) step(cols [][]int32, rows int) error {
	if k.bodyF == nil {
		for _, fe := range k.spec.body {
			f := fe.bind(len(cols))
			k.canErr = k.canErr || f.canErr()
			k.bodyF = append(k.bodyF, f)
		}
	}
	if k.canErr {
		for i := 0; i < rows; i++ {
			for j, f := range k.bodyF {
				v, err := f.eval(k.acc, cols, i)
				if err != nil {
					return err
				}
				k.tmp[j] = v
			}
			copy(k.acc, k.tmp)
		}
		return nil
	}
	for i := 0; i < rows; i++ {
		for j, f := range k.bodyF {
			k.tmp[j] = f.evalFast(k.acc, cols, i)
		}
		copy(k.acc, k.tmp)
	}
	return nil
}

// result is the fold's value: the accumulator, through the final lambda when
// there is one, in the shape interp gives it.
func (k *foldKernel) result() (ocal.Value, error) {
	vals := k.acc
	if k.spec.final != nil {
		vals = make([]int64, len(k.spec.final))
		for j, f := range k.spec.final {
			v, err := f.eval(k.acc, nil, 0)
			if err != nil {
				return nil, err
			}
			vals[j] = v
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

// evalStep evaluates an unfoldR step expression against the state windows.
// Like eval it evaluates operands eagerly, left to right, so the first
// failing operation is interp's.
func (e *kexpr) evalStep(ws []stepWin) (int64, error) {
	switch e.kind {
	case kLit:
		return e.lit, nil
	case kEmpty:
		n := ws[e.win].rows() - e.depth
		if n < 0 {
			return 0, errTailEmpty
		}
		return b2i(n == 0), nil
	case kHead:
		w := &ws[e.win]
		if err := w.need(e.depth); err != nil {
			return 0, err
		}
		switch wd := w.width(e.depth); {
		case e.col < 0 && wd == 1:
			return w.value(e.depth, 0), nil
		case e.col < 0:
			return 0, fmt.Errorf("exec: unfoldR step uses a row of %d attributes as an integer", wd)
		case wd == 1:
			return 0, fmt.Errorf("interp: projection .%d on non-tuple %d", e.col+1, w.value(e.depth, 0))
		case e.col >= wd:
			return 0, fmt.Errorf("interp: projection .%d out of range (arity %d)", e.col+1, wd)
		}
		return w.value(e.depth, e.col), nil
	case kCmp:
		if e.l.isRow() && e.r.isRow() {
			c, err := compareRows(ws, e.l, e.r)
			return b2i(cmpHolds(e.op, int64(c), 0)), err
		}
	case kIf:
		c, err := e.c.evalStep(ws)
		if err != nil {
			return 0, err
		}
		if c != 0 {
			return e.l.evalStep(ws)
		}
		return e.r.evalStep(ws)
	}
	a, err := e.l.evalStep(ws)
	if err != nil {
		return 0, err
	}
	if e.r == nil { // Not
		return a ^ 1, nil
	}
	b, err := e.r.evalStep(ws)
	if err != nil {
		return 0, err
	}
	return applyChecked(e.op, a, b)
}

// compareRows orders two state rows like ocal.ValueCompare orders the values
// interp holds for them: attribute by attribute.
func compareRows(ws []stepWin, l, r *kexpr) (int, error) {
	wl, wr := &ws[l.win], &ws[r.win]
	if err := wl.need(l.depth); err != nil {
		return 0, err
	}
	if err := wr.need(r.depth); err != nil {
		return 0, err
	}
	n := wl.width(l.depth)
	if m := wr.width(r.depth); m != n {
		return 0, fmt.Errorf("exec: unfoldR step compares rows of %d and %d attributes", n, m)
	}
	for c := 0; c < n; c++ {
		switch a, b := wl.value(l.depth, c), wr.value(r.depth, c); {
		case a < b:
			return -1, nil
		case a > b:
			return 1, nil
		}
	}
	return 0, nil
}

// evalRow evaluates a row of the step into dst, splicing state rows whole.
func evalRow(parts []outPart, ws []stepWin, dst []int64) ([]int64, error) {
	dst = dst[:0]
	for _, p := range parts {
		if p.wholeRow {
			w := &ws[p.scalar.win]
			if err := w.need(p.scalar.depth); err != nil {
				return dst, err
			}
			dst = w.appendRow(dst, p.scalar.depth)
			continue
		}
		v, err := p.scalar.evalStep(ws)
		if err != nil {
			return dst, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// stepUpd is one component's next state: tailᵐ of itself when keep is set,
// nothing otherwise, behind row when there is one.
type stepUpd struct {
	keep bool
	m    int
	row  []outPart
}

// leaf walks the decisions down to the leaf the current state selects.
func (n *stepNode) leaf(ws []stepWin) (*stepNode, error) {
	for n.cond != nil {
		v, err := n.cond.evalStep(ws)
		if err != nil {
			return nil, err
		}
		if v != 0 {
			n = n.then
		} else {
			n = n.els
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
			smaller := &kexpr{kind: kCmp, op: ocal.OpLt, l: head(i), r: head(best)}
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
