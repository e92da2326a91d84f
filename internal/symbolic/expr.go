// Package symbolic implements the arithmetic expression engine used by the
// OCAS cost estimator. Cost formulas are functions of input cardinalities
// (e.g. x, y) and free tuning parameters (e.g. block sizes k1, k2, buffer
// sizes bin, bout). The engine supports construction, simplification,
// evaluation under an environment, substitution, and closed forms for the
// index sums produced when costing foldL (Section 5 and Section 7.2 of the
// paper: the insertion-sort cost simplifies to x·InitCom + x(x+1)/2·…).
package symbolic

import (
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Expr is a symbolic arithmetic expression over float64-valued variables.
// Expressions are immutable; all operations return new expressions.
type Expr interface {
	// Eval evaluates the expression under env. Unbound variables evaluate
	// to NaN so the error surfaces in the result rather than panicking.
	Eval(env Env) float64
	// String renders a human-readable form.
	String() string
	// key returns a canonical string used for structural comparison and
	// like-term collection. Distinct from String for readability reasons.
	key() string
}

// Env binds variable names to values for evaluation.
type Env map[string]float64

// Const is a numeric literal.
type Const float64

// Var is a named variable (input cardinality or tuning parameter).
type Var string

// Named is a named constant: a value that is the same in every evaluation of
// a formula but not known when the formula is built, such as a size or a
// transfer cost of the memory hierarchy a program is costed under. It
// evaluates, and compiles, as a variable that is not a tuning parameter. Sums,
// products and quotients fold it as they fold a Const: where the fold of
// numbers computes a number, the fold of a named constant keeps the
// computation, as a constant node that holds the fold's operations in the
// fold's order and so evaluates to the bits the fold gives for the
// constants' values. A fold that decides on a constant's value (a zero term
// dropped, a unit factor skipped) keeps the term instead, which moves no
// finite evaluation. Ceil, Log2 and Max take a named constant as an operand.
type Named string

// Compound nodes cache their canonical key, computed once at construction.
// Simplification (Add, Mul, Sum) compares and sorts subterms by key at every
// level, so recomputing keys recursively made building a cost formula
// quadratic in its size; the cache is why the fields below are only ever set
// through the new* constructors. id is zero until a Builder interns the node
// (builder.go), and never changes after that. cst marks a constant node, a
// fold over named constants (see Named): the simplifier takes it as one
// constant and never looks inside.
type nary struct {
	op    string // "+" or "*"
	terms []Expr
	k     string
	id    uint64
	cst   bool
}

type div struct {
	num, den Expr
	k        string
	id       uint64
	cst      bool
}

type unary struct {
	op  string // "ceil", "log2"
	arg Expr
	k   string
	id  uint64
}

type maxNode struct {
	terms []Expr
	k     string
	id    uint64
}

// isConst reports whether the simplifier folds e as a constant: a number, a
// named constant, or a constant node.
func isConst(e Expr) bool {
	switch t := e.(type) {
	case Const, Named:
		return true
	case *nary:
		return t.cst
	case *div:
		return t.cst
	}
	return false
}

// chain folds the constant operands of one sum (seed 0) or product (seed 1)
// in the order they are met: to a number while every operand is one, and
// from the first that is not, into the list of operands a constant node
// evaluates in that order, led by the number folded so far unless that is
// the seed — which the node's evaluation starts from anyway.
type chain struct {
	v   float64
	ops []Expr
	mul bool
}

// push folds one operand: e, or the number v when e is nil.
func (c *chain) push(v float64, e Expr) {
	if k, ok := e.(Const); ok {
		v, e = float64(k), nil
	}
	if e == nil && c.ops == nil {
		if c.mul {
			c.v *= v
		} else {
			c.v += v
		}
		return
	}
	if e == nil {
		e = Const(v)
	}
	if c.ops == nil && (c.mul && c.v != 1 || !c.mul && math.Float64bits(c.v) != 0) {
		c.ops = append(c.ops, Const(c.v))
	}
	c.ops = append(c.ops, e)
}

// deferred reports whether a named constant took part.
func (c *chain) deferred() bool { return c.ops != nil }

// expr returns the folded constant: a Const, or the constant node.
func (c *chain) expr() Expr {
	switch len(c.ops) {
	case 0:
		return Const(c.v)
	case 1:
		return c.ops[0]
	}
	op := "+"
	if c.mul {
		op = "*"
	}
	n := newNary(op, c.ops)
	n.cst = true
	return n
}

// zero reports whether the product chain has a zero factor, which makes the
// product zero whatever the named constants are.
func (c *chain) zero() bool {
	if c.ops == nil {
		return c.v == 0
	}
	for _, e := range c.ops {
		if k, ok := e.(Const); ok && k == 0 {
			return true
		}
	}
	return false
}

// constDiv is the constant node a/b of two constants, one of them named.
func constDiv(a, b Expr) Expr {
	d := newDiv(a, b)
	d.cst = true
	return d
}

// keyed is an operand with its canonical key, computed once: sorting or
// deduplicating operands by key would otherwise format a constant's key (a
// strconv call) at every comparison.
type keyed struct {
	k string
	e Expr
}

func cmpKeyed(a, b keyed) int { return strings.Compare(a.k, b.k) }

func newNary(op string, terms []Expr) *nary {
	var buf [8]string
	keys := buf[:0]
	n := 2 + len(op) + len(terms)
	for _, t := range terms {
		k := t.key()
		keys = append(keys, k)
		n += len(k)
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString("(")
	b.WriteString(op)
	for _, k := range keys {
		b.WriteString(" ")
		b.WriteString(k)
	}
	b.WriteString(")")
	return &nary{op: op, terms: terms, k: b.String()}
}

func newDiv(num, den Expr) *div {
	return &div{num: num, den: den, k: "(/ " + num.key() + " " + den.key() + ")"}
}

func newUnary(op string, arg Expr) *unary {
	return &unary{op: op, arg: arg, k: "(" + op + " " + arg.key() + ")"}
}

// newMax builds a max node over ts, which are sorted by key.
func newMax(ts []keyed) *maxNode {
	terms := make([]Expr, len(ts))
	n := len("(max)") + len(ts)
	for i, t := range ts {
		terms[i] = t.e
		n += len(t.k)
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString("(max")
	for _, t := range ts {
		b.WriteString(" ")
		b.WriteString(t.k)
	}
	b.WriteString(")")
	return &maxNode{terms: terms, k: b.String()}
}

func (c Const) Eval(Env) float64 { return float64(c) }
func (c Const) String() string {
	f := float64(c)
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}
func (c Const) key() string { return c.String() }

func (v Var) Eval(env Env) float64 {
	if x, ok := env[string(v)]; ok {
		return x
	}
	return math.NaN()
}
func (v Var) String() string { return string(v) }
func (v Var) key() string    { return string(v) }

func (v Named) Eval(env Env) float64 { return Var(v).Eval(env) }
func (v Named) String() string       { return string(v) }
func (v Named) key() string          { return string(v) }

func (n *nary) Eval(env Env) float64 {
	if n.op == "+" {
		s := 0.0
		for _, t := range n.terms {
			s += t.Eval(env)
		}
		return s
	}
	p := 1.0
	for _, t := range n.terms {
		p *= t.Eval(env)
	}
	return p
}

func (n *nary) String() string {
	parts := make([]string, len(n.terms))
	for i, t := range n.terms {
		s := t.String()
		if inner, ok := t.(*nary); ok && n.op == "*" && inner.op == "+" {
			s = "(" + s + ")"
		}
		if _, ok := t.(*div); ok && n.op == "*" {
			s = "(" + s + ")"
		}
		parts[i] = s
	}
	sep := " + "
	if n.op == "*" {
		sep = "*"
	}
	return strings.Join(parts, sep)
}

func (n *nary) key() string { return n.k }

func (d *div) Eval(env Env) float64 { return d.num.Eval(env) / d.den.Eval(env) }
func (d *div) String() string {
	ns := d.num.String()
	if _, ok := d.num.(*nary); ok {
		ns = "(" + ns + ")"
	}
	ds := d.den.String()
	switch d.den.(type) {
	case *nary, *div:
		ds = "(" + ds + ")"
	}
	return ns + "/" + ds
}
func (d *div) key() string { return d.k }

func (u *unary) Eval(env Env) float64 {
	x := u.arg.Eval(env)
	switch u.op {
	case "ceil":
		return math.Ceil(x)
	case "log2":
		return math.Log2(x)
	}
	return math.NaN()
}
func (u *unary) String() string { return u.op + "(" + u.arg.String() + ")" }
func (u *unary) key() string    { return u.k }

func (m *maxNode) Eval(env Env) float64 {
	best := m.terms[0].Eval(env)
	for _, t := range m.terms[1:] {
		if x := t.Eval(env); x > best {
			best = x
		}
	}
	return best
}
func (m *maxNode) String() string {
	parts := make([]string, len(m.terms))
	for i, t := range m.terms {
		parts[i] = t.String()
	}
	return "max(" + strings.Join(parts, ", ") + ")"
}
func (m *maxNode) key() string { return m.k }

// Zero and One are shared constants.
var (
	Zero = Const(0)
	One  = Const(1)
)

// C returns a constant expression.
func C(x float64) Expr { return Const(x) }

// V returns a variable expression.
func V(name string) Expr { return Var(name) }

// likeTerm is one non-constant term of a sum under construction: the
// canonical key of its non-constant factor, that factor, and its constant
// coefficient, the number c or, when named constants take part, ce. term is
// the term itself when it is a product that Mul(its coefficient, e) rebuilds
// exactly (see rebuilds).
type likeTerm struct {
	k    string
	e    Expr
	c    float64
	ce   Expr
	term *nary
}

// Add returns the simplified sum of terms.
func Add(terms ...Expr) Expr {
	var buf [8]likeTerm
	var constSum chain
	ts := addTerms(buf[:0], &constSum, terms)
	// Collect like terms: a stable sort by key puts each class together in
	// walk order, so its first term represents it and its coefficients are
	// summed in the order they were met.
	slices.SortStableFunc(ts, func(a, b likeTerm) int { return strings.Compare(a.k, b.k) })
	flat := make([]Expr, 0, len(ts)+1)
	for i := 0; i < len(ts); {
		first := ts[i]
		var c chain
		j := i
		for ; j < len(ts) && ts[j].k == first.k; j++ {
			c.push(ts[j].c, ts[j].ce)
		}
		alone := j == i+1
		i = j
		switch {
		case c.deferred():
			if alone && first.term != nil && first.term.terms[0] == first.ce {
				flat = append(flat, first.term)
			} else {
				flat = append(flat, Mul(c.expr(), first.e))
			}
		case c.v == 0:
		case c.v == 1:
			// Mul(1, x) returns a node with x's exact key; reusing x skips
			// the rebuild without changing the formula.
			flat = append(flat, first.e)
		case alone && first.term != nil &&
			math.Float64bits(c.v) == math.Float64bits(float64(first.term.terms[0].(Const))):
			// Mul(Const(c), first.e) would rebuild the term itself.
			flat = append(flat, first.term)
		default:
			flat = append(flat, Mul(Const(c.v), first.e))
		}
	}
	if constSum.deferred() || constSum.v != 0 {
		flat = append(flat, constSum.expr())
	}
	switch len(flat) {
	case 0:
		return Zero
	case 1:
		return flat[0]
	}
	return newNary("+", flat)
}

// addTerms appends the terms of a sum to ts, flattening nested sums and
// splitting each term's constant coefficient off, and folds the constant
// terms into constSum, both in walk order.
func addTerms(ts []likeTerm, constSum *chain, terms []Expr) []likeTerm {
	for _, e := range terms {
		if isConst(e) {
			constSum.push(0, e)
			continue
		}
		if t, ok := e.(*nary); ok && t.op == "+" {
			ts = addTerms(ts, constSum, t.terms)
			continue
		}
		c, rest := splitCoeff(e)
		lt := likeTerm{k: rest.key(), e: rest, c: c.v, term: rebuilds(e)}
		if c.deferred() {
			lt.ce = c.expr()
		}
		ts = append(ts, lt)
	}
	return ts
}

// rebuilds returns e when e is a product whose one constant factor comes
// first and whose other factors are neither products nor quotients — then,
// for splitCoeff(e) = (c, rest), Mul(c, rest) has nothing to flatten, merge
// or reorder and rebuilds e exactly — and nil otherwise.
func rebuilds(e Expr) *nary {
	n, ok := e.(*nary)
	if !ok || n.op != "*" || len(n.terms) < 2 || !isConst(n.terms[0]) {
		return nil
	}
	for _, t := range n.terms[1:] {
		if isConst(t) {
			return nil
		}
		switch t := t.(type) {
		case *div:
			return nil
		case *nary:
			if t.op == "*" {
				return nil
			}
		}
	}
	return n
}

// splitCoeff splits e into its constant coefficient and residual expression.
func splitCoeff(e Expr) (chain, Expr) {
	c := chain{v: 1, mul: true}
	n, ok := e.(*nary)
	if !ok || n.op != "*" || !slices.ContainsFunc(n.terms, isConst) {
		// No constant factor: the residual is e itself; skip the rebuild.
		return c, e
	}
	rest := make([]Expr, 0, len(n.terms))
	for _, t := range n.terms {
		if isConst(t) {
			c.push(0, t)
		} else {
			rest = append(rest, t)
		}
	}
	switch len(rest) {
	case 0:
		return c, One
	case 1:
		return c, rest[0]
	}
	return c, newNary("*", rest)
}

// Mul returns the simplified product of factors.
func Mul(factors ...Expr) Expr {
	n := 1
	for _, f := range factors {
		if t, ok := f.(*nary); ok && t.op == "*" {
			n += len(t.terms)
		} else {
			n++
		}
	}
	// flat[0] is kept for the folded constant, the non-constant factors follow.
	constProd := chain{v: 1, mul: true}
	flat := mulFactors(make([]Expr, 1, n), &constProd, factors)
	if constProd.zero() {
		return Zero
	}
	// Merge division factors: a * (n/d) = (a*n)/d. A quotient is kept as a
	// factor until here to preserve exactness.
	var dens []Expr
	for i, f := range flat[1:] {
		if d, ok := f.(*div); ok {
			flat[1+i] = d.num
			dens = append(dens, d.den)
		}
	}
	nums := flat[1:]
	sortByKey(nums)
	if constProd.deferred() || constProd.v != 1 {
		flat[0] = constProd.expr()
		nums = flat
	}
	var num Expr
	switch len(nums) {
	case 0:
		num = One
	case 1:
		num = nums[0]
	default:
		num = newNary("*", nums)
	}
	if len(dens) == 0 {
		return num
	}
	var den Expr
	if len(dens) == 1 {
		den = dens[0]
	} else {
		den = Mul(dens...)
	}
	return Div(num, den)
}

// mulFactors appends the non-constant factors of a product to flat,
// flattening nested products, and folds the constant factors into
// constProd, both in walk order.
func mulFactors(flat []Expr, constProd *chain, factors []Expr) []Expr {
	for _, e := range factors {
		if isConst(e) {
			constProd.push(0, e)
			continue
		}
		if t, ok := e.(*nary); ok && t.op == "*" {
			flat = mulFactors(flat, constProd, t.terms)
			continue
		}
		flat = append(flat, e)
	}
	return flat
}

// sortByKey stable-sorts es by canonical key, computing each key once.
func sortByKey(es []Expr) {
	if len(es) < 2 {
		return
	}
	var buf [8]keyed
	ks := buf[:0]
	for _, e := range es {
		ks = append(ks, keyed{e.key(), e})
	}
	slices.SortStableFunc(ks, cmpKeyed)
	for i := range ks {
		es[i] = ks[i].e
	}
}

// Sub returns a - b.
func Sub(a, b Expr) Expr { return Add(a, Mul(Const(-1), b)) }

// Div returns the simplified quotient a/b.
func Div(a, b Expr) Expr {
	if bc, ok := b.(Const); ok {
		if bc == 1 {
			return a
		}
		if ac, ok := a.(Const); ok && bc != 0 {
			return Const(float64(ac) / float64(bc))
		}
		if isConst(a) && bc != 0 {
			return constDiv(a, b)
		}
		if bc != 0 {
			return Mul(Const(1/float64(bc)), a)
		}
	} else if isConst(b) {
		if isConst(a) {
			return constDiv(a, b)
		}
		return Mul(constDiv(One, b), a)
	}
	if ac, ok := a.(Const); ok && ac == 0 {
		return Zero
	}
	if sameKey(a, b) {
		return One
	}
	// (x/y)/z -> x/(y*z)
	if ad, ok := a.(*div); ok && !ad.cst {
		return Div(ad.num, Mul(ad.den, b))
	}
	return newDiv(a, b)
}

// sameKey reports a.key() == b.key(). A constant's key is a number and a
// compound node's starts with "(", so a constant is told apart from a
// compound node without formatting its key.
func sameKey(a, b Expr) bool {
	_, aConst := a.(Const)
	_, bConst := b.(Const)
	if aConst != bConst && (isCompound(a) || isCompound(b)) {
		return false
	}
	return a.key() == b.key()
}

func isCompound(e Expr) bool {
	switch e.(type) {
	case Const, Var, Named:
		return false
	}
	return true
}

// Ceil returns ceil(a). Constants fold; ceil(ceil(x)) collapses.
func Ceil(a Expr) Expr {
	if c, ok := a.(Const); ok {
		return Const(math.Ceil(float64(c)))
	}
	if u, ok := a.(*unary); ok && u.op == "ceil" {
		return a
	}
	return newUnary("ceil", a)
}

// Log2 returns log2(a).
func Log2(a Expr) Expr {
	if c, ok := a.(Const); ok && c > 0 {
		return Const(math.Log2(float64(c)))
	}
	return newUnary("log2", a)
}

// Max returns max of terms, deduplicated; constants fold together.
func Max(terms ...Expr) Expr {
	var buf [8]keyed
	var fold constFold
	flat := maxTerms(buf[:0], &fold, terms)
	if fold.have {
		c := Const(fold.v)
		flat = append(flat, keyed{c.key(), c})
	}
	switch len(flat) {
	case 0:
		return Zero
	case 1:
		return flat[0].e
	}
	slices.SortStableFunc(flat, cmpKeyed)
	return newMax(flat)
}

// constFold is the running max of a max's constant terms. A named constant
// stays a term: max is exact, so its value is the fold's.
type constFold struct {
	have bool
	v    float64
}

// maxTerms appends the distinct non-constant terms of a max under
// construction to flat, first occurrence first, flattening nested maxes,
// and folds the constant terms into fold.
func maxTerms(flat []keyed, fold *constFold, terms []Expr) []keyed {
next:
	for _, e := range terms {
		if m, ok := e.(*maxNode); ok {
			flat = maxTerms(flat, fold, m.terms)
			continue
		}
		if c, ok := e.(Const); ok {
			v := float64(c)
			if !fold.have {
				fold.have, fold.v = true, v
			} else if v > fold.v {
				fold.v = v
			}
			continue
		}
		k := e.key()
		for _, t := range flat {
			if t.k == k {
				continue next
			}
		}
		flat = append(flat, keyed{k, e})
	}
	return flat
}

// Equal reports structural equality after simplification.
func Equal(a, b Expr) bool { return a.key() == b.key() }

// FreeVars returns the sorted set of variable names in e.
func FreeVars(e Expr) []string {
	set := map[string]bool{}
	var walk func(Expr)
	walk = func(e Expr) {
		switch t := e.(type) {
		case Var, Named:
			set[t.String()] = true
		case *nary:
			for _, s := range t.terms {
				walk(s)
			}
		case *div:
			walk(t.num)
			walk(t.den)
		case *unary:
			walk(t.arg)
		case *maxNode:
			for _, s := range t.terms {
				walk(s)
			}
		}
	}
	walk(e)
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Subst replaces every occurrence of the named variables with the given
// expressions, rebuilding (and hence re-simplifying) the tree.
func Subst(e Expr, bind map[string]Expr) Expr {
	switch t := e.(type) {
	case Const:
		return t
	case Var:
		if r, ok := bind[string(t)]; ok {
			return r
		}
		return t
	case *nary:
		args := make([]Expr, len(t.terms))
		for i, s := range t.terms {
			args[i] = Subst(s, bind)
		}
		if t.op == "+" {
			return Add(args...)
		}
		return Mul(args...)
	case *div:
		return Div(Subst(t.num, bind), Subst(t.den, bind))
	case *unary:
		a := Subst(t.arg, bind)
		switch t.op {
		case "ceil":
			return Ceil(a)
		case "log2":
			return Log2(a)
		}
	case *maxNode:
		args := make([]Expr, len(t.terms))
		for i, s := range t.terms {
			args[i] = Subst(s, bind)
		}
		return Max(args...)
	}
	return e
}
