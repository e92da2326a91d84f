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

// Compound nodes cache their canonical key, computed once at construction.
// Simplification (Add, Mul, Sum) compares and sorts subterms by key at every
// level, so recomputing keys recursively made building a cost formula
// quadratic in its size; the cache is why the fields below are only ever set
// through the new* constructors. id is zero until a Builder interns the node
// (builder.go), and never changes after that.
type nary struct {
	op    string // "+" or "*"
	terms []Expr
	k     string
	id    uint64
}

type div struct {
	num, den Expr
	k        string
	id       uint64
}

type unary struct {
	op  string // "ceil", "floor", "log2"
	arg Expr
	k   string
	id  uint64
}

type minmax struct {
	op    string // "max" or "min"
	terms []Expr
	k     string
	id    uint64
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

// newMinmax builds a min/max node over ts, which are sorted by key.
func newMinmax(op string, ts []keyed) *minmax {
	terms := make([]Expr, len(ts))
	n := 2 + len(op) + len(ts)
	for i, t := range ts {
		terms[i] = t.e
		n += len(t.k)
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString("(")
	b.WriteString(op)
	for _, t := range ts {
		b.WriteString(" ")
		b.WriteString(t.k)
	}
	b.WriteString(")")
	return &minmax{op: op, terms: terms, k: b.String()}
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
	case "floor":
		return math.Floor(x)
	case "log2":
		return math.Log2(x)
	}
	return math.NaN()
}
func (u *unary) String() string { return u.op + "(" + u.arg.String() + ")" }
func (u *unary) key() string    { return u.k }

func (m *minmax) Eval(env Env) float64 {
	best := m.terms[0].Eval(env)
	for _, t := range m.terms[1:] {
		x := t.Eval(env)
		if (m.op == "max" && x > best) || (m.op == "min" && x < best) {
			best = x
		}
	}
	return best
}
func (m *minmax) String() string {
	parts := make([]string, len(m.terms))
	for i, t := range m.terms {
		parts[i] = t.String()
	}
	return m.op + "(" + strings.Join(parts, ", ") + ")"
}
func (m *minmax) key() string { return m.k }

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
// coefficient. term is the term itself when it is a product that
// Mul(its coefficient, e) rebuilds exactly (see rebuilds).
type likeTerm struct {
	k    string
	e    Expr
	c    float64
	term *nary
}

// Add returns the simplified sum of terms.
func Add(terms ...Expr) Expr {
	var buf [8]likeTerm
	ts, constSum := addTerms(buf[:0], 0, terms)
	// Collect like terms: a stable sort by key puts each class together in
	// walk order, so its first term represents it and its coefficients are
	// summed in the order they were met.
	slices.SortStableFunc(ts, func(a, b likeTerm) int { return strings.Compare(a.k, b.k) })
	flat := make([]Expr, 0, len(ts)+1)
	for i := 0; i < len(ts); {
		first, c := ts[i], 0.0
		j := i
		for ; j < len(ts) && ts[j].k == first.k; j++ {
			c += ts[j].c
		}
		alone := j == i+1
		i = j
		switch {
		case c == 0:
		case c == 1:
			// Mul(1, x) returns a node with x's exact key; reusing x skips
			// the rebuild without changing the formula.
			flat = append(flat, first.e)
		case alone && first.term != nil &&
			math.Float64bits(c) == math.Float64bits(float64(first.term.terms[0].(Const))):
			// Mul(Const(c), first.e) would rebuild the term itself.
			flat = append(flat, first.term)
		default:
			flat = append(flat, Mul(Const(c), first.e))
		}
	}
	if constSum != 0 {
		flat = append(flat, Const(constSum))
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
func addTerms(ts []likeTerm, constSum float64, terms []Expr) ([]likeTerm, float64) {
	for _, e := range terms {
		switch t := e.(type) {
		case Const:
			constSum += float64(t)
			continue
		case *nary:
			if t.op == "+" {
				ts, constSum = addTerms(ts, constSum, t.terms)
				continue
			}
		}
		c, rest := splitCoeff(e)
		ts = append(ts, likeTerm{k: rest.key(), e: rest, c: c, term: rebuilds(e)})
	}
	return ts, constSum
}

// rebuilds returns e when e is a product whose one constant factor comes
// first and whose other factors are neither products nor quotients — then,
// for splitCoeff(e) = (c, rest), Mul(Const(c), rest) has nothing to
// flatten, merge or reorder and rebuilds e exactly — and nil otherwise.
func rebuilds(e Expr) *nary {
	n, ok := e.(*nary)
	if !ok || n.op != "*" || len(n.terms) < 2 {
		return nil
	}
	if _, ok := n.terms[0].(Const); !ok {
		return nil
	}
	for _, t := range n.terms[1:] {
		switch t := t.(type) {
		case Const, *div:
			return nil
		case *nary:
			if t.op == "*" {
				return nil
			}
		}
	}
	return n
}

// splitCoeff splits e into (constant coefficient, residual expression).
func splitCoeff(e Expr) (float64, Expr) {
	n, ok := e.(*nary)
	if !ok || n.op != "*" {
		return 1, e
	}
	hasConst := false
	for _, t := range n.terms {
		if _, ok := t.(Const); ok {
			hasConst = true
			break
		}
	}
	if !hasConst {
		// No constant factor: the residual is e itself; skip the rebuild.
		return 1, e
	}
	c := 1.0
	rest := make([]Expr, 0, len(n.terms))
	for _, t := range n.terms {
		if k, ok := t.(Const); ok {
			c *= float64(k)
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
	flat, constProd := mulFactors(make([]Expr, 1, n), 1, factors)
	if constProd == 0 {
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
	if constProd != 1 {
		flat[0] = Const(constProd)
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
func mulFactors(flat []Expr, constProd float64, factors []Expr) ([]Expr, float64) {
	for _, e := range factors {
		switch t := e.(type) {
		case Const:
			constProd *= float64(t)
			continue
		case *nary:
			if t.op == "*" {
				flat, constProd = mulFactors(flat, constProd, t.terms)
				continue
			}
		}
		flat = append(flat, e)
	}
	return flat, constProd
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
		if bc != 0 {
			return Mul(Const(1/float64(bc)), a)
		}
	}
	if ac, ok := a.(Const); ok && ac == 0 {
		return Zero
	}
	if sameKey(a, b) {
		return One
	}
	// (x/y)/z -> x/(y*z)
	if ad, ok := a.(*div); ok {
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
	case Const, Var:
		return false
	}
	return true
}

// Ceil returns ceil(a). Constants fold; ceil(ceil(x)) collapses.
func Ceil(a Expr) Expr {
	if c, ok := a.(Const); ok {
		return Const(math.Ceil(float64(c)))
	}
	if u, ok := a.(*unary); ok && (u.op == "ceil" || u.op == "floor") {
		return a
	}
	return newUnary("ceil", a)
}

// Floor returns floor(a).
func Floor(a Expr) Expr {
	if c, ok := a.(Const); ok {
		return Const(math.Floor(float64(c)))
	}
	return newUnary("floor", a)
}

// Log2 returns log2(a).
func Log2(a Expr) Expr {
	if c, ok := a.(Const); ok && c > 0 {
		return Const(math.Log2(float64(c)))
	}
	return newUnary("log2", a)
}

// Max returns max of terms, deduplicated; constants fold together.
func Max(terms ...Expr) Expr { return mkMinMax("max", terms) }

// Min returns min of terms, deduplicated; constants fold together.
func Min(terms ...Expr) Expr { return mkMinMax("min", terms) }

func mkMinMax(op string, terms []Expr) Expr {
	var buf [8]keyed
	var fold constFold
	flat := minMaxTerms(op, buf[:0], &fold, terms)
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
	return newMinmax(op, flat)
}

// constFold is the running max (or min) of a min/max's constant terms.
type constFold struct {
	have bool
	v    float64
}

// minMaxTerms appends the distinct non-constant terms of an op-node under
// construction to flat, first occurrence first, flattening nested op-nodes,
// and folds the constant terms into fold.
func minMaxTerms(op string, flat []keyed, fold *constFold, terms []Expr) []keyed {
next:
	for _, e := range terms {
		if m, ok := e.(*minmax); ok && m.op == op {
			flat = minMaxTerms(op, flat, fold, m.terms)
			continue
		}
		if c, ok := e.(Const); ok {
			v := float64(c)
			if !fold.have {
				fold.have, fold.v = true, v
			} else if (op == "max" && v > fold.v) || (op == "min" && v < fold.v) {
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
		case Var:
			set[string(t)] = true
		case *nary:
			for _, s := range t.terms {
				walk(s)
			}
		case *div:
			walk(t.num)
			walk(t.den)
		case *unary:
			walk(t.arg)
		case *minmax:
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
		case "floor":
			return Floor(a)
		case "log2":
			return Log2(a)
		}
	case *minmax:
		args := make([]Expr, len(t.terms))
		for i, s := range t.terms {
			args[i] = Subst(s, bind)
		}
		if t.op == "max" {
			return Max(args...)
		}
		return Min(args...)
	}
	return e
}
