package ocal

import "fmt"

// Param is a blocking/buffering parameter appearing in definitions such as
// for (x [k] ← e). A parameter is either a literal integer or a named
// symbolic parameter whose value is chosen by the non-linear optimizer
// (Section 6, apply-block). The zero value means the literal 1, matching the
// paper's "whenever omitted, its value is assumed to be 1".
type Param struct {
	Sym string // non-empty: symbolic parameter name (e.g. "k1")
	Val int64  // literal value when Sym == ""
}

// Lit returns a literal parameter.
func Lit(n int64) Param { return Param{Val: n} }

// SymP returns a symbolic parameter.
func SymP(name string) Param { return Param{Sym: name} }

// Literal returns the literal value and true when the parameter is not
// symbolic. The zero Param is the literal 1.
func (p Param) Literal() (int64, bool) {
	if p.Sym != "" {
		return 0, false
	}
	if p.Val == 0 {
		return 1, true
	}
	return p.Val, true
}

// IsOne reports whether the parameter is literally 1.
func (p Param) IsOne() bool {
	v, ok := p.Literal()
	return ok && v == 1
}

func (p Param) String() string {
	if p.Sym != "" {
		return p.Sym
	}
	v, _ := p.Literal()
	return fmt.Sprintf("%d", v)
}

// Bind resolves the parameter against optimizer-chosen values; literal
// parameters ignore the bindings.
func (p Param) Bind(vals map[string]int64) int64 {
	if v, ok := p.Literal(); ok {
		return v
	}
	if v, ok := vals[p.Sym]; ok {
		return v
	}
	return 1
}

// PrimOp enumerates the primitive functions p of Figure 1 plus the
// constant-time list definitions (head, tail, length) that OCAS provides
// efficient code-generator plugins for.
type PrimOp int

const (
	OpEq PrimOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpAnd
	OpOr
	OpNot
	OpConcat // list union ⊔ (concatenation)
	OpHead
	OpTail
	OpLength
	OpHash // hash of a value, used by partition
)

var primNames = map[PrimOp]string{
	OpEq: "==", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpAnd: "and", OpOr: "or", OpNot: "not", OpConcat: "++",
	OpHead: "head", OpTail: "tail", OpLength: "length", OpHash: "hash",
}

func (op PrimOp) String() string { return primNames[op] }

// Infix reports whether the operator renders infix.
func (op PrimOp) Infix() bool {
	switch op {
	case OpNot, OpHead, OpTail, OpLength, OpHash:
		return false
	}
	return true
}

// CardHint is a programmer-supplied worst-case output cardinality estimate
// for a definition application (Section 5.1: "we also allow the programmer
// to annotate any expression with a custom result size estimate").
type CardHint int

const (
	// HintNone uses the default worst-case rule of the cost estimator,
	// which for a merge is card(out) = Σ card(input lists), the shape of
	// union-like merges (the paper's set/multiset union examples).
	HintNone CardHint = iota
	// HintFirstCard estimates card(out) = card(first input list); the shape
	// of difference-like merges (the paper's multiset difference examples).
	HintFirstCard
	// HintMaxCards estimates card(out) = max over input list cards
	// (duplicate removal).
	HintMaxCards
)

// SeqAnnot is the seq-ac annotation [m1 ⇝ m2] marking an expression whose
// data transfers between the named hierarchy nodes are known to be
// sequential (Section 6.2). It only affects costing.
type SeqAnnot struct {
	From, To string
}

// Expr is an OCAL expression.
type Expr interface{ isExpr() }

// Var references a bound variable or a program input.
type Var struct{ Name string }

// IntLit, BoolLit and StrLit are atomic constants.
type IntLit struct{ V int64 }
type BoolLit struct{ V bool }
type StrLit struct{ V string }

// Lam is λ〈p1,...,pn〉.body. With a single parameter the argument binds
// whole; with several, the argument must be a tuple that is destructured.
type Lam struct {
	Params []string
	Body   Expr
}

// App is function application e1 e2.
type App struct{ Fn, Arg Expr }

// Tup is tuple construction 〈e1, ..., en〉.
type Tup struct{ Elems []Expr }

// Proj is tuple projection e.i (1-based, per the paper).
type Proj struct {
	E Expr
	I int
}

// Single is the singleton list [e].
type Single struct{ E Expr }

// Empty is the empty list [].
type Empty struct{}

// If is if c then e1 else e2.
type If struct{ Cond, Then, Else Expr }

// Prim is a primitive application p(e1, ..., en).
type Prim struct {
	Op   PrimOp
	Args []Expr
}

// FlatMap is the function-valued flatMap(f) : [τ1] → [τ2].
type FlatMap struct{ Fn Expr }

// FoldL is the function-valued foldL(c, f) : [τ1] → τ2 with f : 〈τ2,τ1〉→τ2.
type FoldL struct {
	Init Expr
	Fn   Expr
}

// For is the functional for loop of Figure 2, used as an expression:
//
//	for (x [k] ← src) [outK] body
//
// It iterates over src in blocks of k elements. When k = 1 the variable
// binds each element; when k > 1 (or symbolic) it binds each block (a list
// of ≤ k elements), matching Example 1 where `for (xBlock [k1] ← R)` binds
// blocks and the nested `for (x ← xBlock)` recovers elements. The body must
// produce a list; the loop concatenates the per-iteration lists. outK is the
// output buffering parameter introduced by apply-block; Seq is the optional
// seq-ac annotation. Both affect costing only.
type For struct {
	X    string
	K    Param
	Src  Expr
	OutK Param
	Seq  *SeqAnnot
	Body Expr
}

// TreeFold is the function-valued treeFold[k](c, f) : [τ] → τ. It reduces a
// list with the k-ary function f (taking a k-tuple) using a queue,
// producing a tree-shaped bracketing; c pads incomplete groups and is the
// identity of f.
type TreeFold struct {
	K    Param
	Init Expr
	Fn   Expr
	// OutK is the output buffering parameter (elements per write request)
	// introduced by apply-block; it corresponds to b_out in the paper's
	// external merge-sort cost formula. Costing only.
	OutK Param
}

// UnfoldR is the function-valued unfoldR(f) : 〈[τ1],...,[τn]〉 → [τr]. The
// step f maps the tuple of remaining lists to 〈chunk, remaining'〉; iteration
// stops when all lists are empty. K is the transfer block size introduced by
// the blocked-unfoldR variant of apply-block ("we also use an analogous rule
// to introduce bigger blocks to our implementation of unfoldR"). Hint
// optionally overrides the output size estimate.
type UnfoldR struct {
	Fn   Expr
	K    Param
	Hint CardHint
	// OutK is the output buffering parameter introduced by apply-block for
	// merges whose result is written out. Costing only.
	OutK Param
}

// Mrg is the named binary merge step of Figure 2:
// mrg : 〈[τ],[τ]〉 → 〈[τ], 〈[τ],[τ]〉〉.
type Mrg struct{}

// ZipStep is the named z step of Figure 2 zipping n lists:
// z : 〈[τ1],...,[τn]〉 → 〈[〈τ1,...,τn〉], 〈[τ1],...,[τn]〉〉.
// N is the arity.
type ZipStep struct{ N int }

// FuncPow is funcPow[k](f), the 2^k-ary function obtained from the binary f
// by balanced composition (Figure 2). Inside UnfoldR with f = mrg it denotes
// the 2^k-way merge step (the code-generator plugin of Section 7.2).
type FuncPow struct {
	K  int
	Fn Expr
}

// PartitionF is the function-valued partition[s] : [τ] → [[τ]] distributing
// elements into s buckets by the hash of their first component (hash-part
// rule). OCAS provides the linear-time implementation plugin. s is a tuning
// parameter.
type PartitionF struct{ S Param }

// ZipLists is the function-valued zip : 〈[[τ]],...〉 → [〈[τ],...〉] pairing
// the i-th buckets of each partitioned input (used by hash-part).
type ZipLists struct{ N int }

func (Var) isExpr()        {}
func (IntLit) isExpr()     {}
func (BoolLit) isExpr()    {}
func (StrLit) isExpr()     {}
func (Lam) isExpr()        {}
func (App) isExpr()        {}
func (Tup) isExpr()        {}
func (Proj) isExpr()       {}
func (Single) isExpr()     {}
func (Empty) isExpr()      {}
func (If) isExpr()         {}
func (Prim) isExpr()       {}
func (FlatMap) isExpr()    {}
func (FoldL) isExpr()      {}
func (For) isExpr()        {}
func (TreeFold) isExpr()   {}
func (UnfoldR) isExpr()    {}
func (Mrg) isExpr()        {}
func (ZipStep) isExpr()    {}
func (FuncPow) isExpr()    {}
func (PartitionF) isExpr() {}
func (ZipLists) isExpr()   {}

// Children returns the direct subexpressions of e in a fixed order.
func Children(e Expr) []Expr {
	switch t := e.(type) {
	case Lam:
		return []Expr{t.Body}
	case App:
		return []Expr{t.Fn, t.Arg}
	case Tup:
		return append([]Expr(nil), t.Elems...)
	case Proj:
		return []Expr{t.E}
	case Single:
		return []Expr{t.E}
	case If:
		return []Expr{t.Cond, t.Then, t.Else}
	case Prim:
		return append([]Expr(nil), t.Args...)
	case FlatMap:
		return []Expr{t.Fn}
	case FoldL:
		return []Expr{t.Init, t.Fn}
	case For:
		return []Expr{t.Src, t.Body}
	case TreeFold:
		return []Expr{t.Init, t.Fn}
	case UnfoldR:
		return []Expr{t.Fn}
	case FuncPow:
		return []Expr{t.Fn}
	}
	return nil
}

// WithChildren rebuilds e with the given children (same order/arity as
// Children). It panics on arity mismatch, which indicates a rewriting bug.
func WithChildren(e Expr, kids []Expr) Expr {
	need := len(Children(e))
	if len(kids) != need {
		panic(fmt.Sprintf("ocal: WithChildren arity %d != %d for %T", len(kids), need, e))
	}
	switch t := e.(type) {
	case Lam:
		t.Body = kids[0]
		return t
	case App:
		t.Fn, t.Arg = kids[0], kids[1]
		return t
	case Tup:
		t.Elems = kids
		return t
	case Proj:
		t.E = kids[0]
		return t
	case Single:
		t.E = kids[0]
		return t
	case If:
		t.Cond, t.Then, t.Else = kids[0], kids[1], kids[2]
		return t
	case Prim:
		t.Args = kids
		return t
	case FlatMap:
		t.Fn = kids[0]
		return t
	case FoldL:
		t.Init, t.Fn = kids[0], kids[1]
		return t
	case For:
		t.Src, t.Body = kids[0], kids[1]
		return t
	case TreeFold:
		t.Init, t.Fn = kids[0], kids[1]
		return t
	case UnfoldR:
		t.Fn = kids[0]
		return t
	case FuncPow:
		t.Fn = kids[0]
		return t
	}
	return e
}

// FreeVars returns the set of free variable names in e.
func FreeVars(e Expr) map[string]bool {
	out := map[string]bool{}
	var walk func(e Expr, bound map[string]bool)
	walk = func(e Expr, bound map[string]bool) {
		switch t := e.(type) {
		case Var:
			if !bound[t.Name] {
				out[t.Name] = true
			}
		case Lam:
			nb := extend(bound, t.Params...)
			walk(t.Body, nb)
		case For:
			walk(t.Src, bound)
			walk(t.Body, extend(bound, t.X))
		default:
			for _, c := range Children(e) {
				walk(c, bound)
			}
		}
	}
	walk(e, map[string]bool{})
	return out
}

func extend(m map[string]bool, names ...string) map[string]bool {
	nm := make(map[string]bool, len(m)+len(names))
	for k, v := range m {
		nm[k] = v
	}
	for _, n := range names {
		nm[n] = true
	}
	return nm
}

// Params collects every symbolic parameter name appearing in e.
func Params(e Expr) []string {
	seen := map[string]bool{}
	var order []string
	add := func(p Param) {
		if p.Sym != "" && !seen[p.Sym] {
			seen[p.Sym] = true
			order = append(order, p.Sym)
		}
	}
	var walk func(Expr)
	walk = func(e Expr) {
		switch t := e.(type) {
		case For:
			add(t.K)
			add(t.OutK)
		case TreeFold:
			add(t.K)
			add(t.OutK)
		case UnfoldR:
			add(t.K)
			add(t.OutK)
		case PartitionF:
			add(t.S)
		}
		for _, c := range Children(e) {
			walk(c)
		}
	}
	walk(e)
	return order
}
