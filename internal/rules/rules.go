// Package rules implements the transformation rules of Section 6 and the
// breadth-first search over the space of equivalent programs. Every rule
// rewrites a program into one with the same functional behaviour (the rule
// tests check this against the reference interpreter); applicability
// conditions are conservative, exactly as the paper prescribes: "we
// implement a conservative estimation procedure that returns no false
// positives by deciding a stronger but simpler condition".
package rules

import (
	"fmt"
	"strings"

	"ocas/internal/memory"
	"ocas/internal/ocal"
)

// BinderKind classifies how a variable in scope was bound, used by
// applicability conditions.
type BinderKind int

const (
	KindInput BinderKind = iota // program input relation
	KindLam                     // lambda parameter
	KindFor                     // for-loop variable (element or block)
)

// BinderInfo describes one in-scope variable: how it was bound and, for
// block variables, how many blocking levels lie between it and the original
// relation (1 = first-level block). The depth bounds loop tiling: a
// hierarchy with an extra cache level allows one more level of re-blocking.
type BinderInfo struct {
	Kind       BinderKind
	BlockDepth int
}

// Scope maps in-scope variable names to their binder information.
type Scope map[string]BinderInfo

func (s Scope) with(name string, info BinderInfo) Scope {
	n := make(Scope, len(s)+1)
	for k2, v := range s {
		n[k2] = v
	}
	n[name] = info
	return n
}

// Context carries the synthesis-wide information rules need: the hierarchy,
// input placement, and fresh-name generation.
type Context struct {
	H *memory.Hierarchy
	// InputLoc places the program inputs (variable name -> node).
	InputLoc map[string]string
	// Output is the output node ("" = CPU-consumed).
	Output string
	// Intermediate is the node lambda-bound lists (hash partitions) live on:
	// cost.Intermediate of the same placement, where the cost model spills
	// them. It is derived by the caller, never requested.
	Intermediate string
	// Commutative declares that the order of the program's input tuple does
	// not affect the (multiset) result, enabling hash-part.
	Commutative bool
	// MaxBranchK caps inc-branching (2^MaxBranchK-way merges).
	MaxBranchK int

	nParam int
	nVar   int
}

// fork returns a copy of c whose fresh-name counters restart at the given
// snapshot. The parallel search gives every frontier expansion its own fork
// of one level-wide snapshot, so concurrent Step calls never share counters
// (no data race) and the names they generate do not depend on scheduling.
// The immutable fields (hierarchy, input placement, flags) are shared.
func (c *Context) fork(nParam, nVar int) *Context {
	fc := *c
	fc.nParam, fc.nVar = nParam, nVar
	return &fc
}

func (c *Context) freshParam(prefix string) ocal.Param {
	c.nParam++
	return ocal.SymP(fmt.Sprintf("%s%d", prefix, c.nParam))
}

func (c *Context) freshVar(prefix string) string {
	c.nVar++
	return fmt.Sprintf("%s_%d", prefix, c.nVar)
}

// blockLevels returns how many nested levels of blocking the hierarchy
// supports: one per edge between the root and the deepest device.
func (c *Context) blockLevels() int {
	if c.H == nil {
		return 1
	}
	depth := 0
	var walk func(n *memory.Node, d int)
	walk = func(n *memory.Node, d int) {
		if d > depth {
			depth = d
		}
		for _, ch := range n.Children {
			walk(ch, d+1)
		}
	}
	walk(c.H.Root, 0)
	if depth < 1 {
		return 1
	}
	return depth
}

// deviceOf returns the hierarchy node a variable's data lives on, or "".
// Lambda-bound list variables (hash partitions) live on the intermediate
// device, which is where the partition plugin places them.
func (c *Context) deviceOf(name string, s Scope) string {
	switch s[name].Kind {
	case KindInput:
		return c.InputLoc[name]
	case KindLam:
		return c.Intermediate
	}
	return ""
}

// Rule rewrites a single node; the engine applies it at every position.
type Rule interface {
	Name() string
	// Apply returns zero or more rewrites of node e appearing under scope s.
	Apply(e ocal.Expr, s Scope, c *Context) []ocal.Expr
}

// AllRules returns the rule library in the order the paper presents it.
func AllRules() []Rule {
	return []Rule{
		ApplyBlock{},
		ApplyBlockOut{},
		ApplyBlockMerge{},
		ApplyBlockScan{},
		ApplyBlockUnfold{},
		SwapIter{},
		HashPart{},
		IncBranching{},
		FldLToTrFld{},
		SeqAC{},
	}
}

// ---------------------------------------------------------------------------
// apply-block: for (x [1] ← R) e  ⇒  for (xB [k] ← R) for (x ← xB) e
// ---------------------------------------------------------------------------

// ApplyBlock introduces blocked transfers on element-granular loops over
// relations (Section 6.2, "Increasing the Block Size").
type ApplyBlock struct{}

func (ApplyBlock) Name() string { return "apply-block" }

func (ApplyBlock) Apply(e ocal.Expr, s Scope, c *Context) []ocal.Expr {
	f, ok := e.(ocal.For)
	if !ok || !f.K.IsOne() {
		return nil
	}
	src, ok := f.Src.(ocal.Var)
	if !ok {
		return nil
	}
	// Block loops over relations (inputs, lambda-bound lists such as hash
	// partitions) and — when the hierarchy has more levels (CPU cache) —
	// re-block an existing block one level deeper (loop tiling). The
	// blocking depth is bounded by the number of hierarchy edges.
	info, in := s[src.Name]
	if !in {
		return nil
	}
	if info.Kind == KindFor {
		if info.BlockDepth < 1 || info.BlockDepth >= c.blockLevels() {
			return nil
		}
	}
	k := c.freshParam("k")
	xb := src.Name + "B" + strings.TrimLeft(k.Sym, "k")
	return []ocal.Expr{ocal.For{
		X: xb, K: k, Src: f.Src, OutK: f.OutK, Seq: f.Seq,
		Body: ocal.For{X: f.X, Src: ocal.Var{Name: xb}, Body: f.Body},
	}}
}

// ---------------------------------------------------------------------------
// apply-block (scan side): f(R) ⇒ f(for (xB [k] ← R) xB) for stream
// consumers (foldL). The inner loop with the block variable as its body is
// the identity on the list but fetches it block-wise.
// ---------------------------------------------------------------------------

// ApplyBlockScan blocks the input stream of a fold application.
type ApplyBlockScan struct{}

func (ApplyBlockScan) Name() string { return "apply-block" }

func (ApplyBlockScan) Apply(e ocal.Expr, s Scope, c *Context) []ocal.Expr {
	app, ok := e.(ocal.App)
	if !ok {
		return nil
	}
	if _, isFold := app.Fn.(ocal.FoldL); !isFold {
		return nil
	}
	src, ok := app.Arg.(ocal.Var)
	if !ok {
		return nil
	}
	if info, in := s[src.Name]; !in || info.Kind == KindFor {
		return nil
	}
	k := c.freshParam("k")
	xb := src.Name + "B" + strings.TrimLeft(k.Sym, "k")
	app.Arg = ocal.For{X: xb, K: k, Src: src, Body: ocal.Var{Name: xb}}
	return []ocal.Expr{app}
}

// ---------------------------------------------------------------------------
// apply-block (unfoldR side): unfoldR(f)(Ls) ⇒ unfoldR[k](f)(Ls) — the
// paper's "analogous rule to introduce bigger blocks to our implementation
// of unfoldR" for top-level merges (set operations, zips).
// ---------------------------------------------------------------------------

// ApplyBlockUnfold blocks the input streams of an applied unfoldR.
type ApplyBlockUnfold struct{}

func (ApplyBlockUnfold) Name() string { return "apply-block" }

func (ApplyBlockUnfold) Apply(e ocal.Expr, s Scope, c *Context) []ocal.Expr {
	app, ok := e.(ocal.App)
	if !ok {
		return nil
	}
	unf, ok := app.Fn.(ocal.UnfoldR)
	if !ok || !unf.K.IsOne() {
		return nil
	}
	unf.K = c.freshParam("k")
	if c.Output != "" && unf.OutK.IsOne() {
		unf.OutK = c.freshParam("ko")
	}
	app.Fn = unf
	return []ocal.Expr{app}
}

// ---------------------------------------------------------------------------
// apply-block (output side): for (...) [1] e ⇒ for (...) [ko] e
// ---------------------------------------------------------------------------

// ApplyBlockOut introduces the output buffering annotation [k2] on blocked
// loops when the program writes its result to a device.
type ApplyBlockOut struct{}

func (ApplyBlockOut) Name() string { return "apply-block-out" }

func (ApplyBlockOut) Apply(e ocal.Expr, s Scope, c *Context) []ocal.Expr {
	f, ok := e.(ocal.For)
	if !ok || f.K.IsOne() || !f.OutK.IsOne() {
		return nil
	}
	if c.Output == "" {
		return nil // nothing is written out; the annotation would be noise
	}
	f.OutK = c.freshParam("ko")
	return []ocal.Expr{f}
}

// ---------------------------------------------------------------------------
// apply-block (unfoldR side): treeFold[b](c, unfoldR(f)) gets input/output
// buffers bin/bout ("we also use an analogous rule to introduce bigger
// blocks to our implementation of unfoldR").
// ---------------------------------------------------------------------------

// ApplyBlockMerge blocks the transfers of a merging treeFold.
type ApplyBlockMerge struct{}

func (ApplyBlockMerge) Name() string { return "apply-block" }

func (ApplyBlockMerge) Apply(e ocal.Expr, s Scope, c *Context) []ocal.Expr {
	tf, ok := e.(ocal.TreeFold)
	if !ok {
		return nil
	}
	unf, ok := tf.Fn.(ocal.UnfoldR)
	if !ok || !unf.K.IsOne() || !tf.OutK.IsOne() {
		return nil
	}
	unf.K = c.freshParam("bin")
	tf.Fn = unf
	tf.OutK = c.freshParam("bout")
	return []ocal.Expr{tf}
}

// ---------------------------------------------------------------------------
// swap-iter: exchange two adjacent loops when the inner range does not
// depend on the outer variable.
// ---------------------------------------------------------------------------

// SwapIter swaps the order of two iterative constructs (Section 6.2).
type SwapIter struct{}

func (SwapIter) Name() string { return "swap-iter" }

func (SwapIter) Apply(e ocal.Expr, s Scope, c *Context) []ocal.Expr {
	outer, ok := e.(ocal.For)
	if !ok {
		return nil
	}
	var out []ocal.Expr
	// Plain form.
	if inner, ok := outer.Body.(ocal.For); ok {
		if !dependsOn(inner.Src, outer.X) && outer.X != inner.X {
			out = append(out, ocal.For{
				X: inner.X, K: inner.K, Src: inner.Src, OutK: inner.OutK, Seq: inner.Seq,
				Body: ocal.For{X: outer.X, K: outer.K, Src: outer.Src, OutK: outer.OutK, Seq: outer.Seq,
					Body: inner.Body},
			})
		}
	}
	// Conditional form: for x1 (if c then for x2 e1 else []) ⇒
	// for x2 for x1 if c then e1 else [].
	if iff, ok := outer.Body.(ocal.If); ok {
		if inner, ok2 := iff.Then.(ocal.For); ok2 {
			if _, isEmpty := iff.Else.(ocal.Empty); isEmpty &&
				!dependsOn(inner.Src, outer.X) && !dependsOn(iff.Cond, inner.X) &&
				outer.X != inner.X {
				out = append(out, ocal.For{
					X: inner.X, K: inner.K, Src: inner.Src, OutK: inner.OutK, Seq: inner.Seq,
					Body: ocal.For{X: outer.X, K: outer.K, Src: outer.Src, OutK: outer.OutK, Seq: outer.Seq,
						Body: ocal.If{Cond: iff.Cond, Then: inner.Body, Else: ocal.Empty{}}},
				})
			}
		}
	}
	return out
}

func dependsOn(e ocal.Expr, name string) bool {
	return ocal.FreeVars(e)[name]
}

// Subst replaces free variables by expressions (capture-avoiding for the
// binders OCAL has: Lam and For).
func Subst(e ocal.Expr, bind map[string]ocal.Expr) ocal.Expr {
	switch t := e.(type) {
	case ocal.Var:
		if r, ok := bind[t.Name]; ok {
			return r
		}
		return t
	case ocal.Lam:
		nb := without(bind, t.Params...)
		t.Body = Subst(t.Body, nb)
		return t
	case ocal.For:
		t.Src = Subst(t.Src, bind)
		t.Body = Subst(t.Body, without(bind, t.X))
		return t
	default:
		kids := ocal.Children(e)
		if len(kids) == 0 {
			return e
		}
		nk := make([]ocal.Expr, len(kids))
		for i, k := range kids {
			nk[i] = Subst(k, bind)
		}
		return ocal.WithChildren(e, nk)
	}
}

func without(m map[string]ocal.Expr, names ...string) map[string]ocal.Expr {
	n := make(map[string]ocal.Expr, len(m))
	for k, v := range m {
		n[k] = v
	}
	for _, name := range names {
		delete(n, name)
	}
	return n
}
