// Package core is OCAS, the Out-of-Core Algorithm Synthesizer: it ties the
// transformation rules, the cost estimator and the non-linear parameter
// optimizer together. Given a naive memory-hierarchy-oblivious OCAL program
// and a hierarchy description, it searches the space of equivalent programs
// breadth-first, costs every candidate, tunes its parameters, and returns
// the cheapest algorithm together with its derivation (Section 1, "OCAS").
package core

import (
	"ocas/internal/ocal"
)

// InputSpec describes one input relation of a specification.
type InputSpec struct {
	Name string
	Type ocal.Type
	// Arity is the number of int32 attributes per tuple for execution.
	Arity int
}

// Spec is a naive specification program plus the metadata OCAS needs.
type Spec struct {
	Name   string
	Prog   ocal.Expr
	Inputs []InputSpec
	// Commutative asserts that swapping the input relations changes at
	// most the order/orientation of the result (enables hash-part).
	Commutative bool
}

func v(n string) ocal.Expr              { return ocal.Var{Name: n} }
func proj(e ocal.Expr, i int) ocal.Expr { return ocal.Proj{E: e, I: i} }
func eq(a, b ocal.Expr) ocal.Expr {
	return ocal.Prim{Op: ocal.OpEq, Args: []ocal.Expr{a, b}}
}
func lt(a, b ocal.Expr) ocal.Expr {
	return ocal.Prim{Op: ocal.OpLt, Args: []ocal.Expr{a, b}}
}
func add(a, b ocal.Expr) ocal.Expr {
	return ocal.Prim{Op: ocal.OpAdd, Args: []ocal.Expr{a, b}}
}
func sub(a, b ocal.Expr) ocal.Expr {
	return ocal.Prim{Op: ocal.OpSub, Args: []ocal.Expr{a, b}}
}
func hd(l ocal.Expr) ocal.Expr { return ocal.Prim{Op: ocal.OpHead, Args: []ocal.Expr{l}} }
func tl(l ocal.Expr) ocal.Expr { return ocal.Prim{Op: ocal.OpTail, Args: []ocal.Expr{l}} }
func lnz(l ocal.Expr) ocal.Expr { // length(l) == 0
	return eq(ocal.Prim{Op: ocal.OpLength, Args: []ocal.Expr{l}}, ocal.IntLit{V: 0})
}
func tup(es ...ocal.Expr) ocal.Expr   { return ocal.Tup{Elems: es} }
func single(e ocal.Expr) ocal.Expr    { return ocal.Single{E: e} }
func iff(c, t, e ocal.Expr) ocal.Expr { return ocal.If{Cond: c, Then: t, Else: e} }

var (
	relT  = ocal.TList(ocal.TTuple(ocal.TInt, ocal.TInt))
	listT = ocal.TList(ocal.TInt)
	vmT   = ocal.TList(ocal.TTuple(ocal.TInt, ocal.TInt)) // 〈value, multiplicity〉
	runsT = ocal.TList(ocal.TList(ocal.TInt))
)

// JoinSpec is Example 1: the naive nested-loops join of R and S on the first
// attribute. With cond == nil the condition is `true` (relational product,
// as in the paper's write-out experiments).
func JoinSpec(equi bool) Spec {
	var body ocal.Expr
	pair := single(tup(v("x"), v("y")))
	if equi {
		body = iff(eq(proj(v("x"), 1), proj(v("y"), 1)), pair, ocal.Empty{})
	} else {
		body = pair
	}
	return Spec{
		Name: "join",
		Prog: ocal.For{X: "x", Src: v("R"),
			Body: ocal.For{X: "y", Src: v("S"), Body: body}},
		Inputs: []InputSpec{
			{Name: "R", Type: relT, Arity: 2},
			{Name: "S", Type: relT, Arity: 2},
		},
		Commutative: true,
	}
}

// SortSpec is the naive insertion sort of Section 7.2:
// foldL([], unfoldR(mrg)) over a list of singleton lists.
func SortSpec() Spec {
	return Spec{
		Name: "sort",
		Prog: ocal.App{Fn: ocal.FoldL{Init: ocal.Empty{}, Fn: ocal.UnfoldR{Fn: ocal.Mrg{}}},
			Arg: v("R")},
		Inputs:      []InputSpec{{Name: "R", Type: runsT, Arity: 1}},
		Commutative: false,
	}
}

// mergeStep builds the generic two-list unfoldR step skeleton used by the
// set operations: the four boundary cases plus caller-supplied handling of
// the three head orderings.
func mergeStep(less, greater, equal func(h1, h2 ocal.Expr) ocal.Expr, emptyL1 emptyCase, emptyL2 emptyCase) ocal.Expr {
	l1, l2 := v("l1"), v("l2")
	h1, h2 := hd(l1), hd(l2)
	return ocal.Lam{Params: []string{"l1", "l2"}, Body: iff(
		ocal.Prim{Op: ocal.OpAnd, Args: []ocal.Expr{lnz(l1), lnz(l2)}},
		tup(ocal.Empty{}, tup(ocal.Empty{}, ocal.Empty{})),
		iff(lnz(l1), emptyL1(l1, l2),
			iff(lnz(l2), emptyL2(l1, l2),
				iff(lt(h1, h2), less(h1, h2),
					iff(lt(h2, h1), greater(h1, h2), equal(h1, h2))))))}
}

type emptyCase func(l1, l2 ocal.Expr) ocal.Expr

// emitOther drains the named remaining list one element at a time.
func drainL2(l1, l2 ocal.Expr) ocal.Expr {
	return tup(single(hd(l2)), tup(ocal.Empty{}, tl(l2)))
}
func drainL1(l1, l2 ocal.Expr) ocal.Expr {
	return tup(single(hd(l1)), tup(tl(l1), ocal.Empty{}))
}
func dropL2(l1, l2 ocal.Expr) ocal.Expr {
	return tup(ocal.Empty{}, tup(ocal.Empty{}, tl(l2)))
}

// SetUnionSpec merges two sorted duplicate-free lists into their set union.
func SetUnionSpec() Spec {
	l1, l2 := v("l1"), v("l2")
	step := mergeStep(
		func(h1, h2 ocal.Expr) ocal.Expr { return tup(single(h1), tup(tl(l1), l2)) },
		func(h1, h2 ocal.Expr) ocal.Expr { return tup(single(h2), tup(l1, tl(l2))) },
		func(h1, h2 ocal.Expr) ocal.Expr { return tup(single(h1), tup(tl(l1), tl(l2))) },
		drainL2, drainL1,
	)
	return Spec{
		Name: "set-union",
		Prog: ocal.App{Fn: ocal.UnfoldR{Fn: step, Hint: ocal.HintSumCards},
			Arg: tup(v("L1"), v("L2"))},
		Inputs: []InputSpec{
			{Name: "L1", Type: listT, Arity: 1},
			{Name: "L2", Type: listT, Arity: 1},
		},
	}
}

// MultisetUnionSortedSpec keeps duplicates: it is exactly mrg.
func MultisetUnionSortedSpec() Spec {
	return Spec{
		Name: "multiset-union-sorted",
		Prog: ocal.App{Fn: ocal.UnfoldR{Fn: ocal.Mrg{}, Hint: ocal.HintSumCards},
			Arg: tup(v("L1"), v("L2"))},
		Inputs: []InputSpec{
			{Name: "L1", Type: listT, Arity: 1},
			{Name: "L2", Type: listT, Arity: 1},
		},
	}
}

// MultisetUnionVMSpec unions value-multiplicity representations: equal
// values add multiplicities.
func MultisetUnionVMSpec() Spec {
	l1, l2 := v("l1"), v("l2")
	step := mergeStep(
		func(h1, h2 ocal.Expr) ocal.Expr { return tup(single(h1), tup(tl(l1), l2)) },
		func(h1, h2 ocal.Expr) ocal.Expr { return tup(single(h2), tup(l1, tl(l2))) },
		func(h1, h2 ocal.Expr) ocal.Expr {
			return tup(single(tup(proj(h1, 1), add(proj(h1, 2), proj(h2, 2)))),
				tup(tl(l1), tl(l2)))
		},
		drainL2, drainL1,
	)
	return Spec{
		Name: "multiset-union-vm",
		Prog: ocal.App{Fn: ocal.UnfoldR{Fn: step, Hint: ocal.HintSumCards},
			Arg: tup(v("L1"), v("L2"))},
		Inputs: []InputSpec{
			{Name: "L1", Type: vmT, Arity: 2},
			{Name: "L2", Type: vmT, Arity: 2},
		},
	}
}

// MultisetDiffSortedSpec computes L1 − L2 on sorted lists with duplicates:
// each element of L2 cancels one matching element of L1.
func MultisetDiffSortedSpec() Spec {
	l1, l2 := v("l1"), v("l2")
	step := mergeStep(
		func(h1, h2 ocal.Expr) ocal.Expr { return tup(single(h1), tup(tl(l1), l2)) },
		func(h1, h2 ocal.Expr) ocal.Expr { return tup(ocal.Empty{}, tup(l1, tl(l2))) },
		func(h1, h2 ocal.Expr) ocal.Expr { return tup(ocal.Empty{}, tup(tl(l1), tl(l2))) },
		dropL2, drainL1,
	)
	return Spec{
		Name: "multiset-diff-sorted",
		Prog: ocal.App{Fn: ocal.UnfoldR{Fn: step, Hint: ocal.HintFirstCard},
			Arg: tup(v("L1"), v("L2"))},
		Inputs: []InputSpec{
			{Name: "L1", Type: listT, Arity: 1},
			{Name: "L2", Type: listT, Arity: 1},
		},
	}
}

// MultisetDiffVMSpec subtracts multiplicities, dropping non-positive ones.
func MultisetDiffVMSpec() Spec {
	l1, l2 := v("l1"), v("l2")
	step := mergeStep(
		func(h1, h2 ocal.Expr) ocal.Expr { return tup(single(h1), tup(tl(l1), l2)) },
		func(h1, h2 ocal.Expr) ocal.Expr { return tup(ocal.Empty{}, tup(l1, tl(l2))) },
		func(h1, h2 ocal.Expr) ocal.Expr {
			diff := sub(proj(h1, 2), proj(h2, 2))
			return iff(lt(ocal.IntLit{V: 0}, diff),
				tup(single(tup(proj(h1, 1), diff)), tup(tl(l1), tl(l2))),
				tup(ocal.Empty{}, tup(tl(l1), tl(l2))))
		},
		dropL2, drainL1,
	)
	return Spec{
		Name: "multiset-diff-vm",
		Prog: ocal.App{Fn: ocal.UnfoldR{Fn: step, Hint: ocal.HintFirstCard},
			Arg: tup(v("L1"), v("L2"))},
		Inputs: []InputSpec{
			{Name: "L1", Type: vmT, Arity: 2},
			{Name: "L2", Type: vmT, Arity: 2},
		},
	}
}

// ColumnReadSpec reconstructs rows from n column files (a column-store
// read): unfoldR(z) over the tuple of columns.
func ColumnReadSpec(n int) Spec {
	ins := make([]InputSpec, n)
	cols := make([]ocal.Expr, n)
	for i := range ins {
		name := "C" + string(rune('1'+i))
		ins[i] = InputSpec{Name: name, Type: listT, Arity: 1}
		cols[i] = v(name)
	}
	return Spec{
		Name: "column-read",
		Prog: ocal.App{Fn: ocal.UnfoldR{Fn: ocal.ZipStep{N: n}, Hint: ocal.HintFirstCard},
			Arg: ocal.Tup{Elems: cols}},
		Inputs: ins,
	}
}

// DupRemovalSpec removes duplicates from a sorted list. The unfoldR state is
// 〈last-emitted, remaining〉: emit the head only when it differs from the
// last emitted value.
func DupRemovalSpec() Spec {
	seen, rest := v("seen"), v("rest")
	step := ocal.Lam{Params: []string{"seen", "rest"}, Body: iff(
		lnz(rest),
		tup(ocal.Empty{}, tup(ocal.Empty{}, ocal.Empty{})),
		iff(lnz(seen),
			tup(single(hd(rest)), tup(single(hd(rest)), tl(rest))),
			iff(eq(hd(seen), hd(rest)),
				tup(ocal.Empty{}, tup(seen, tl(rest))),
				tup(single(hd(rest)), tup(single(hd(rest)), tl(rest))))))}
	return Spec{
		Name: "dup-removal",
		Prog: ocal.App{Fn: ocal.UnfoldR{Fn: step, Hint: ocal.HintMaxCards},
			Arg: tup(ocal.Empty{}, v("L"))},
		Inputs: []InputSpec{{Name: "L", Type: listT, Arity: 1}},
	}
}

// AggregationSpec is the avg definition of Figure 2 applied to the second
// attribute of a relation.
func AggregationSpec() Spec {
	fold := ocal.FoldL{
		Init: tup(ocal.IntLit{V: 0}, ocal.IntLit{V: 0}),
		Fn: ocal.Lam{Params: []string{"a", "x"},
			Body: tup(add(proj(v("a"), 1), proj(v("x"), 2)), add(proj(v("a"), 2), ocal.IntLit{V: 1}))},
	}
	return Spec{
		Name: "aggregation",
		Prog: ocal.App{
			Fn:  ocal.Lam{Params: []string{"acc"}, Body: single(ocal.Prim{Op: ocal.OpDiv, Args: []ocal.Expr{proj(v("acc"), 1), ocal.Prim{Op: ocal.OpAdd, Args: []ocal.Expr{proj(v("acc"), 2), ocal.IntLit{V: 1}}}}})},
			Arg: ocal.App{Fn: fold, Arg: v("R")},
		},
		Inputs: []InputSpec{{Name: "R", Type: relT, Arity: 2}},
	}
}
