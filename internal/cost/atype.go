// Package cost implements the automated cost estimation of Section 5:
// annotated types with symbolic cardinalities (Figure 5), the counting of
// InitCom and UnitTr events per hierarchy edge (Figure 6), seq-ac sequential
// access costing, and the residency constraints handed to the non-linear
// parameter optimizer. Costing never executes the program.
package cost

import (
	"fmt"
	"strings"

	"ocas/internal/ocal"
	sym "ocas/internal/symbolic"
)

// AType is an annotated type per Section 5.1:
//
//	α ::= [α]x | 〈α1, ..., αn〉 | c
//
// List cardinalities are symbolic arithmetic expressions so the cost of a
// program is derived once and re-evaluated for any input size or parameter
// choice.
type AType interface {
	isAType()
	String() string
}

// AList is [α]x.
type AList struct {
	Card sym.Expr
	Elem AType
}

// ATuple is 〈α1, ..., αn〉.
type ATuple []AType

// AConst is a constant size c (bytes).
type AConst struct{ Size sym.Expr }

func (AList) isAType()  {}
func (ATuple) isAType() {}
func (AConst) isAType() {}

func (a AList) String() string { return "[" + a.Elem.String() + "]^(" + a.Card.String() + ")" }
func (a ATuple) String() string {
	parts := make([]string, len(a))
	for i, e := range a {
		parts[i] = e.String()
	}
	return "<" + strings.Join(parts, ", ") + ">"
}
func (a AConst) String() string { return a.Size.String() }

// The annotated-type operations below that build formulas take the
// synthesis' symbolic Builder; nil builds with the package-level
// constructors.

// Size returns the total size in bytes of the annotated type, the paper's
// size(α) function.
func Size(b *sym.Builder, a AType) sym.Expr {
	switch t := a.(type) {
	case AList:
		return b.Mul(t.Card, Size(b, t.Elem))
	case ATuple:
		var buf [4]sym.Expr
		terms := buf[:0]
		for _, e := range t {
			terms = append(terms, Size(b, e))
		}
		return b.Add(terms...)
	case AConst:
		return t.Size
	}
	return sym.Zero
}

// Card returns the cardinality of a list annotated type (card([α]x) = x).
func Card(a AType) (sym.Expr, error) {
	l, ok := a.(AList)
	if !ok {
		return nil, fmt.Errorf("cost: card of non-list annotated type %s", a)
	}
	return l.Card, nil
}

// Elem returns the element annotated type of a list (elem([α]x) = α).
func Elem(a AType) (AType, error) {
	l, ok := a.(AList)
	if !ok {
		return nil, fmt.Errorf("cost: elem of non-list annotated type %s", a)
	}
	return l.Elem, nil
}

// ScaleCard multiplies the outer cardinality of a list by f ("x · [b]y").
func ScaleCard(b *sym.Builder, a AType, f sym.Expr) AType {
	if l, ok := a.(AList); ok {
		return AList{Card: b.Mul(f, l.Card), Elem: l.Elem}
	}
	return a
}

// MaxT merges two annotated types pointwise, taking the worst case of the
// cardinalities and constant sizes (Figure 5's rule for if-then-else).
func MaxT(b *sym.Builder, x, y AType) AType {
	switch x := x.(type) {
	case AList:
		if y, ok := y.(AList); ok {
			return AList{Card: b.Max(x.Card, y.Card), Elem: MaxT(b, x.Elem, y.Elem)}
		}
	case ATuple:
		if y, ok := y.(ATuple); ok && len(x) == len(y) {
			out := make(ATuple, len(x))
			for i := range x {
				out[i] = MaxT(b, x[i], y[i])
			}
			return out
		}
	case AConst:
		if y, ok := y.(AConst); ok {
			return AConst{Size: b.Max(x.Size, y.Size)}
		}
	}
	// Shapes disagree (one branch empty list vs tuple etc.): fall back to
	// whichever carries the larger worst-case size.
	if isEmptyish(x) {
		return y
	}
	return x
}

// AddT adds two annotated types: lists concatenate cardinalities (the ⊔
// rule), constants add sizes.
func AddT(b *sym.Builder, x, y AType) AType {
	switch x := x.(type) {
	case AList:
		if y, ok := y.(AList); ok {
			return AList{Card: b.Add(x.Card, y.Card), Elem: MaxT(b, x.Elem, y.Elem)}
		}
	case AConst:
		if y, ok := y.(AConst); ok {
			return AConst{Size: b.Add(x.Size, y.Size)}
		}
	}
	if isEmptyish(x) {
		return y
	}
	return x
}

func isEmptyish(a AType) bool {
	switch t := a.(type) {
	case AList:
		c, ok := t.Card.(sym.Const)
		return ok && c == 0
	case AConst:
		c, ok := t.Size.(sym.Const)
		return ok && c == 0
	}
	return false
}

// FromType converts an OCAL type with a given outer cardinality to an
// annotated type: atoms get AtomBytes, nested lists get cardinality
// variables derived from the base name.
func FromType(t ocal.Type, card sym.Expr, innerCardName string) AType {
	switch x := t.(type) {
	case ocal.AtomType:
		if x.Kind == ocal.AStr {
			return AConst{Size: sym.C(16)} // nominal string payload
		}
		return AConst{Size: sym.C(float64(ocal.AtomBytes))}
	case ocal.TupleType:
		out := make(ATuple, len(x))
		for i, e := range x {
			out[i] = FromType(e, sym.One, innerCardName)
		}
		return out
	case ocal.ListType:
		inner := sym.Expr(sym.One)
		if innerCardName != "" {
			inner = sym.V(innerCardName)
		}
		return AList{Card: card, Elem: FromType(x.Elem, inner, "")}
	}
	return AConst{Size: sym.Zero}
}
