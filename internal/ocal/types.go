package ocal

import "strings"

// Type is an OCAL value type per Figure 1: atoms D, tuples and lists.
type Type interface {
	isType()
	String() string
}

// Atom kinds. The paper uses a single totally ordered domain D; we keep the
// three concrete atom kinds distinct for better error messages.
type AtomKind int

const (
	AInt AtomKind = iota
	ABool
	AStr
)

// AtomType is the type of an atomic value.
type AtomType struct{ Kind AtomKind }

// TupleType is 〈τ1, ..., τn〉.
type TupleType []Type

// ListType is [τ].
type ListType struct{ Elem Type }

func (AtomType) isType()  {}
func (TupleType) isType() {}
func (ListType) isType()  {}

func (t AtomType) String() string {
	switch t.Kind {
	case AInt:
		return "Int"
	case ABool:
		return "Bool"
	case AStr:
		return "Str"
	}
	return "D?"
}

func (t TupleType) String() string {
	parts := make([]string, len(t))
	for i, e := range t {
		parts[i] = e.String()
	}
	return "<" + strings.Join(parts, ", ") + ">"
}

func (t ListType) String() string { return "[" + t.Elem.String() + "]" }

// Convenience constructors.
var (
	TInt  = AtomType{AInt}
	TBool = AtomType{ABool}
	TStr  = AtomType{AStr}
)

// TList returns [elem].
func TList(elem Type) Type { return ListType{Elem: elem} }

// TTuple returns 〈elems...〉.
func TTuple(elems ...Type) Type { return TupleType(elems) }
