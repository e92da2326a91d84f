// Package ocal defines the Out-of-Core Algorithm Language (OCAL) of the
// paper: Monad Calculus on lists extended with foldL and a set of named
// definitions (for, treeFold, unfoldR, partition, funcPow, ...). The package
// contains the value domain, the type system of Figure 1, the abstract
// syntax, a canonical pretty-printer, and a type checker based on
// monomorphic unification.
package ocal

import (
	"fmt"
	"strings"
)

// Value is an OCAL runtime value: an atom from the totally ordered domain D
// (integers, booleans, strings), a tuple, or a list.
type Value interface {
	isValue()
	String() string
}

// Int is an integer atom.
type Int int64

// Bool is a boolean atom.
type Bool bool

// Str is a string atom.
type Str string

// Tuple is an n-ary tuple 〈v1, ..., vn〉.
type Tuple []Value

// List is a finite list [v1, ..., vn].
type List []Value

func (Int) isValue()   {}
func (Bool) isValue()  {}
func (Str) isValue()   {}
func (Tuple) isValue() {}
func (List) isValue()  {}

func (v Int) String() string  { return fmt.Sprintf("%d", int64(v)) }
func (v Bool) String() string { return fmt.Sprintf("%t", bool(v)) }
func (v Str) String() string  { return fmt.Sprintf("%q", string(v)) }

func (v Tuple) String() string {
	parts := make([]string, len(v))
	for i, e := range v {
		parts[i] = e.String()
	}
	return "<" + strings.Join(parts, ", ") + ">"
}

func (v List) String() string {
	parts := make([]string, len(v))
	for i, e := range v {
		parts[i] = e.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// ValueEq reports deep structural equality of two values.
func ValueEq(a, b Value) bool {
	switch x := a.(type) {
	case Int:
		y, ok := b.(Int)
		return ok && x == y
	case Bool:
		y, ok := b.(Bool)
		return ok && x == y
	case Str:
		y, ok := b.(Str)
		return ok && x == y
	case Tuple:
		y, ok := b.(Tuple)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !ValueEq(x[i], y[i]) {
				return false
			}
		}
		return true
	case List:
		y, ok := b.(List)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !ValueEq(x[i], y[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// ValueCompare totally orders values of the same shape: atoms by their
// natural order, tuples and lists lexicographically. It panics on
// incomparable shapes (a type error that the checker prevents).
func ValueCompare(a, b Value) int {
	switch x := a.(type) {
	case Int:
		y := b.(Int)
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	case Bool:
		y := b.(Bool)
		xi, yi := 0, 0
		if bool(x) {
			xi = 1
		}
		if bool(y) {
			yi = 1
		}
		return xi - yi
	case Str:
		y := b.(Str)
		return strings.Compare(string(x), string(y))
	case Tuple:
		y := b.(Tuple)
		for i := 0; i < len(x) && i < len(y); i++ {
			if c := ValueCompare(x[i], y[i]); c != 0 {
				return c
			}
		}
		return len(x) - len(y)
	case List:
		y := b.(List)
		for i := 0; i < len(x) && i < len(y); i++ {
			if c := ValueCompare(x[i], y[i]); c != 0 {
				return c
			}
		}
		return len(x) - len(y)
	}
	panic(fmt.Sprintf("ocal: incomparable value %T", a))
}

// ByteSize returns the storage footprint of a value in bytes under the
// layout used by the simulator: AtomBytes per atom, tuples and lists as the
// concatenation of their parts. This mirrors the paper's size() measure.
func ByteSize(v Value) int64 {
	switch x := v.(type) {
	case Int, Bool:
		return AtomBytes
	case Str:
		return int64(len(x))
	case Tuple:
		var s int64
		for _, e := range x {
			s += ByteSize(e)
		}
		return s
	case List:
		var s int64
		for _, e := range x {
			s += ByteSize(e)
		}
		return s
	}
	return 0
}

// AtomBytes is the storage size of one atomic value. The paper's running
// example uses size(Int)=1 for exposition; real experiments use 4-byte
// integers, which is what the workload generator assumes.
const AtomBytes int64 = 4

// FNV-1a, 64 bits: the hash behind Hash and HashInt.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// mixInt folds an integer's eight bytes, least significant first, into h.
func mixInt(h uint64, x int64) uint64 {
	u := uint64(x)
	for i := 0; i < 8; i++ {
		h ^= u & 0xff
		h *= fnvPrime64
		u >>= 8
	}
	return h
}

// HashInt is Hash(Int(x)) without the Value: the executor's partitioning
// pass hashes a key column row by row.
func HashInt(x int64) uint64 { return mixInt(fnvOffset64, x) }

// Hash returns a deterministic hash of a value, used by the partition
// definition (hash-part rule).
func Hash(v Value) uint64 {
	var h uint64 = fnvOffset64
	var mix func(Value)
	mix = func(v Value) {
		switch x := v.(type) {
		case Int:
			h = mixInt(h, int64(x))
		case Bool:
			if bool(x) {
				h ^= 1
			}
			h *= fnvPrime64
		case Str:
			for i := 0; i < len(x); i++ {
				h ^= uint64(x[i])
				h *= fnvPrime64
			}
		case Tuple:
			for _, e := range x {
				mix(e)
			}
		case List:
			for _, e := range x {
				mix(e)
			}
		}
	}
	mix(v)
	return h
}
