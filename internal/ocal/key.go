package ocal

import "encoding/binary"

// AppendNodeKey appends the node-local, print-visible attributes of e — not
// its children — to key. Strings are length-prefixed, parameters carry a
// kind tag and every node's tag fixes how many children it has, so node
// keys written in post-order decode to exactly one tree: the concatenation
// is injective over everything the canonical printing (String)
// distinguishes. The search's dedup key (internal/rules) is that
// concatenation over a program's alpha-normal form.
//
// AppendNodeKey must not be finer than the printer, or the search space
// (and so the synthesized plans) would silently change: the cost-only
// cardinality hints of FoldL and UnfoldR are left out, and a zero-valued
// parameter is written as the literal 1 it prints as.
func AppendNodeKey(key []byte, e Expr) []byte {
	str := func(s string) {
		key = binary.AppendUvarint(key, uint64(len(s)))
		key = append(key, s...)
	}
	num := func(v uint64) { key = binary.AppendUvarint(key, v) }
	param := func(p Param) {
		if p.Sym != "" {
			key = append(key, 'S')
			str(p.Sym)
			return
		}
		// Literal parameters print via Literal(), which folds the zero
		// value to 1; encode that folded value, not the raw field.
		v, _ := p.Literal()
		key = append(key, 'L')
		num(uint64(v))
	}
	switch t := e.(type) {
	case Var:
		key = append(key, 'v')
		str(t.Name)
	case IntLit:
		key = append(key, 'i')
		num(uint64(t.V))
	case BoolLit:
		key = append(key, 'b')
		if t.V {
			key = append(key, 1)
		} else {
			key = append(key, 0)
		}
	case StrLit:
		key = append(key, 's')
		str(t.V)
	case Lam:
		key = append(key, 'l')
		num(uint64(len(t.Params)))
		for _, p := range t.Params {
			str(p)
		}
	case App:
		key = append(key, 'a')
	case Tup:
		key = append(key, 't')
		num(uint64(len(t.Elems)))
	case Proj:
		key = append(key, 'p')
		num(uint64(t.I))
	case Single:
		key = append(key, '1')
	case Empty:
		key = append(key, 'E')
	case If:
		key = append(key, 'I')
	case Prim:
		key = append(key, 'P')
		num(uint64(t.Op))
		num(uint64(len(t.Args)))
	case FlatMap:
		key = append(key, 'F')
	case FoldL:
		key = append(key, 'f')
	case For:
		key = append(key, 'o')
		str(t.X)
		param(t.K)
		param(t.OutK)
		if t.Seq != nil {
			key = append(key, '+')
			str(t.Seq.From)
			str(t.Seq.To)
		} else {
			key = append(key, '-')
		}
	case TreeFold:
		key = append(key, 'T')
		param(t.K)
		param(t.OutK)
	case UnfoldR:
		// Encode exactly the printed bracket sequence: parameters equal to 1
		// are omitted, which (as in the printing) makes unfoldR[k](f) with
		// k as block size indistinguishable from k as output buffer — the
		// search has always deduplicated those as one program.
		key = append(key, 'u')
		if !t.K.IsOne() {
			param(t.K)
		}
		if !t.OutK.IsOne() {
			param(t.OutK)
		}
	case Mrg:
		key = append(key, 'm')
	case ZipStep:
		key = append(key, 'z')
		num(uint64(t.N))
	case FuncPow:
		key = append(key, 'w')
		num(uint64(t.K))
	case PartitionF:
		key = append(key, 'h')
		param(t.S)
	case ZipLists:
		key = append(key, 'Z')
		num(uint64(t.N))
	default:
		// Expr is closed (its method is unexported), so this is unreachable.
		// A constant message keeps e from escaping: callers box renamed nodes
		// on their stack.
		panic("ocal: AppendNodeKey: unknown expression kind")
	}
	return key
}
