package rules

import (
	"strconv"
	"sync"
	"sync/atomic"

	"ocas/internal/ocal"
)

// Key is the search's dedup key: the post-order concatenation of
// ocal.AppendNodeKey over e's alpha-normal form, in which bound variables
// and symbolic parameters are numbered in first-occurrence order exactly as
// AlphaKey's renaming numbers them. Two programs share a Key exactly when
// their AlphaKeys are equal; no renamed tree is built to find out.
//
// The search asks "is this rewrite a program I already have?" once per
// produced rewrite. About two thirds of rewrites re-derive a program another
// rule chain already reached, and a re-derived program arrives with fresh
// binder and parameter names, so no memo over raw structure can answer
// that: every rewrite is keyed afresh by one walk, and the dedup set
// compares the keys.
func Key(e ocal.Expr) string {
	enc := encoders.Get().(*alphaEncoder)
	enc.buf = enc.appendKey(enc.buf[:0], e)
	s := string(enc.buf)
	encoders.Put(enc)
	return s
}

// AlphaKey renders the canonical alpha-normalized printing of e, which plan
// fingerprints are built from.
func AlphaKey(e ocal.Expr) string {
	ren := &renamer{params: map[string]string{}}
	return ocal.String(ren.expr(e, nil))
}

// Keyer accumulates the dedup counters of the syntheses that carry it as
// core.Synthesizer.Keys: each adds its search's Dedup totals once the search
// ends. plan.Compile injects one per request, so the synthesis counters come
// back with the request. A Keyer is safe for concurrent use.
type Keyer struct {
	hits, misses, held atomic.Uint64
}

// NewKeyer returns a Keyer with zeroed counters.
func NewKeyer() *Keyer { return &Keyer{} }

// KeyerStats reports what searches deduplicated. Every field is a sum over
// the searches' levels (SearchStats.Levels).
type KeyerStats struct {
	// InternedNodes is the number of keys the dedup set held at the end: one
	// per distinct program, the start program included.
	InternedNodes uint64
	// AlphaHits counts rewrites discarded as alpha-equivalent to a program
	// already found (the sum of LevelStats.Deduped).
	AlphaHits uint64
	// AlphaMisses counts distinct programs found: the sum of
	// LevelStats.Kept, plus one for the start program.
	AlphaMisses uint64
}

// Stats returns a snapshot of the Keyer's counters.
func (k *Keyer) Stats() KeyerStats {
	return KeyerStats{
		InternedNodes: k.held.Load(),
		AlphaHits:     k.hits.Load(),
		AlphaMisses:   k.misses.Load(),
	}
}

// Add adds one search's counts to the Keyer's.
func (k *Keyer) Add(s KeyerStats) {
	k.held.Add(s.InternedNodes)
	k.hits.Add(s.AlphaHits)
	k.misses.Add(s.AlphaMisses)
}

// Dedup totals the search's levels as KeyerStats. The dedup set holds the
// start program and every kept rewrite, so InternedNodes equals AlphaMisses.
func (st SearchStats) Dedup() KeyerStats {
	s := KeyerStats{AlphaMisses: 1}
	for _, lv := range st.Levels {
		s.AlphaHits += uint64(lv.Deduped)
		s.AlphaMisses += uint64(lv.Kept)
	}
	s.InternedNodes = s.AlphaMisses
	return s
}

// alphaEncoder writes Keys. Its slices are scratch reused from key to key,
// so a warm encoder allocates nothing; the search takes one per worker from
// the encoders pool.
type alphaEncoder struct {
	// from and to are the bound variables in scope, innermost last: the
	// program's name and its alpha-normal name.
	from, to []string
	// params lists the symbolic parameters met so far; params[i] is
	// renamed to the i+1st parameter name.
	params []string
	nv     int // bound variables numbered so far
	buf    []byte
}

var encoders = sync.Pool{New: func() any { return new(alphaEncoder) }}

// appendKey appends e's Key to dst.
func (enc *alphaEncoder) appendKey(dst []byte, e ocal.Expr) []byte {
	dst = enc.expr(dst, e)
	enc.params, enc.nv = enc.params[:0], 0
	return dst
}

func (enc *alphaEncoder) bind(name string) {
	enc.nv++
	enc.from = append(enc.from, name)
	enc.to = append(enc.to, normalName('v', enc.nv))
}

func (enc *alphaEncoder) unbind(base int) {
	enc.from, enc.to = enc.from[:base], enc.to[:base]
}

func (enc *alphaEncoder) param(p ocal.Param) ocal.Param {
	if p.Sym == "" {
		return p
	}
	for i, s := range enc.params {
		if s == p.Sym {
			return ocal.SymP(normalName('p', i+1))
		}
	}
	enc.params = append(enc.params, p.Sym)
	return ocal.SymP(normalName('p', len(enc.params)))
}

// expr walks e in renamer.expr's numbering order and writes every node's
// key after its children's. A node that names a binder or a parameter is
// keyed as its renamed copy, built on the stack without children.
func (enc *alphaEncoder) expr(key []byte, e ocal.Expr) []byte {
	switch t := e.(type) {
	case ocal.Var:
		for i := len(enc.from) - 1; i >= 0; i-- {
			if enc.from[i] == t.Name {
				return ocal.AppendNodeKey(key, ocal.Var{Name: enc.to[i]})
			}
		}
	case ocal.Lam:
		base := len(enc.to)
		for _, p := range t.Params {
			enc.bind(p)
		}
		key = enc.expr(key, t.Body)
		key = ocal.AppendNodeKey(key, ocal.Lam{Params: enc.to[base:]})
		enc.unbind(base)
		return key
	case ocal.For:
		key = enc.expr(key, t.Src)
		base := len(enc.to)
		enc.bind(t.X)
		k, outK := enc.param(t.K), enc.param(t.OutK)
		key = enc.expr(key, t.Body)
		key = ocal.AppendNodeKey(key, ocal.For{X: enc.to[base], K: k, OutK: outK, Seq: t.Seq})
		enc.unbind(base)
		return key
	case ocal.TreeFold:
		k := enc.param(t.K)
		key = enc.expr(key, t.Init)
		key = enc.expr(key, t.Fn)
		return ocal.AppendNodeKey(key, ocal.TreeFold{K: k, OutK: enc.param(t.OutK)})
	case ocal.UnfoldR:
		key = enc.expr(key, t.Fn)
		k := enc.param(t.K)
		return ocal.AppendNodeKey(key, ocal.UnfoldR{K: k, OutK: enc.param(t.OutK)})
	case ocal.PartitionF:
		return ocal.AppendNodeKey(key, ocal.PartitionF{S: enc.param(t.S)})
	// The rest bind nothing: children in order (spelled out, because
	// ocal.Children allocates), then the node itself.
	case ocal.App:
		key = enc.expr(key, t.Fn)
		key = enc.expr(key, t.Arg)
	case ocal.Tup:
		for _, el := range t.Elems {
			key = enc.expr(key, el)
		}
	case ocal.Proj:
		key = enc.expr(key, t.E)
	case ocal.Single:
		key = enc.expr(key, t.E)
	case ocal.If:
		key = enc.expr(key, t.Cond)
		key = enc.expr(key, t.Then)
		key = enc.expr(key, t.Else)
	case ocal.Prim:
		for _, a := range t.Args {
			key = enc.expr(key, a)
		}
	case ocal.FlatMap:
		key = enc.expr(key, t.Fn)
	case ocal.FoldL:
		key = enc.expr(key, t.Init)
		key = enc.expr(key, t.Fn)
	case ocal.FuncPow:
		key = enc.expr(key, t.Fn)
	}
	return ocal.AppendNodeKey(key, e)
}

// normalNames caches the first alpha-normal names, so neither the renamer
// nor the encoder formats one per binder.
var normalNames = func() (t [2][32]string) {
	for i := range t[0] {
		t[0][i] = "v" + strconv.Itoa(i+1)
		t[1][i] = "p" + strconv.Itoa(i+1)
	}
	return t
}()

// normalName is the n-th (1-based) alpha-normal bound-variable ('v') or
// parameter ('p') name.
func normalName(kind byte, n int) string {
	t := &normalNames[0]
	if kind == 'p' {
		t = &normalNames[1]
	}
	if n <= len(t) {
		return t[n-1]
	}
	return string(kind) + strconv.Itoa(n)
}
