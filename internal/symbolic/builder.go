package symbolic

import (
	"hash/maphash"
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// Builder is a cache in front of the package-level constructors, for a batch
// of formulas that share most of their sub-formulas — the cost formulas of
// one synthesis' search space, whose members each differ from their parent in
// one rewritten subtree. It does two things:
//
//   - it interns every compound node it returns: a node whose operator and
//     operands are those of a node interned before is replaced by that node,
//     so structurally equal sub-formulas are one pointer (and Compile emits
//     them as one instruction);
//   - it memoizes its constructors on the identity of their operands, so a
//     repeated construction costs one table lookup.
//
// Every result is computed by the package-level constructor of the same name
// on the same operands, and those are pure functions of their operands'
// structure, so a Builder returns what the constructor returns: the same key,
// the same Eval bit for bit. Identity is a sound memo key because interning
// is exact — two interned nodes are structurally equal only if they are one
// pointer; constants are compared by their bits, variables by name.
//
// A Builder is safe for concurrent use, so that goroutines building one
// batch share each other's results. Its tables are split into shards by hash:
// a memo lookup takes no lock and writes nothing but the hit counter; an
// insertion locks one shard. It keeps every formula it built until it is
// dropped, so scope it to one batch. The nil *Builder is valid and calls the
// package-level constructors directly, with no table at all.
type Builder struct {
	shards [1 << shardBits]shard // first: the shards' cache lines are aligned
	seed   maphash.Seed
	token  uint64 // the high half of every id this Builder assigns
	_      [48]byte
	hits   atomic.Int64 // on a cache line of its own
	_      [56]byte
}

const shardBits = 6

// shard is two cache lines: the first holds what a memo lookup reads, the
// second what an insertion writes, so that insertions by one goroutine do
// not evict the other goroutines' lookups.
type shard struct {
	// memo is read without mu and replaced, grown, under it.
	memo atomic.Pointer[memoTable]
	_    [56]byte

	mu sync.Mutex
	// interned holds the nodes by shape hash; a node whose hash collides
	// with a different node's goes to collided.
	interned map[uint64]Expr
	collided map[uint64][]Expr
	nodes    uint32 // interned into this shard
	memoN    int
	_        [24]byte
}

// memoTable is an open-addressing table of remembered calls, probed
// linearly from the call's hash. A slot, once filled, never changes.
type memoTable struct {
	slots []atomic.Pointer[memoEntry]
}

// builders numbers the Builders of the process. A node's id carries the
// number of the Builder that interned it, which is how a Builder tells its
// own nodes from a caller's or another Builder's, which it never writes to.
// Numbering is the only state Builders share.
var builders atomic.Uint32

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	token := builders.Add(1)
	if token == 0 { // wrapped: 0 marks a node no Builder interned
		token = builders.Add(1)
	}
	return &Builder{seed: maphash.MakeSeed(), token: uint64(token)}
}

// BuilderStats is what a Builder did. Nodes is the number of distinct
// compound nodes it interned, which does not depend on the order in which
// the formulas were built. MemoHits is the number of calls its memo
// answered, which does when calls race.
type BuilderStats struct {
	Nodes, MemoHits int
}

// Stats reports the Builder's counters so far; a nil Builder's are zero.
func (b *Builder) Stats() BuilderStats {
	if b == nil {
		return BuilderStats{}
	}
	st := BuilderStats{MemoHits: int(b.hits.Load())}
	for i := range b.shards {
		s := &b.shards[i]
		s.mu.Lock()
		st.Nodes += int(s.nodes)
		s.mu.Unlock()
	}
	return st
}

// The memoized constructors.
const (
	ctorAdd uint8 = iota + 1
	ctorMul
	ctorSub
	ctorDiv
	ctorCeil
	ctorLog2
	ctorMax
	ctorSum
)

// memoEntry is one remembered call: its hash, the constructor, its operands
// (the first two inline) and the interned result.
type memoEntry struct {
	h    uint64
	ctor uint8
	n    int32
	a, b Expr
	rest []Expr
	r    Expr
}

// Add is the memoized Add.
func (b *Builder) Add(terms ...Expr) Expr {
	if b == nil {
		return Add(terms...)
	}
	return b.call(ctorAdd, terms)
}

// Mul is the memoized Mul.
func (b *Builder) Mul(factors ...Expr) Expr {
	if b == nil {
		return Mul(factors...)
	}
	return b.call(ctorMul, factors)
}

// Sub is the memoized Sub.
func (b *Builder) Sub(x, y Expr) Expr {
	if b == nil {
		return Sub(x, y)
	}
	return b.call(ctorSub, []Expr{x, y})
}

// Div is the memoized Div.
func (b *Builder) Div(x, y Expr) Expr {
	if b == nil {
		return Div(x, y)
	}
	return b.call(ctorDiv, []Expr{x, y})
}

// Ceil is the memoized Ceil.
func (b *Builder) Ceil(x Expr) Expr {
	if b == nil {
		return Ceil(x)
	}
	return b.call(ctorCeil, []Expr{x})
}

// Log2 is the memoized Log2.
func (b *Builder) Log2(x Expr) Expr {
	if b == nil {
		return Log2(x)
	}
	return b.call(ctorLog2, []Expr{x})
}

// Max is the memoized Max.
func (b *Builder) Max(terms ...Expr) Expr {
	if b == nil {
		return Max(terms...)
	}
	return b.call(ctorMax, terms)
}

// Sum is the memoized Sum.
func (b *Builder) Sum(idx string, n, body Expr) Expr {
	if b == nil {
		return Sum(idx, n, body)
	}
	return b.call(ctorSum, []Expr{Var(idx), n, body})
}

// construct runs the package-level constructor a memo entry names.
func construct(ctor uint8, args []Expr) Expr {
	switch ctor {
	case ctorAdd:
		return Add(args...)
	case ctorMul:
		return Mul(args...)
	case ctorSub:
		return Sub(args[0], args[1])
	case ctorDiv:
		return Div(args[0], args[1])
	case ctorCeil:
		return Ceil(args[0])
	case ctorLog2:
		return Log2(args[0])
	case ctorMax:
		return Max(args...)
	case ctorSum:
		return Sum(string(args[0].(Var)), args[1], args[2])
	}
	panic("symbolic: unknown constructor")
}

// call answers one constructor call: from the memo when the same call on the
// same operands was made before, else by the package-level constructor, whose
// result is interned and remembered. Goroutines that miss on one call at once
// all construct it, and interning makes their results one pointer.
func (b *Builder) call(ctor uint8, args []Expr) Expr {
	h := mix(0, uint64(ctor))
	for i := 0; i < len(args); i++ {
		id := nodeID(args[i])
		if isCompound(args[i]) && !b.owns(id) {
			// A caller's own formula: intern it (a copy) and start over.
			args = b.ownAll(args)
			h, i = mix(0, uint64(ctor)), -1
			continue
		}
		h = b.mixOperand(h, args[i], id)
	}
	s := &b.shards[h>>(64-shardBits)]
	if tab := s.memo.Load(); tab != nil {
		mask := uint64(len(tab.slots) - 1)
		for i := h & mask; ; i = (i + 1) & mask {
			m := tab.slots[i].Load()
			if m == nil {
				break
			}
			if m.h == h && m.is(ctor, args) {
				b.hits.Add(1)
				return m.r
			}
		}
	}
	m := &memoEntry{h: h, ctor: ctor, n: int32(len(args)), r: b.intern(construct(ctor, args))}
	switch {
	case len(args) > 2:
		m.rest = slices.Clone(args[2:])
		fallthrough
	case len(args) == 2:
		m.b = args[1]
		fallthrough
	case len(args) == 1:
		m.a = args[0]
	}
	s.remember(m)
	return m.r
}

// remember adds m to the shard's memo unless a racing call added its equal.
func (s *shard) remember(m *memoEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	tab := s.memo.Load()
	if tab == nil || 2*(s.memoN+1) > len(tab.slots) {
		// Grow into a new table: lookups still probing the old one see a
		// table that no longer changes.
		n := 64
		if tab != nil {
			n = 2 * len(tab.slots)
		}
		grown := &memoTable{slots: make([]atomic.Pointer[memoEntry], n)}
		if tab != nil {
			for i := range tab.slots {
				if e := tab.slots[i].Load(); e != nil {
					grown.put(e)
				}
			}
		}
		s.memo.Store(grown)
		tab = grown
	}
	if tab.put(m) {
		s.memoN++
	}
}

// put stores m in the first free slot of its probe sequence and reports
// whether it did: not when an equal call is already there.
func (tab *memoTable) put(m *memoEntry) bool {
	mask := uint64(len(tab.slots) - 1)
	for i := m.h & mask; ; i = (i + 1) & mask {
		e := tab.slots[i].Load()
		if e == nil {
			tab.slots[i].Store(m)
			return true
		}
		if e.h == m.h && e.ctor == m.ctor && e.n == m.n && same(e.a, m.a) && same(e.b, m.b) && sameAll(e.rest, m.rest) {
			return false
		}
	}
}

// is reports whether m remembers the call ctor(args...).
func (m *memoEntry) is(ctor uint8, args []Expr) bool {
	if m.ctor != ctor || int(m.n) != len(args) {
		return false
	}
	switch len(args) {
	case 0:
		return true
	case 1:
		return same(m.a, args[0])
	}
	return same(m.a, args[0]) && same(m.b, args[1]) && sameAll(m.rest, args[2:])
}

// mixOperand mixes an interned operand's identity into h: a node's id, a
// constant's bits or a variable's name.
func (b *Builder) mixOperand(h uint64, e Expr, id uint64) uint64 {
	switch c := e.(type) {
	case Const:
		return mix(h, ^math.Float64bits(float64(c)))
	case Var:
		return mix(h, maphash.String(b.seed, string(c)))
	case Named:
		return mix(^h, maphash.String(b.seed, string(c)))
	}
	return mix(h, id)
}

func mix(h, x uint64) uint64 {
	h ^= x
	h *= 0xff51afd7ed558ccd
	return h ^ h>>33
}

func nodeID(e Expr) uint64 {
	switch t := e.(type) {
	case *nary:
		return t.id
	case *div:
		return t.id
	case *unary:
		return t.id
	case *maxNode:
		return t.id
	}
	return 0
}

func (b *Builder) owns(id uint64) bool { return id>>32 == b.token }

// ownAll returns a copy of args with every operand interned.
func (b *Builder) ownAll(args []Expr) []Expr {
	out := make([]Expr, len(args))
	for i, a := range args {
		out[i] = b.own(a)
	}
	return out
}

// own returns the interned node equal to e, which may be anyone's. A node
// the Builder did not intern is copied, never written to: other goroutines may
// be reading it.
func (b *Builder) own(e Expr) Expr {
	switch n := e.(type) {
	case *nary:
		if b.owns(n.id) {
			return n
		}
		return b.insert(&nary{op: n.op, terms: b.ownAll(n.terms), k: n.k, cst: n.cst})
	case *maxNode:
		if b.owns(n.id) {
			return n
		}
		return b.insert(&maxNode{terms: b.ownAll(n.terms), k: n.k})
	case *div:
		if b.owns(n.id) {
			return n
		}
		return b.insert(&div{num: b.own(n.num), den: b.own(n.den), k: n.k, cst: n.cst})
	case *unary:
		if b.owns(n.id) {
			return n
		}
		return b.insert(&unary{op: n.op, arg: b.own(n.arg), k: n.k})
	}
	return e
}

// intern returns the interned node equal to e, a result fresh out of a
// package-level constructor whose operands were all interned. Every compound
// node in e that is not interned was therefore made by that call and is
// reachable only from e, so it is completed in place: its operands are
// replaced by their interned equals, then it is looked up by shape.
func (b *Builder) intern(e Expr) Expr {
	switch n := e.(type) {
	case *nary:
		if b.owns(n.id) {
			return n
		}
		for i, s := range n.terms {
			n.terms[i] = b.intern(s)
		}
	case *maxNode:
		if b.owns(n.id) {
			return n
		}
		for i, s := range n.terms {
			n.terms[i] = b.intern(s)
		}
	case *div:
		if b.owns(n.id) {
			return n
		}
		n.num, n.den = b.intern(n.num), b.intern(n.den)
	case *unary:
		if b.owns(n.id) {
			return n
		}
		n.arg = b.intern(n.arg)
	default:
		return e
	}
	return b.insert(e)
}

// insert returns the interned node with e's shape, interning e itself (and
// giving it its id) when there is none. e's operands are interned.
func (b *Builder) insert(e Expr) Expr {
	h := b.shapeHash(e)
	shard := h >> (64 - shardBits)
	s := &b.shards[shard]
	s.mu.Lock()
	defer s.mu.Unlock()
	if n, ok := s.interned[h]; ok {
		if sameShape(n, e) {
			return n
		}
		for _, n := range s.collided[h] {
			if sameShape(n, e) {
				return n
			}
		}
		if s.collided == nil {
			s.collided = map[uint64][]Expr{}
		}
		s.collided[h] = append(s.collided[h], e)
	} else {
		if s.interned == nil {
			s.interned = map[uint64]Expr{}
		}
		s.interned[h] = e
	}
	// Written under the shard's lock, before any other goroutine can reach e.
	// The low half of an id numbers the node within its shard.
	s.nodes++
	id := b.token<<32 | uint64(s.nodes)<<shardBits | shard
	switch n := e.(type) {
	case *nary:
		n.id = id
	case *maxNode:
		n.id = id
	case *div:
		n.id = id
	case *unary:
		n.id = id
	}
	return e
}

// shapeHash hashes a node's type, operator and operand identities. An
// operator is told apart from the others of its node type by its last byte.
func (b *Builder) shapeHash(e Expr) uint64 {
	var h uint64
	switch n := e.(type) {
	case *nary:
		h = mix(1, uint64(n.op[len(n.op)-1]))
		for _, s := range n.terms {
			h = b.mixOperand(h, s, nodeID(s))
		}
	case *maxNode:
		h = 2
		for _, s := range n.terms {
			h = b.mixOperand(h, s, nodeID(s))
		}
	case *div:
		h = b.mixOperand(b.mixOperand(3, n.num, nodeID(n.num)), n.den, nodeID(n.den))
	case *unary:
		h = b.mixOperand(mix(4, uint64(n.op[len(n.op)-1])), n.arg, nodeID(n.arg))
	}
	return h
}

// sameShape reports whether two nodes with interned operands are
// structurally equal, constant nodes apart from the others.
func sameShape(x, y Expr) bool {
	switch a := x.(type) {
	case *nary:
		c, ok := y.(*nary)
		return ok && a.op == c.op && a.cst == c.cst && sameAll(a.terms, c.terms)
	case *maxNode:
		c, ok := y.(*maxNode)
		return ok && sameAll(a.terms, c.terms)
	case *div:
		c, ok := y.(*div)
		return ok && a.cst == c.cst && same(a.num, c.num) && same(a.den, c.den)
	case *unary:
		c, ok := y.(*unary)
		return ok && a.op == c.op && same(a.arg, c.arg)
	}
	return false
}

func sameAll(xs, ys []Expr) bool {
	if len(xs) != len(ys) {
		return false
	}
	for i := range xs {
		if !same(xs[i], ys[i]) {
			return false
		}
	}
	return true
}

// same is identity of interned operands: constants by bits (0 and -0 are
// different formulas), variables by name, nodes by pointer.
func same(x, y Expr) bool {
	if cx, ok := x.(Const); ok {
		cy, ok := y.(Const)
		return ok && math.Float64bits(float64(cx)) == math.Float64bits(float64(cy))
	}
	return x == y
}
