package symbolic

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// builderLeaves are a builder program's first operands: variables and
// constants, among them the ones interning must keep apart although their
// keys agree (0 and -0) and a NaN, and two named constants.
var builderLeaves = []Expr{V("x"), V("y"), V("z"), C(0), C(math.Copysign(0, -1)), C(1), C(2),
	C(-1), C(0.5), C(3), C(math.NaN()), C(1e300), Named("$a"), Named("$b")}

// structEq is exact structural equality: constants by bits.
func structEq(a, b Expr) bool {
	switch x := a.(type) {
	case Const:
		y, ok := b.(Const)
		return ok && math.Float64bits(float64(x)) == math.Float64bits(float64(y))
	case Var, Named:
		return a == b
	case *nary:
		y, ok := b.(*nary)
		return ok && x.op == y.op && x.cst == y.cst && structEqAll(x.terms, y.terms)
	case *maxNode:
		y, ok := b.(*maxNode)
		return ok && structEqAll(x.terms, y.terms)
	case *div:
		y, ok := b.(*div)
		return ok && x.cst == y.cst && structEq(x.num, y.num) && structEq(x.den, y.den)
	case *unary:
		y, ok := b.(*unary)
		return ok && x.op == y.op && structEq(x.arg, y.arg)
	}
	return false
}

func structEqAll(xs, ys []Expr) bool {
	if len(xs) != len(ys) {
		return false
	}
	for i := range xs {
		if !structEq(xs[i], ys[i]) {
			return false
		}
	}
	return true
}

// runBuilderProgram decodes data as a sequence of constructor calls and
// applies each both through a Builder and through the package-level
// constructors. A call is an op byte — the constructor in its low six bits;
// bit 6 reuses the previous call's operands, so that different constructors
// meet the same operands in the memo — then, for an n-ary constructor, an
// arity byte, then one byte per
// operand: an index into the results so far, whose high bit passes the
// package-built twin, a formula the Builder did not make. Every step must
// give the same key and bit-equal Eval (any NaN matching any NaN), and
// structurally equal Builder results must be one pointer.
func runBuilderProgram(t *testing.T, data []byte) {
	t.Helper()
	bl := NewBuilder()
	type pair struct{ built, plain Expr }
	pool := make([]pair, len(builderLeaves))
	for i, l := range builderLeaves {
		pool[i] = pair{l, l}
	}
	envs := []Env{{"x": 3, "y": -2, "z": 0.25, "$a": 0.015, "$b": 4096}, {"x": 0, "y": 7, "z": -1, "$a": -3, "$b": 0}}
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		c := data[0]
		data = data[1:]
		return c
	}
	operand := func() (built, plain Expr) {
		c := next()
		p := pool[int(c&0x7f)%len(pool)]
		if c&0x80 != 0 {
			return p.plain, p.plain
		}
		return p.built, p.plain
	}
	var prevBuilt, prevPlain []Expr
	for step := 0; len(data) > 0 && step < 48; step++ {
		op := next()
		reuse := op&0x40 != 0
		// operands returns n operands, or with n < 0 an arity byte's worth.
		operands := func(n int) (built, plain []Expr) {
			if reuse {
				if n < 0 {
					n = len(prevBuilt)
				}
				built, plain = prevBuilt[:min(n, len(prevBuilt))], prevPlain[:min(n, len(prevPlain))]
			} else if n < 0 {
				n = 1 + int(next()%4)
			}
			for len(built) < n {
				x, y := operand()
				built, plain = append(built, x), append(plain, y)
			}
			prevBuilt, prevPlain = built, plain
			return built, plain
		}
		var got, want Expr
		switch x, y := []Expr(nil), []Expr(nil); op & 0x3f % 8 {
		case 0:
			x, y = operands(-1)
			got, want = bl.Add(x...), Add(y...)
		case 1:
			x, y = operands(-1)
			got, want = bl.Mul(x...), Mul(y...)
		case 2:
			x, y = operands(2)
			got, want = bl.Sub(x[0], x[1]), Sub(y[0], y[1])
		case 3:
			x, y = operands(2)
			got, want = bl.Div(x[0], x[1]), Div(y[0], y[1])
		case 4:
			x, y = operands(1)
			got, want = bl.Ceil(x[0]), Ceil(y[0])
		case 5:
			x, y = operands(1)
			got, want = bl.Log2(x[0]), Log2(y[0])
		case 6:
			x, y = operands(-1)
			got, want = bl.Max(x...), Max(y...)
		case 7:
			x, y = operands(2)
			got, want = bl.Sum("x", x[0], x[1]), Sum("x", y[0], y[1])
		}
		if got.key() != want.key() {
			t.Fatalf("step %d: Builder built %s, the constructors %s", step, got.key(), want.key())
		}
		for _, env := range envs {
			if g, w := got.Eval(env), want.Eval(env); !sameBits(g, w) {
				t.Fatalf("step %d: %s evaluates to %v (%016x) built, %v (%016x) by the constructors",
					step, want, g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
		if len(want.key()) > 1<<14 {
			break // sums of sums grow fast; the rest would only be slow
		}
		pool = append(pool, pair{got, want})
	}
	for i := range pool {
		if !isCompound(pool[i].built) {
			continue
		}
		for j := 0; j < i; j++ {
			if pool[i].built != pool[j].built && structEq(pool[i].built, pool[j].built) {
				t.Fatalf("results %d and %d are equal formulas (%s) but two nodes", j, i, pool[i].built.key())
			}
		}
	}
}

// TestBuilderMatchesConstructors runs random builder programs; FuzzBuilder
// searches for more.
func TestBuilderMatchesConstructors(t *testing.T) {
	r := rand.New(rand.NewSource(28))
	for i := 0; i < 400; i++ {
		data := make([]byte, 8+r.Intn(120))
		r.Read(data)
		runBuilderProgram(t, data)
	}
}

func FuzzBuilder(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 0x42, 0x43, 0x41, 0x46, 0x47, 0x48})
	f.Add([]byte{3, 0, 4, 3, 12, 3, 2, 6, 1, 0, 0, 2, 12, 13, 4, 12, 5, 14})
	f.Add([]byte{8, 12, 1, 0, 2, 0, 0, 129, 1, 0, 1, 2, 0, 13, 14, 136, 15, 12})
	f.Add([]byte{1, 1, 3, 10, 1, 1, 4, 10, 2, 12, 13, 7, 2, 3, 4, 6, 1, 14, 15})
	f.Fuzz(runBuilderProgram)
}

// TestBuilderConcurrent builds one random batch of formulas on several
// goroutines at once through one Builder: every goroutine gets the very same
// nodes, and the node count is the one a single goroutine reaches.
func TestBuilderConcurrent(t *testing.T) {
	build := func(b *Builder, seed int64) []Expr {
		r := rand.New(rand.NewSource(seed))
		out := append([]Expr(nil), builderLeaves[:10]...)
		for len(out) < 400 {
			x, y := out[r.Intn(len(out))], out[r.Intn(len(out))]
			var e Expr
			switch r.Intn(5) {
			case 0:
				e = b.Add(x, y)
			case 1:
				e = b.Mul(x, y)
			case 2:
				e = b.Sub(x, y)
			case 3:
				e = b.Div(x, y)
			default:
				e = b.Max(x, b.Ceil(y))
			}
			if len(e.key()) < 1<<10 {
				out = append(out, e)
			}
		}
		return out
	}
	alone := NewBuilder()
	build(alone, 1)
	want := alone.Stats()

	b := NewBuilder()
	const workers = 4
	results := make([][]Expr, workers)
	var wg sync.WaitGroup
	for w := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[w] = build(b, 1)
		}()
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := range results[0] {
			if x, y := results[0][i], results[w][i]; isCompound(x) && x != y {
				t.Fatalf("goroutine %d, formula %d: %s is another node than goroutine 0's", w, i, x.key())
			}
		}
	}
	// Each goroutine misses a call at most once, so together they hit at
	// least as often as one goroutine alone, times their number.
	if st := b.Stats(); st.Nodes != want.Nodes || st.MemoHits < workers*want.MemoHits {
		t.Errorf("%d goroutines: %+v; one alone: %+v", workers, st, want)
	}
	if (*Builder)(nil).Stats() != (BuilderStats{}) {
		t.Error("a nil Builder has counters")
	}
}
