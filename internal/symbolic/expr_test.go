package symbolic

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approxEq(a, b float64) bool {
	if a == b { // equal infinities have no finite difference
		return true
	}
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	diff := math.Abs(a - b)
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return diff <= 1e-9*scale
}

func TestConstFolding(t *testing.T) {
	cases := []struct {
		got  Expr
		want float64
	}{
		{Add(C(1), C(2), C(3)), 6},
		{Mul(C(2), C(3), C(4)), 24},
		{Sub(C(10), C(4)), 6},
		{Div(C(10), C(4)), 2.5},
		{Ceil(C(2.1)), 3},
		{Log2(C(8)), 3},
		{Max(C(1), C(5), C(3)), 5},
		{Mul(C(0), V("x")), 0},
		{Add(C(0), C(0)), 0},
	}
	for i, c := range cases {
		k, ok := c.got.(Const)
		if !ok {
			t.Fatalf("case %d: expected constant, got %s", i, c.got)
		}
		if float64(k) != c.want {
			t.Errorf("case %d: got %v want %v", i, float64(k), c.want)
		}
	}
}

func TestLikeTermCollection(t *testing.T) {
	x := V("x")
	e := Add(x, x, Mul(C(3), x))
	if e.String() != "5*x" {
		t.Errorf("got %q want 5*x", e.String())
	}
	e2 := Add(Mul(C(2), x), Mul(C(-2), x))
	if !Equal(e2, Zero) {
		t.Errorf("2x-2x should be 0, got %s", e2)
	}
}

func TestMulFlattensAndSorts(t *testing.T) {
	x, y := V("x"), V("y")
	a := Mul(x, Mul(y, C(2)))
	b := Mul(C(2), Mul(y, x))
	if !Equal(a, b) {
		t.Errorf("products should canonicalize equal: %s vs %s", a, b)
	}
}

func TestDivSimplification(t *testing.T) {
	x := V("x")
	if !Equal(Div(x, C(1)), x) {
		t.Error("x/1 != x")
	}
	if !Equal(Div(x, x), One) {
		t.Error("x/x != 1")
	}
	if !Equal(Div(Zero, x), Zero) {
		t.Error("0/x != 0")
	}
	// (x/y)/z == x/(y*z)
	e := Div(Div(x, V("y")), V("z"))
	env := Env{"x": 12, "y": 2, "z": 3}
	if !approxEq(e.Eval(env), 2) {
		t.Errorf("nested div eval: got %v", e.Eval(env))
	}
}

func TestMaxMinDedup(t *testing.T) {
	x, y := V("x"), V("y")
	e := Max(x, Max(y, x))
	env := Env{"x": 3, "y": 7}
	if !approxEq(e.Eval(env), 7) {
		t.Errorf("max eval got %v", e.Eval(env))
	}
	if !Equal(Max(x, x), x) {
		t.Error("max(x,x) != x")
	}
}

func TestFreeVars(t *testing.T) {
	e := Add(Mul(V("x"), V("k1")), Div(V("y"), V("k2")), Ceil(V("x")))
	got := FreeVars(e)
	want := []string{"k1", "k2", "x", "y"}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestSubst(t *testing.T) {
	e := Add(V("x"), Mul(V("k"), V("x")))
	s := Subst(e, map[string]Expr{"k": C(3)})
	if s.String() != "4*x" {
		t.Errorf("subst got %q want 4*x", s.String())
	}
}

func TestEvalUnboundIsNaN(t *testing.T) {
	if !math.IsNaN(V("nope").Eval(Env{})) {
		t.Error("unbound var should eval to NaN")
	}
}

// randomExpr builds a random expression tree over vars x,y,z with depth d.
func randomExpr(r *rand.Rand, d int) Expr { return randomExprOver(r, d, V) }

// randomExprOver is randomExpr with each variable drawn as v(name).
func randomExprOver(r *rand.Rand, d int, v func(string) Expr) Expr {
	if d == 0 {
		switch r.Intn(3) {
		case 0:
			return C(float64(r.Intn(9) + 1))
		default:
			return v([]string{"x", "y", "z"}[r.Intn(3)])
		}
	}
	a := randomExprOver(r, d-1, v)
	b := randomExprOver(r, d-1, v)
	switch r.Intn(5) {
	case 0:
		return Add(a, b)
	case 1:
		return Mul(a, b)
	case 2:
		return Sub(a, b)
	case 3:
		return Max(a, b)
	default:
		return Div(a, Add(b, C(1))) // keep denominators nonzero-ish
	}
}

// Property: Subst with identity bindings preserves evaluation, i.e. the
// rebuild-and-resimplify path agrees with the original tree.
func TestQuickSimplifyPreservesEval(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	f := func(seed int64, xv, yv, zv uint8) bool {
		rr := rand.New(rand.NewSource(seed))
		e := randomExpr(rr, 4)
		env := Env{"x": float64(xv%13 + 1), "y": float64(yv%13 + 1), "z": float64(zv%13 + 1)}
		re := Subst(e, map[string]Expr{})
		return approxEq(e.Eval(env), re.Eval(env))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: r}); err != nil {
		t.Error(err)
	}
}

// Property: substituting constants then evaluating equals evaluating with an
// extended environment. Trees whose value is non-finite are skipped: a
// division by an exact zero may legitimately fold differently after
// simplification (0/0 vs a pre-folded 0).
func TestQuickSubstCommutesWithEval(t *testing.T) {
	f := func(seed int64, xv uint8) bool {
		rr := rand.New(rand.NewSource(seed))
		e := randomExpr(rr, 3)
		x := float64(xv%7 + 1)
		env := Env{"x": x, "y": 3, "z": 5}
		direct := e.Eval(env)
		if math.IsNaN(direct) || math.IsInf(direct, 0) || math.Abs(direct) > 1e12 {
			return true // ill-conditioned tree: rounding dominates
		}
		sub := Subst(e, map[string]Expr{"x": C(x)})
		return approxEq(direct, sub.Eval(Env{"y": 3, "z": 5}))
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(99))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestSumClosedFormConstant(t *testing.T) {
	// sum_{i=0}^{n-1} 5 = 5n
	e := Sum("i", V("n"), C(5))
	if !approxEq(e.Eval(Env{"n": 10}), 50) {
		t.Errorf("got %v want 50", e.Eval(Env{"n": 10}))
	}
}

func TestSumClosedFormLinear(t *testing.T) {
	// sum_{i=0}^{n-1} (i+1) = n(n+1)/2 — the insertion-sort shape.
	e := Sum("i", V("n"), Add(V("i"), C(1)))
	for _, n := range []float64{1, 2, 5, 100} {
		want := n * (n + 1) / 2
		if !approxEq(e.Eval(Env{"n": n}), want) {
			t.Errorf("n=%v: got %v want %v", n, e.Eval(Env{"n": n}), want)
		}
	}
}

func TestSumClosedFormQuadratic(t *testing.T) {
	// sum i^2 = n(n-1)(2n-1)/6
	e := Sum("i", V("n"), Mul(V("i"), V("i")))
	for _, n := range []float64{1, 3, 10} {
		want := 0.0
		for i := 0.0; i < n; i++ {
			want += i * i
		}
		if !approxEq(e.Eval(Env{"n": n}), want) {
			t.Errorf("n=%v: got %v want %v", n, e.Eval(Env{"n": n}), want)
		}
	}
}

func TestSumWorstCaseFallback(t *testing.T) {
	// Non-polynomial dependence: ceil(i/2). Fallback is n * body(n-1),
	// which must upper-bound the true sum.
	body := Ceil(Div(V("i"), C(2)))
	e := Sum("i", V("n"), body)
	n := 10.0
	truth := 0.0
	for i := 0.0; i < n; i++ {
		truth += math.Ceil(i / 2)
	}
	got := e.Eval(Env{"n": n})
	if got < truth {
		t.Errorf("fallback %v must upper-bound true sum %v", got, truth)
	}
}

// Property: the linear closed form matches brute-force summation for
// arbitrary linear bodies a + b*i with symbolic coefficients bound later.
func TestQuickSumLinearMatchesBruteForce(t *testing.T) {
	f := func(a, b int8, nn uint8) bool {
		n := float64(nn%30 + 1)
		body := Add(C(float64(a)), Mul(C(float64(b)), V("i")))
		e := Sum("i", V("n"), body)
		truth := 0.0
		for i := 0.0; i < n; i++ {
			truth += float64(a) + float64(b)*i
		}
		return approxEq(e.Eval(Env{"n": n}), truth)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSumCoefficientsMayMentionOtherVars(t *testing.T) {
	// sum_{i=0}^{n-1} (y + y*i) = y*n + y*n(n-1)/2
	e := Sum("i", V("n"), Add(V("y"), Mul(V("y"), V("i"))))
	env := Env{"n": 6, "y": 4}
	want := 4.0*6 + 4.0*15
	if !approxEq(e.Eval(env), want) {
		t.Errorf("got %v want %v", e.Eval(env), want)
	}
}

func TestStringRendering(t *testing.T) {
	e := Add(Mul(C(2), V("x")), Div(V("y"), V("k")))
	s := e.String()
	if s == "" {
		t.Fatal("empty render")
	}
	// Must round-trip through Eval the same regardless of rendering.
	if !approxEq(e.Eval(Env{"x": 1, "y": 6, "k": 3}), 4) {
		t.Errorf("eval got %v", e.Eval(Env{"x": 1, "y": 6, "k": 3}))
	}
}
