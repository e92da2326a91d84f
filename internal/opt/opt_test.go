package opt

import (
	"maps"
	"math"
	"slices"
	"testing"

	"ocas/internal/cost"
	sym "ocas/internal/symbolic"
)

// noBound is the upper bound of the tests that do not test bounds.
const noBound = int64(1) << 40

// bound compiles an objective and its constraints over params and binds the
// fixed values, as the synthesizer's screening pass does before it hands a
// member's program to Minimize.
func bound(obj sym.Expr, cons []cost.Constraint, params []string, fixed sym.Env) *cost.CompiledFormulas {
	cf := cost.CompileFormulas(obj, cons, params)
	names := slices.Sorted(maps.Keys(fixed))
	vals := make([]float64, len(names))
	for i, n := range names {
		vals[i] = fixed[n]
	}
	cf.SetBound(cf.Binding(names), vals)
	return cf
}

func TestNoParams(t *testing.T) {
	obj := sym.Add(sym.Mul(sym.V("x"), sym.C(2)), sym.Div(sym.V("x"), sym.C(3)))
	fixed := sym.Env{"x": 21}
	r, err := Minimize(bound(obj, nil, nil, fixed), noBound)
	if err != nil {
		t.Fatal(err)
	}
	// One evaluation of the bound program, the bits of Expr.Eval.
	if math.Float64bits(r.Seconds) != math.Float64bits(obj.Eval(fixed)) || r.Evals != 1 || r.Points != 1 {
		t.Errorf("got %v after %d evaluations, want %v after 1", r.Seconds, r.Evals, obj.Eval(fixed))
	}
	if r, err := Minimize(bound(sym.V("unbound"), nil, nil, nil), noBound); err == nil {
		t.Errorf("expected error for unbound objective, got %v", r.Seconds)
	}
}

// TestNaNConstraintInfeasible: a constraint side that cannot be evaluated
// (here an unbound variable) makes every point infeasible, as
// cost.CompiledFormulas.Eval documents; no start may be accepted with it.
func TestNaNConstraintInfeasible(t *testing.T) {
	cf := bound(sym.Div(sym.C(1e6), sym.V("k")),
		[]cost.Constraint{{LHS: sym.V("k"), RHS: sym.V("unbound")}},
		[]string{"k"}, nil)
	if r, err := Minimize(cf, noBound); err == nil {
		t.Errorf("accepted k = %v at %v s with a NaN constraint", r.Values, r.Seconds)
	}
}

func TestMaximizeBlockSizeUnderCapacity(t *testing.T) {
	// cost = x/k seeks; constraint 8k <= 1e6. Optimum: k = 125000.
	cf := bound(sym.Div(sym.V("x"), sym.V("k")),
		[]cost.Constraint{{LHS: sym.Mul(sym.C(8), sym.V("k")), RHS: sym.C(1e6)}},
		[]string{"k"}, sym.Env{"x": 1e9})
	r, err := Minimize(cf, noBound)
	if err != nil {
		t.Fatal(err)
	}
	if r.Values["k"] != 125000 {
		t.Errorf("k = %d want 125000", r.Values["k"])
	}
}

func TestCompetingBuffers(t *testing.T) {
	// Two nested loops compete for RAM: cost = x/k1 + (x/k1)(y/k2),
	// 8(k1+k2) <= B. The trivial "both maximal" heuristic fails here;
	// the solver must favour k2 (the inner, multiplied term)
	// while keeping k1 > 0 — exactly the case the paper gives for using
	// the optimizer instead of the single-loop heuristic.
	r, err := Minimize(competingBuffers(8*1024), noBound)
	if err != nil {
		t.Fatal(err)
	}
	if r.Values["k1"]+r.Values["k2"] > 1024 {
		t.Errorf("infeasible: k1+k2 = %d", r.Values["k1"]+r.Values["k2"])
	}
	// Optimum splits the budget evenly (both terms are ~x*y/(k1*k2)):
	// k1*k2 maximal at k1=k2=512. Allow slack for the discrete search.
	prod := float64(r.Values["k1"] * r.Values["k2"])
	if prod < 0.9*512*512 {
		t.Errorf("k1*k2 = %v too far from optimum 262144 (k1=%d k2=%d)",
			prod, r.Values["k1"], r.Values["k2"])
	}
}

func TestInfeasibleReported(t *testing.T) {
	cf := bound(sym.V("k"),
		[]cost.Constraint{{LHS: sym.V("k"), RHS: sym.C(0.5)}}, // k>=1 always violates
		[]string{"k"}, nil)
	r, err := Minimize(cf, noBound)
	if err == nil {
		t.Fatal("expected infeasibility error")
	}
	if r.Evals == 0 || r.Evals != r.Points {
		t.Errorf("an infeasible search reports %d evaluations over %d points", r.Evals, r.Points)
	}
}

func TestBoundsRespected(t *testing.T) {
	// The bound holds every parameter, and the params come back by name
	// whatever order they were given in.
	cf := bound(sym.Add(sym.Div(sym.C(1e9), sym.V("k")), sym.Div(sym.C(1e9), sym.V("b"))),
		nil, []string{"k", "b"}, nil)
	if got := cf.Params(); !slices.Equal(got, []string{"b", "k"}) {
		t.Fatalf("params %v, want them sorted", got)
	}
	r, err := Minimize(cf, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if r.Values["k"] != 4096 || r.Values["b"] != 4096 {
		t.Errorf("k = %d, b = %d, want the upper bound 4096", r.Values["k"], r.Values["b"])
	}
}

func TestExternalSortKSelection(t *testing.T) {
	// The merge-sort trade-off of Section 7.2: passes ~ ceil(log2(x)/k),
	// seeks per pass grow with 2^k (buffers shrink). The best k must be
	// interior (not 1, not huge) for HDD-like seek/bandwidth ratios.
	x := 1e7
	ram := 32.0 * 1024 * 1024
	obj := sym.Add(
		// transfer: passes * bytes * unitTr (up+down)
		sym.Mul(
			sym.Ceil(sym.Div(sym.Log2(sym.C(x)), sym.V("k"))),
			sym.C(x*8*2/(30*1024*1024))),
		// seeks: passes * 2 * x / (ram/(8*2^(k+1))) * seekTime
		sym.Mul(
			sym.Ceil(sym.Div(sym.Log2(sym.C(x)), sym.V("k"))),
			sym.C(2*x*0.015),
			sym.Div(sym.Mul(sym.C(8), sym.V("twoK")), sym.C(ram))),
	)
	// twoK = 2^(k+1) is modelled as a second parameter tied by constraint
	// twoK >= 2^k (the solver works on the relaxation; we sweep k directly
	// here to keep the test deterministic).
	best, bestK := math.Inf(1), 0
	for k := 1; k <= 16; k++ {
		v := obj.Eval(sym.Env{"k": float64(k), "twoK": math.Pow(2, float64(k+1))})
		if v < best {
			best, bestK = v, k
		}
	}
	if bestK <= 1 || bestK >= 16 {
		t.Errorf("expected interior optimum for merge fan-in, got k=%d", bestK)
	}
}

// competingBuffers is TestCompetingBuffers' problem with a RAM budget: the
// cost x/k1 + (x/k1)(y/k2) under 8(k1+k2) <= budget, bound at x = y = 1e6.
func competingBuffers(budget float64) *cost.CompiledFormulas {
	return bound(sym.Add(
		sym.Div(sym.V("x"), sym.V("k1")),
		sym.Mul(sym.Div(sym.V("x"), sym.V("k1")), sym.Div(sym.V("y"), sym.V("k2")))),
		[]cost.Constraint{{
			LHS: sym.Mul(sym.C(8), sym.Add(sym.V("k1"), sym.V("k2"))),
			RHS: sym.C(budget)}},
		[]string{"k1", "k2"}, sym.Env{"x": 1e6, "y": 1e6})
}

// TestWarmMinimizeAllocations: a minimization over a bound program allocates
// its Result and nothing per evaluation — the point and the point memo live
// in pooled scratch. The bound leaves room for one fresh scratch (about ten
// allocations): under the race detector sync.Pool drops a quarter of what is
// put back.
func TestWarmMinimizeAllocations(t *testing.T) {
	var evals [2]int
	for i, budget := range []float64{8 * 64, 8 << 30} {
		cf := competingBuffers(budget)
		r, err := Minimize(cf, noBound)
		if err != nil {
			t.Fatal(err)
		}
		evals[i] = r.Evals
		if r.Evals != r.Points {
			t.Errorf("budget %v: %d evaluations for %d distinct points", budget, r.Evals, r.Points)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := Minimize(cf, noBound); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 16 {
			t.Errorf("budget %v: a warm Minimize of %d evaluations allocates %v times, want at most 16", budget, r.Evals, allocs)
		}
	}
	if max(evals[0], evals[1]) < 2*min(evals[0], evals[1]) {
		t.Errorf("the two budgets should differ widely in work, got %d and %d evaluations", evals[0], evals[1])
	}
}

// TestMinimizeRepeats: the trajectory does not depend on what the pooled
// scratch or the bound program served before — a search leaves the program's
// parameter slots at its last point, and a re-bind to other fixed values in
// between changes nothing either.
func TestMinimizeRepeats(t *testing.T) {
	small, large := competingBuffers(8*64), competingBuffers(8<<20)
	first, err := Minimize(large, noBound)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Minimize(small, noBound); err != nil {
		t.Fatal(err)
	}
	names := []string{"x", "y"}
	large.SetBound(large.Binding(names), []float64{3, 5})
	if _, err := Minimize(large, 64); err != nil {
		t.Fatal(err)
	}
	large.SetBound(large.Binding(names), []float64{1e6, 1e6})
	again, err := Minimize(large, noBound)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(first.Seconds) != math.Float64bits(again.Seconds) ||
		first.Values["k1"] != again.Values["k1"] || first.Values["k2"] != again.Values["k2"] {
		t.Errorf("second run found %v at %v, first %v at %v", again.Seconds, again.Values, first.Seconds, first.Values)
	}
	if again.Evals != first.Evals || again.Points != first.Points {
		t.Errorf("second run: %d evaluations over %d points, first %d over %d", again.Evals, again.Points, first.Evals, first.Points)
	}
}

func TestPointMemo(t *testing.T) {
	var m pointMemo
	const n = 5 * memoInitialSize // forces three doublings
	for round := 0; round < 2; round++ {
		m.reset(2)
		for i := int64(0); i < n; i++ {
			// Powers of two and near-equal coordinates: the points a block-size
			// search visits.
			x := []int64{1 << uint(i%40), i}
			e, found := m.lookup(x)
			if found {
				t.Fatalf("round %d: point %v found before it was stored", round, x)
			}
			e.seconds, e.violation = float64(i), float64(-i)
		}
		if m.count != n {
			t.Fatalf("round %d: count %d, want %d", round, m.count, n)
		}
		for i := int64(0); i < n; i++ {
			e, found := m.lookup([]int64{1 << uint(i%40), i})
			if !found || e.seconds != float64(i) || e.violation != float64(-i) {
				t.Fatalf("round %d: point %d reads (%v, %v) found=%v", round, i, e.seconds, e.violation, found)
			}
		}
		if m.count != n {
			t.Fatalf("round %d: lookups changed count to %d", round, m.count)
		}
	}
	// A reset to another arity forgets everything, also across an epoch wrap.
	m.epoch = math.MaxUint32
	m.reset(3)
	if _, found := m.lookup([]int64{1, 0, 0}); found || m.count != 1 {
		t.Errorf("after the epoch wrapped: found=%v count=%d", found, m.count)
	}
	if _, found := m.lookup([]int64{1, 0, 0}); !found {
		t.Error("stored point not found after the epoch wrapped")
	}
}
