package symbolic

import (
	"math"
	"math/rand"
	"testing"
)

// checkBox compiles one random group with the variables selected by
// paramMask as parameters, binds the others to small integers (those selected
// by unboundMask stay unbound, NaN), draws a box, and checks that BoxRoot's
// interval of every root holds what Eval computes at each corner of the box
// and at random interior points. A NaN value is allowed only where the
// interval is [-Inf, +Inf].
func checkBox(t *testing.T, seed int64, paramMask, unboundMask uint8, a, b int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	roots := randomRoots(r)
	var params, fixed []string
	for i, n := range []string{"x", "y", "z", "w"} {
		switch {
		case paramMask&(1<<i) != 0:
			params = append(params, n)
		case unboundMask&(1<<i) == 0:
			fixed = append(fixed, n)
		}
	}
	p := Compile(roots, params)
	for _, n := range fixed {
		if s, ok := p.Slot(n); ok {
			p.Set(s, float64(r.Intn(11)-2))
		}
	}
	p.Bind()
	p.BoxBegin()

	const lim = 1 << 40
	a, b = min(max(a, -lim), lim), min(max(b, -lim), lim)
	draw := func() int64 {
		return []int64{a, b, r.Int63n(9) - 1, 1 << uint(r.Intn(20)), r.Int63n(1 << 30)}[r.Intn(5)]
	}
	plo, phi := make([]int64, len(params)), make([]int64, len(params))
	for j := range params {
		u, v := draw(), draw()
		plo[j], phi[j] = min(u, v), max(u, v)
	}
	lo, hi := make([]float64, len(roots)), make([]float64, len(roots))
	for i := len(roots) - 1; i >= 0; i-- {
		lo[i], hi[i] = p.BoxRoot(i, plo, phi)
	}

	check := func(point []int64) {
		p.SetPoint(point)
		for i, e := range roots {
			v := p.Eval(i)
			top := math.IsInf(lo[i], -1) && math.IsInf(hi[i], 1)
			if math.IsNaN(v) && !top || !math.IsNaN(v) && (v < lo[i] || v > hi[i]) {
				t.Fatalf("seed %d params %v box %v..%v at %v: root %d (%s) evaluates to %v (%016x), outside [%v, %v]",
					seed, params, plo, phi, point, i, e, v, math.Float64bits(v), lo[i], hi[i])
			}
		}
	}
	point := make([]int64, len(params))
	for corner := 0; corner < 1<<len(params); corner++ {
		for j := range point {
			point[j] = plo[j]
			if corner&(1<<j) != 0 {
				point[j] = phi[j]
			}
		}
		check(point)
	}
	for k := 0; k < 8; k++ {
		for j := range point {
			span := phi[j] - plo[j] + 1
			if k%2 == 0 { // near the low end, where most formulas bend
				span = min(span, 1<<uint(r.Intn(12)))
			}
			point[j] = plo[j] + r.Int63n(span)
		}
		check(point)
	}
}

// TestBoxEncloses is the seeded sweep of box.go's contract.
func TestBoxEncloses(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	for i := 0; i < 3000; i++ {
		checkBox(t, r.Int63(), uint8(r.Intn(16)), uint8(r.Intn(16))&uint8(r.Intn(16)), r.Int63n(9)-1, 1<<uint(r.Intn(24)))
	}
}

func FuzzBoxEncloses(f *testing.F) {
	f.Add(int64(1), uint8(0b0011), uint8(0), int64(1), int64(4096))
	f.Add(int64(7), uint8(0b1000), uint8(0b0100), int64(0), int64(0))
	f.Add(int64(42), uint8(0b1111), uint8(0), int64(-3), int64(1)<<30)
	f.Add(int64(99), uint8(0b0101), uint8(0b0010), int64(1), int64(1))
	f.Fuzz(func(t *testing.T, seed int64, paramMask, unboundMask uint8, a, b int64) {
		checkBox(t, seed, paramMask, unboundMask, a, b)
	})
}

// TestBoxWidens pins the cases the enclosure cannot express as a finite
// interval, which read [-Inf, +Inf]: an unbound variable, a denominator that
// may be 0, the log2 of a possible negative, and a max whose first operand
// may be NaN. A max whose later operand may be NaN keeps the first's floor.
func TestBoxWidens(t *testing.T) {
	x, inf := V("x"), math.Inf(1)
	cases := []struct {
		e      Expr
		lo, hi float64 // the interval over x in [1, 8], up to outward rounding
	}{
		{Add(x, V("unbound")), -inf, inf},
		{Div(C(1), Sub(x, C(4))), -inf, inf},
		{Log2(Sub(x, C(4))), -inf, inf},
		{Max(V("unbound"), x), -inf, inf},
		{Max(x, V("zz")), 1, inf}, // Max orders its terms by key
		{Div(C(1), x), 0.125, 1},
		{Log2(Mul(x, C(2))), 1, 4},
	}
	near := func(got, want float64) bool { return got == want || math.Abs(got-want) < 1e-12 }
	for _, c := range cases {
		p := Compile([]Expr{c.e}, []string{"x"})
		p.Bind()
		p.BoxBegin()
		lo, hi := p.BoxRoot(0, []int64{1}, []int64{8})
		if lo > c.lo || hi < c.hi || !near(lo, c.lo) || !near(hi, c.hi) {
			t.Errorf("%s over x in [1, 8]: [%v, %v], want [%v, %v] rounded outward", c.e, lo, hi, c.lo, c.hi)
		}
	}
}
