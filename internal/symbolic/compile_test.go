package symbolic

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sameBits is the compiled evaluator's contract against Expr.Eval: the same
// float64 bit for bit. NaN payloads are left out of it — which operand's
// payload an addition of two NaNs keeps is the instruction selector's choice,
// and every caller treats any NaN as "infeasible".
func sameBits(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// randomRoots draws the formulas of one compiled group over x, y, z and w:
// randomExpr trees, wrapped in the unary operators randomExpr does not draw,
// with one subtree shared by identity between two parents and between roots.
func randomRoots(r *rand.Rand) []Expr { return randomRootsOver(r, V) }

// randomRootsOver is randomRoots with each variable drawn as v(name).
func randomRootsOver(r *rand.Rand, v func(string) Expr) []Expr {
	shared := randomExprOver(r, 2, v)
	wrap := func(e Expr) Expr {
		switch r.Intn(4) {
		case 0:
			return Ceil(e)
		case 1:
			return Log2(Add(e, v("w")))
		case 2:
			return Max(Ceil(Div(shared, e)), Mul(shared, v("w")))
		}
		return e
	}
	roots := make([]Expr, 1+r.Intn(3))
	for i := range roots {
		roots[i] = wrap(Add(wrap(randomExprOver(r, 1+r.Intn(3), v)), wrap(randomExprOver(r, r.Intn(3), v))))
	}
	if r.Intn(4) == 0 {
		roots = append(roots, C(7), v("y")) // roots with no instruction at all
	}
	return roots
}

// checkCompiled compiles one random group with the variables selected by
// paramMask as tuning parameters, and walks it the way the optimizer and the
// screening pass do — bind, evaluate at several points, bind other values,
// evaluate again — comparing every root, read through both Eval and EvalAll,
// with Expr.Eval under the merged environment. Variables selected by
// unboundMask are never written and must read as NaN on both sides.
func checkCompiled(t *testing.T, seed int64, paramMask, unboundMask uint8, points [3]int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	roots := randomRoots(r)
	names := []string{"x", "y", "z", "w", "unused"}
	var params, fixed []string
	for i, n := range names {
		switch {
		case paramMask&(1<<i) != 0:
			params = append(params, n)
		case unboundMask&(1<<i) == 0:
			fixed = append(fixed, n)
		}
	}
	p := Compile(roots, params)
	env := Env{}
	point := make([]int64, len(params))
	for bindRound := 0; bindRound < 2; bindRound++ {
		for _, n := range fixed {
			v := float64(r.Intn(11) - 2)
			env[n] = v
			if s, ok := p.Slot(n); ok {
				p.Set(s, v)
			}
		}
		p.Bind()
		for eval := 0; eval < 4; eval++ {
			for i, n := range params {
				point[i] = points[(i+eval)%len(points)] + int64(eval*i)
				env[n] = float64(point[i])
			}
			p.SetPoint(point)
			// Last root first: no root may lean on a result another root's
			// stretch of the point part computes.
			for i := len(roots) - 1; i >= 0; i-- {
				e := roots[i]
				if got, want := p.Eval(i), e.Eval(env); !sameBits(got, want) {
					t.Fatalf("seed %d params %v round %d point %v: root %d (%s) compiled %v (%016x), Expr.Eval %v (%016x)",
						seed, params, bindRound, point, i, e, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
			p.EvalAll()
			for i, e := range roots {
				if got, want := p.Value(i), e.Eval(env); !sameBits(got, want) {
					t.Fatalf("seed %d params %v round %d point %v: root %d (%s) EvalAll %v (%016x), Expr.Eval %v (%016x)",
						seed, params, bindRound, point, i, e, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}
}

// TestCompiledEvalMatchesExprEval is the direct test of the bit-identical
// contract in compile.go's header.
func TestCompiledEvalMatchesExprEval(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for i := 0; i < 2000; i++ {
		points := [3]int64{r.Int63n(9) - 1, 1 << uint(r.Intn(20)), r.Int63n(1 << 30)}
		checkCompiled(t, r.Int63(), uint8(r.Intn(32)), uint8(r.Intn(32))&uint8(r.Intn(32)), points)
	}
}

func FuzzCompiledEval(f *testing.F) {
	f.Add(int64(1), uint8(0b00011), uint8(0), int64(1), int64(4096), int64(-3))
	f.Add(int64(7), uint8(0b01000), uint8(0b00100), int64(0), int64(0), int64(1)<<40)
	f.Add(int64(42), uint8(0), uint8(0b00001), int64(2), int64(3), int64(5))
	f.Add(int64(99), uint8(0b11111), uint8(0), int64(-1), int64(1), int64(1)<<52)
	f.Fuzz(func(t *testing.T, seed int64, paramMask, unboundMask uint8, a, b, c int64) {
		checkCompiled(t, seed, paramMask, unboundMask, [3]int64{a, b, c})
	})
}

// TestPermutedParamsSameBits: the order of Compile's params lays out value
// slots and nothing else, so programs compiled from the same formulas with
// the parameters permuted evaluate to the same bits — NaN payloads included —
// at the same named point. The synthesizer compiles each member once with its
// parameters sorted, for screening and tuning alike, and rests on this.
func TestPermutedParamsSameBits(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	names := []string{"x", "y", "z", "w", "unused"}
	for i := 0; i < 2000; i++ {
		roots := randomRoots(r)
		var params, fixed []string
		for _, n := range names {
			if r.Intn(2) == 0 {
				params = append(params, n)
			} else if r.Intn(4) != 0 { // the rest stay unbound (NaN)
				fixed = append(fixed, n)
			}
		}
		perm := append([]string(nil), params...)
		r.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		p, q := Compile(roots, params), Compile(roots, perm)
		for _, n := range fixed {
			v := float64(r.Intn(11) - 2)
			for _, prog := range []*Program{p, q} {
				if s, ok := prog.Slot(n); ok {
					prog.Set(s, v)
				}
			}
		}
		p.Bind()
		q.Bind()
		for eval := 0; eval < 3; eval++ {
			at := map[string]int64{}
			for _, n := range params {
				at[n] = []int64{r.Int63n(9) - 1, 1 << uint(r.Intn(20)), r.Int63n(1 << 30)}[eval]
			}
			p.SetPoint(pointOf(params, at))
			q.SetPoint(pointOf(perm, at))
			for j := range roots {
				if a, b := p.Eval(j), q.Eval(j); math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("draw %d, params %v vs %v at %v: root %d (%s) reads %016x vs %016x",
						i, params, perm, at, j, roots[j], math.Float64bits(a), math.Float64bits(b))
				}
			}
		}
	}
}

// pointOf lays out a named point in the given parameter order.
func pointOf(params []string, at map[string]int64) []int64 {
	out := make([]int64, len(params))
	for i, n := range params {
		out[i] = at[n]
	}
	return out
}

// FuzzShapeRename: renaming a group's tuning parameters through a map that
// keeps every name's order against every other (a suffix on names with
// distinct initials) leaves the compiled program's shape unchanged, and the
// two programs, bound alike, read the same bits at every point — the
// synthesizer tunes one program per shape and hands its values to every
// member by position. Flipping the lowest bit of one constant must give
// another shape.
func FuzzShapeRename(f *testing.F) {
	f.Add(int64(1), uint8(0b00011), int64(1), int64(4096), int64(-3), 2.0)
	f.Add(int64(7), uint8(0b01000), int64(0), int64(0), int64(1)<<40, -1.5)
	f.Add(int64(42), uint8(0b11111), int64(2), int64(3), int64(5), 0.0)
	f.Add(int64(99), uint8(0), int64(-1), int64(1), int64(1)<<52, 1e9)
	f.Fuzz(func(t *testing.T, seed int64, paramMask uint8, a, b, c int64, fixed float64) {
		names := []string{"x", "y", "z", "w", "unused"}
		renamed := map[string]string{}
		var params, others []string
		for i, n := range names {
			if paramMask&(1<<i) != 0 {
				params = append(params, n)
				renamed[n] = n + "_"
			}
		}
		rename := func(n string) Expr {
			if m, ok := renamed[n]; ok {
				return V(m)
			}
			return V(n)
		}
		for _, n := range params {
			others = append(others, renamed[n])
		}
		p := Compile(randomRootsOver(rand.New(rand.NewSource(seed)), V), params)
		q := Compile(randomRootsOver(rand.New(rand.NewSource(seed)), rename), others)
		if !p.SameShape(q) || !q.SameShape(p) || p.ShapeHash() != q.ShapeHash() {
			t.Fatalf("seed %d, params %v renamed %v: not one shape", seed, params, others)
		}
		for i, n := range names {
			if _, ok := renamed[n]; ok {
				continue
			}
			for _, prog := range []*Program{p, q} {
				if s, ok := prog.Slot(n); ok {
					prog.Set(s, fixed+float64(i))
				}
			}
		}
		p.Bind()
		q.Bind()
		vals := [3]int64{a, b, c}
		point := make([]int64, len(params))
		for eval := range vals {
			for i := range point {
				point[i] = vals[(i+eval)%len(vals)]
			}
			p.SetPoint(point)
			q.SetPoint(point)
			p.EvalAll()
			q.EvalAll()
			for j := range p.roots {
				if x, y := p.Value(j), q.Value(j); math.Float64bits(x) != math.Float64bits(y) {
					t.Fatalf("seed %d at %v: root %d reads %016x, renamed %016x", seed, point, j,
						math.Float64bits(x), math.Float64bits(y))
				}
			}
		}
		if p.slot0 > 0 {
			flipped := *q
			flipped.regs = slices.Clone(q.regs)
			k := uint64(seed) % uint64(p.slot0)
			flipped.regs[k] = math.Float64frombits(math.Float64bits(flipped.regs[k]) ^ 1)
			if p.SameShape(&flipped) {
				t.Fatalf("seed %d: constant %d flipped, still one shape", seed, k)
			}
		}
	})
}
