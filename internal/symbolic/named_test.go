package symbolic

import (
	"math"
	"testing"
)

// TestNamedFoldsAsConst: a formula built once over named constants
// evaluates, with the constants bound, to the bits of the formula built over
// their values as numbers — interpreted and compiled alike, at every set of
// values. The cases are the folds a cost formula meets: a weight times a
// tally with its own coefficient, like terms on two weights, a quotient by a
// transfer limit, a buffer over a symbolic and a literal degree, a constant
// sum and a constant max.
func TestNamedFoldsAsConst(t *testing.T) {
	x, y, k := V("x"), V("y"), V("k")
	formulas := func(c func(name string) Expr) []Expr {
		return []Expr{
			Add(Mul(c("w1"), Mul(C(8), x)), Mul(c("w2"), Ceil(Div(x, k))), Mul(c("w3"), Add(x, y))),
			Add(Mul(c("w1"), Mul(C(16), x, y)), Mul(c("w2"), Mul(C(16), x, y)), Mul(c("w1"), Ceil(x))),
			Max(One, Div(Mul(C(8), x), c("lim"))),
			Div(Mul(C(8), x), Div(c("ram"), Add(k, One))),
			Max(k, Ceil(Div(Mul(C(8), y), Div(c("ram"), Add(C(4), One))))),
			Add(Mul(c("w1"), Add(x, C(2))), C(3), c("w2")),
			Max(Ceil(Div(c("ram"), C(3))), x, c("lim")),
			Sub(Mul(c("w1"), x), Mul(c("w2"), x)),
			Mul(Log2(c("ram")), Div(x, Mul(C(2), c("lim")))),
		}
	}
	named := formulas(func(name string) Expr { return Named(name) })
	prog := Compile(named, []string{"k"})
	for _, consts := range []Env{
		{"w1": 0.015, "w2": 0.015, "w3": 1.0 / (30 << 20), "lim": 256 << 10, "ram": 8 << 20},
		{"w1": 0.0017, "w2": 1.0 / (120 << 20), "w3": 0.0001, "lim": 3 << 17, "ram": 1<<20 + 3},
		{"w1": 1e-9, "w2": 7, "w3": 0.1, "lim": 1, "ram": 12345},
		{"w1": 0.3, "w2": 1.0 / 3, "w3": 0.7, "lim": 1000003, "ram": 999983},
	} {
		plain := formulas(func(name string) Expr { return C(consts[name]) })
		for name, v := range consts {
			if s, ok := prog.Slot(name); ok {
				prog.Set(s, v)
			}
		}
		for _, at := range []Env{{"x": 1 << 20, "y": 3, "k": 4096}, {"x": 77, "y": 1e6, "k": 3}, {"x": 123456789, "y": 987654321, "k": 777}} {
			env := Env{}
			for n, v := range consts {
				env[n] = v
			}
			for n, v := range at {
				env[n] = v
			}
			prog.Set(mustSlot(t, prog, "x"), at["x"])
			prog.Set(mustSlot(t, prog, "y"), at["y"])
			prog.Bind()
			prog.SetPoint([]int64{int64(at["k"])})
			for i := range named {
				want := plain[i].Eval(at)
				if got := named[i].Eval(env); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("formula %d at %v %v: %s reads %v, %s reads %v", i, consts, at, named[i], got, plain[i], want)
				}
				if got := prog.Eval(i); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("formula %d at %v %v: compiled %v, want %v", i, consts, at, got, want)
				}
			}
		}
	}
}

func mustSlot(t *testing.T, p *Program, name string) int32 {
	t.Helper()
	s, ok := p.Slot(name)
	if !ok {
		t.Fatalf("no slot for %s", name)
	}
	return s
}
