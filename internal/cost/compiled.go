package cost

import (
	"math"
	"slices"

	sym "ocas/internal/symbolic"
)

// CompiledFormulas is a cost estimate's objective and capacity constraints
// compiled into one sym.Program, for callers that evaluate the same formulas
// at many parameter points: the synthesizer's screening heuristic and the
// non-linear optimizer both drive their loops through one such program per
// search-space member, so the slot/NaN semantics cannot drift between the
// two. Fixed values (input cardinalities) are written with SetBound, which
// also runs the program's bind part; SetPointVals rewrites only the
// parameter slots. Not safe for concurrent use.
type CompiledFormulas struct {
	// prog's root 0 is the objective; roots 1+2i and 2+2i are constraint i's
	// LHS and RHS.
	prog   *sym.Program
	ncons  int
	params []string
}

// CompileFormulas compiles the objective and constraints over the given
// tuning parameters, with every other variable unbound. The parameters are
// taken in sorted order (Params); the order only lays out value slots, so it
// changes no evaluation's bits.
func CompileFormulas(seconds sym.Expr, cons []Constraint, params []string) *CompiledFormulas {
	exprs := make([]sym.Expr, 1, 1+2*len(cons))
	exprs[0] = seconds
	for _, con := range cons {
		exprs = append(exprs, con.LHS, con.RHS)
	}
	params = slices.Clone(params)
	slices.Sort(params)
	return &CompiledFormulas{prog: sym.Compile(exprs, params), ncons: len(cons), params: params}
}

// Params are the tuning parameters in the order SetPointVals takes them.
func (c *CompiledFormulas) Params() []string { return c.params }

// SetPointVals writes the parameter values, in Params order, for subsequent
// evaluations.
func (c *CompiledFormulas) SetPointVals(vals []int64) { c.prog.SetPoint(vals) }

// Binding resolves names to value slots once (-1 when the formulas never
// reference a name), for callers that re-bind the same variables across
// many evaluations without per-call map lookups.
func (c *CompiledFormulas) Binding(names []string) []int32 {
	out := make([]int32, len(names))
	for i, n := range names {
		out[i] = -1
		if s, ok := c.prog.Slot(n); ok {
			out[i] = s
		}
	}
	return out
}

// SetBound binds the fixed variables for subsequent evaluations: it writes
// vals (aligned with the Binding's names) through a precomputed Binding and
// runs the bind part. Names the formulas never mention are skipped.
func (c *CompiledFormulas) SetBound(bind []int32, vals []float64) {
	for i, s := range bind {
		if s >= 0 {
			c.prog.Set(s, vals[i])
		}
	}
	c.prog.Bind()
}

// Seconds evaluates the objective at the current point.
func (c *CompiledFormulas) Seconds() float64 { return c.prog.Eval(0) }

// AnyViolated reports whether some constraint has LHS > RHS at the current
// point, in constraint order (NaN sides compare false, exactly as the
// Expr.Eval-based check did).
func (c *CompiledFormulas) AnyViolated() bool {
	for i := 0; i < c.ncons; i++ {
		if c.prog.Eval(1+2*i) > c.prog.Eval(2+2*i) {
			return true
		}
	}
	return false
}

// Eval evaluates everything at the current point in one pass: the objective,
// and the summed relative constraint violation ((LHS-RHS)/max(1,|RHS|) over
// violated constraints; NaN when any side is NaN, which callers treat as
// infeasible).
func (c *CompiledFormulas) Eval() (seconds, violation float64) {
	c.prog.EvalAll()
	seconds = c.prog.Value(0)
	for i := 0; i < c.ncons; i++ {
		l, r := c.prog.Value(1+2*i), c.prog.Value(2+2*i)
		if math.IsNaN(l) || math.IsNaN(r) {
			return seconds, math.NaN()
		}
		if l > r {
			violation += (l - r) / math.Max(1, math.Abs(r))
		}
	}
	return seconds, violation
}
