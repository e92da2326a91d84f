// Package opt implements the non-linear parameter selection of OCAS.
// The paper uses the sequential penalty derivative-free method of Liuzzi,
// Lucidi and Sciandrone [19] to tune block and buffer sizes so as to
// minimize the symbolic cost estimate subject to capacity constraints.
// This implementation follows the same scheme: an increasing-penalty outer
// loop around a derivative-free pattern search over the (integer, highly
// multiplicative) parameter space.
package opt

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"ocas/internal/cost"
	sym "ocas/internal/symbolic"
)

// Problem is a constrained minimization over named integer parameters.
type Problem struct {
	// Objective is the cost formula in seconds.
	Objective sym.Expr
	// Constraints are LHS ≤ RHS capacity restrictions.
	Constraints []cost.Constraint
	// Params are the free parameters to tune (block sizes, buffer sizes,
	// partition counts). Everything else must be bound by Fixed.
	Params []string
	// Fixed binds input cardinalities and any pre-chosen parameters.
	Fixed sym.Env
	// Lo/Hi optionally bound parameters; defaults are [1, 2^40].
	Lo, Hi map[string]int64
}

// Result of a minimization.
type Result struct {
	Values  map[string]int64
	Seconds float64
}

const (
	defaultHi  = int64(1) << 40
	maxPenalty = 1e12
)

// Minimize tunes the parameters. It returns an error when no feasible
// assignment is found.
func Minimize(p Problem) (*Result, error) { return Precompile(p).Minimize(p) }

// Compiled is one problem's formulas compiled for repeated minimization
// under varying Fixed environments (plan-template instantiation re-tunes the
// same cost formulas at fresh cardinalities). Not safe for concurrent use.
type Compiled struct {
	params []string
	cf     *cost.CompiledFormulas
}

// Precompile compiles p's formulas once. Only the Objective, Constraints and
// Params of p matter here; Fixed, Lo and Hi are taken from the Problem given
// to each Minimize call. The search evaluates the objective and every
// constraint thousands of times under environments that differ only in the
// tuning parameters, so the formulas share one slot layout
// (cost.CompileFormulas): fixed values are written once per Minimize, and each
// evaluation point just overwrites the parameter slots. Compiled evaluation
// is bit-identical to Expr.Eval.
func Precompile(p Problem) *Compiled {
	if len(p.Params) == 0 {
		// Parameter-free problems are evaluated once, on Expr.Eval.
		return &Compiled{}
	}
	params := sortedParams(p)
	return &Compiled{params: params,
		cf: cost.CompileFormulas(p.Objective, p.Constraints, params, nil, false)}
}

// Minimize solves p over the precompiled formulas. p must carry the same
// Objective, Constraints and Params the Compiled was built from; the
// trajectory does not depend on how many problems the formulas have served.
func (c *Compiled) Minimize(p Problem) (*Result, error) {
	if len(p.Params) == 0 {
		return minimizeNoParams(p)
	}
	c.cf.SetFixed(p.Fixed)
	return minimizeWith(p, c.params, c.cf)
}

// minimizeNoParams is the parameter-free fast path: the objective is a
// constant under Fixed (kept on Expr.Eval, one evaluation is cheaper than a
// compile).
func minimizeNoParams(p Problem) (*Result, error) {
	v := p.Objective.Eval(p.Fixed)
	if math.IsNaN(v) {
		return nil, fmt.Errorf("opt: objective has unbound variables: %v", sym.FreeVars(p.Objective))
	}
	return &Result{Values: map[string]int64{}, Seconds: v}, nil
}

func sortedParams(p Problem) []string {
	params := append([]string(nil), p.Params...)
	sort.Strings(params)
	return params
}

// minimizeWith is the penalty/pattern-search loop.
func minimizeWith(p Problem, params []string, cf *cost.CompiledFormulas) (*Result, error) {
	lo := func(name string) int64 {
		if v, ok := p.Lo[name]; ok && v > 0 {
			return v
		}
		return 1
	}
	hi := func(name string) int64 {
		if v, ok := p.Hi[name]; ok && v > 0 {
			return v
		}
		return defaultHi
	}

	violationAt := func(x map[string]int64) float64 {
		cf.SetPoint(x)
		return cf.Violation()
	}

	penalized := func(x map[string]int64, mu float64) float64 {
		cf.SetPoint(x)
		f := cf.Seconds()
		// The relative violation keeps the penalty scale-free.
		v := cf.Violation()
		if math.IsNaN(f) || math.IsNaN(v) {
			return math.Inf(1)
		}
		return f + mu*v*v*1e3 + mu*v
	}

	// Start points: all-ones (always capacity-feasible for block sizes) and
	// a mid-scale point, to escape flat regions of ceil-shaped objectives.
	starts := []map[string]int64{{}, {}}
	for _, name := range params {
		starts[0][name] = clamp(lo(name), lo(name), hi(name))
		starts[1][name] = clamp(1<<12, lo(name), hi(name))
	}

	best := map[string]int64{}
	bestVal := math.Inf(1)
	for _, start := range starts {
		x := copyMap(start)
		for mu := 1.0; mu <= maxPenalty; mu *= 100 {
			x = patternSearch(x, params, lo, hi, func(c map[string]int64) float64 {
				return penalized(c, mu)
			})
			if violationAt(x) == 0 {
				break
			}
		}
		if violationAt(x) > 0 {
			continue
		}
		cf.SetPoint(x)
		if v := cf.Seconds(); v < bestVal {
			bestVal = v
			best = copyMap(x)
		}
	}
	if math.IsInf(bestVal, 1) {
		return nil, errors.New("opt: no feasible parameter assignment found")
	}
	return &Result{Values: best, Seconds: bestVal}, nil
}

// patternSearch is a derivative-free coordinate search with multiplicative
// steps: block sizes live on an exponential scale, so steps are factors
// (×2^8 down to ×2), with an additive ±1 polish at the end.
func patternSearch(start map[string]int64, params []string,
	lo, hi func(string) int64, f func(map[string]int64) float64) map[string]int64 {

	x := copyMap(start)
	fx := f(x)
	try := func(name string, cand int64) bool {
		cand = clamp(cand, lo(name), hi(name))
		if cand == x[name] {
			return false
		}
		old := x[name]
		x[name] = cand
		if v := f(x); v < fx {
			fx = v
			return true
		}
		x[name] = old
		return false
	}
	for step := int64(256); step >= 2; step /= 4 {
		for improved := true; improved; {
			improved = false
			for _, name := range params {
				if try(name, x[name]*step) || try(name, x[name]/step) {
					improved = true
				}
			}
		}
	}
	// Per-parameter bisection refines each value between the last accepted
	// point and the rejected next multiplicative step — block sizes sit
	// against capacity walls (e.g. 8k <= B), and bisection lands on the
	// wall in O(log) evaluations where a ±1 walk would need thousands.
	for round := 0; round < 3; round++ {
		improved := false
		for _, name := range params {
			for _, dir := range []int{1, -1} {
				loV, hiV := x[name], x[name]*4
				if dir < 0 {
					loV, hiV = x[name]/4, x[name]
				}
				loV, hiV = clamp(loV, lo(name), hi(name)), clamp(hiV, lo(name), hi(name))
				for hiV-loV > 1 {
					mid := loV + (hiV-loV)/2
					if try(name, mid) {
						improved = true
						if dir > 0 {
							loV = mid
						} else {
							hiV = mid
						}
					} else if dir > 0 {
						hiV = mid
					} else {
						loV = mid
					}
				}
			}
		}
		if !improved {
			break
		}
	}
	// Exchange moves handle coupled capacity constraints (k1 + k2 <= B):
	// shifting budget from one buffer to another is invisible to
	// per-coordinate moves because the intermediate point is infeasible.
	tryPair := func(a, b string, fac int64) bool {
		ca := clamp(x[a]*fac, lo(a), hi(a))
		cb := clamp(x[b]/fac, lo(b), hi(b))
		if ca == x[a] && cb == x[b] {
			return false
		}
		oa, ob := x[a], x[b]
		x[a], x[b] = ca, cb
		if v := f(x); v < fx {
			fx = v
			return true
		}
		x[a], x[b] = oa, ob
		return false
	}
	for iter, improved := 0, true; improved && iter < 40; iter++ {
		improved = false
		for i := range params {
			for j := range params {
				if i == j {
					continue
				}
				for _, fac := range []int64{2, 4, 16} {
					if tryPair(params[i], params[j], fac) {
						improved = true
					}
				}
			}
		}
	}
	// Final ±1 polish (bounded).
	for iter, improved := 0, true; improved && iter < 32; iter++ {
		improved = false
		for _, name := range params {
			if try(name, x[name]+1) || try(name, x[name]-1) {
				improved = true
			}
		}
	}
	return x
}

func clamp(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func copyMap(m map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
