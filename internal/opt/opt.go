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
	"sync"

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
	// Evals and Points count the last Minimize: formula evaluations performed
	// and distinct points visited. The point memo makes them equal; the
	// search asks for about twice as many values as it visits points.
	Evals, Points int
}

// Precompile compiles p's formulas once. Only the Objective, Constraints and
// Params of p matter here; Fixed, Lo and Hi are taken from the Problem given
// to each Minimize call. The search evaluates the objective and every
// constraint hundreds of times under environments that differ only in the
// tuning parameters, so the formulas are one compiled program
// (cost.CompileFormulas): fixed values are bound once per Minimize, and each
// evaluation point just overwrites the parameter slots. Compiled evaluation
// is bit-identical to Expr.Eval.
func Precompile(p Problem) *Compiled {
	if len(p.Params) == 0 {
		// Parameter-free problems are evaluated once, on Expr.Eval.
		return &Compiled{}
	}
	params := append([]string(nil), p.Params...)
	sort.Strings(params)
	return &Compiled{params: params, cf: cost.CompileFormulas(p.Objective, p.Constraints, params)}
}

// Minimize solves p over the precompiled formulas. p must carry the same
// Objective, Constraints and Params the Compiled was built from; the
// trajectory does not depend on how many problems the formulas have served.
func (c *Compiled) Minimize(p Problem) (*Result, error) {
	if len(p.Params) == 0 {
		// The objective is a constant under Fixed (kept on Expr.Eval, one
		// evaluation is cheaper than a compile).
		c.Evals, c.Points = 1, 1
		v := p.Objective.Eval(p.Fixed)
		if math.IsNaN(v) {
			return nil, fmt.Errorf("opt: objective has unbound variables: %v", sym.FreeVars(p.Objective))
		}
		return &Result{Values: map[string]int64{}, Seconds: v}, nil
	}
	c.cf.SetFixed(p.Fixed)
	s := searchPool.Get().(*search)
	defer searchPool.Put(s)
	s.reset(c.cf, c.params, p)
	best, bestVal := s.minimize()
	c.Evals, c.Points = s.evals, s.memo.count
	if math.IsInf(bestVal, 1) {
		return nil, errors.New("opt: no feasible parameter assignment found")
	}
	values := make(map[string]int64, len(c.params))
	for i, name := range c.params {
		values[name] = best[i]
	}
	return &Result{Values: values, Seconds: bestVal}, nil
}

// search is one minimization's scratch: the point and its bounds as slices
// in params order, and the memo of every point evaluated so far. Searches
// are pooled, so a warm Minimize allocates only its Result.
type search struct {
	cf     *cost.CompiledFormulas
	buf    []int64 // backs lo, hi, x and best
	lo, hi []int64
	x      []int64 // the pattern search's current point
	fx     float64 // its penalized value
	mu     float64 // the current penalty level
	best   []int64
	memo   pointMemo
	evals  int
}

var searchPool = sync.Pool{New: func() any { return new(search) }}

func (s *search) reset(cf *cost.CompiledFormulas, params []string, p Problem) {
	n := len(params)
	s.cf, s.evals = cf, 0
	if cap(s.buf) < 4*n {
		s.buf = make([]int64, 4*n)
	}
	s.lo, s.hi, s.x, s.best = s.buf[:n:n], s.buf[n:2*n:2*n], s.buf[2*n:3*n:3*n], s.buf[3*n:4*n]
	for i, name := range params {
		s.lo[i], s.hi[i] = 1, defaultHi
		if v, ok := p.Lo[name]; ok && v > 0 {
			s.lo[i] = v
		}
		if v, ok := p.Hi[name]; ok && v > 0 {
			s.hi[i] = v
		}
	}
	s.memo.reset(n)
}

// at returns the objective and the relative constraint violation at x,
// evaluating the formulas only the first time a point is asked for: every
// penalty level re-walks points the previous one visited, and the
// feasibility checks and the final read ask for points the search just left.
func (s *search) at(x []int64) (seconds, violation float64) {
	e, found := s.memo.lookup(x)
	if !found {
		s.cf.SetPointVals(x)
		e.seconds, e.violation = s.cf.Eval()
		s.evals++
	}
	return e.seconds, e.violation
}

// penalized is the sequential-penalty objective at level s.mu.
func (s *search) penalized(x []int64) float64 {
	f, v := s.at(x)
	if math.IsNaN(f) || math.IsNaN(v) {
		return math.Inf(1)
	}
	// The relative violation keeps the penalty scale-free.
	return f + s.mu*v*v*1e3 + s.mu*v
}

// minimize is the penalty loop around the pattern search. It returns the
// best feasible point (valid until the search is reused) and its objective,
// +Inf when no start reached a feasible point.
func (s *search) minimize() ([]int64, float64) {
	bestVal := math.Inf(1)
	// Start points: all-ones (always capacity-feasible for block sizes) and
	// a mid-scale point, to escape flat regions of ceil-shaped objectives.
	for start := 0; start < 2; start++ {
		for i := range s.x {
			from := s.lo[i]
			if start == 1 {
				from = 1 << 12
			}
			s.x[i] = clamp(from, s.lo[i], s.hi[i])
		}
		for s.mu = 1.0; s.mu <= maxPenalty; s.mu *= 100 {
			s.patternSearch()
			if _, v := s.at(s.x); v == 0 {
				break
			}
		}
		f, v := s.at(s.x)
		if v > 0 {
			continue
		}
		if f < bestVal {
			bestVal = f
			copy(s.best, s.x)
		}
	}
	return s.best, bestVal
}

// try moves coordinate i to cand (clamped) and keeps the move if it lowers
// the penalized value.
func (s *search) try(i int, cand int64) bool {
	cand = clamp(cand, s.lo[i], s.hi[i])
	old := s.x[i]
	if cand == old {
		return false
	}
	s.x[i] = cand
	if v := s.penalized(s.x); v < s.fx {
		s.fx = v
		return true
	}
	s.x[i] = old
	return false
}

// tryPair moves budget from coordinate b to coordinate a by a factor.
func (s *search) tryPair(a, b int, fac int64) bool {
	ca := clamp(s.x[a]*fac, s.lo[a], s.hi[a])
	cb := clamp(s.x[b]/fac, s.lo[b], s.hi[b])
	oa, ob := s.x[a], s.x[b]
	if ca == oa && cb == ob {
		return false
	}
	s.x[a], s.x[b] = ca, cb
	if v := s.penalized(s.x); v < s.fx {
		s.fx = v
		return true
	}
	s.x[a], s.x[b] = oa, ob
	return false
}

// patternSearch is a derivative-free coordinate search from s.x with
// multiplicative steps: block sizes live on an exponential scale, so steps
// are factors (×2^8 down to ×2), with an additive ±1 polish at the end.
func (s *search) patternSearch() {
	x := s.x
	s.fx = s.penalized(x)
	for step := int64(256); step >= 2; step /= 4 {
		for improved := true; improved; {
			improved = false
			for i := range x {
				if s.try(i, x[i]*step) || s.try(i, x[i]/step) {
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
		for i := range x {
			for _, dir := range [2]int{1, -1} {
				loV, hiV := x[i], x[i]*4
				if dir < 0 {
					loV, hiV = x[i]/4, x[i]
				}
				loV, hiV = clamp(loV, s.lo[i], s.hi[i]), clamp(hiV, s.lo[i], s.hi[i])
				for hiV-loV > 1 {
					mid := loV + (hiV-loV)/2
					if s.try(i, mid) {
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
	for iter, improved := 0, true; improved && iter < 40; iter++ {
		improved = false
		for a := range x {
			for b := range x {
				if a == b {
					continue
				}
				for _, fac := range [3]int64{2, 4, 16} {
					if s.tryPair(a, b, fac) {
						improved = true
					}
				}
			}
		}
	}
	// Final ±1 polish (bounded).
	for iter, improved := 0, true; improved && iter < 32; iter++ {
		improved = false
		for i := range x {
			if s.try(i, x[i]+1) || s.try(i, x[i]-1) {
				improved = true
			}
		}
	}
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
