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
	"math"
	"sync"

	"ocas/internal/cost"
)

// Result of a minimization.
type Result struct {
	Values  map[string]int64
	Seconds float64
	// Evals and Points count the minimization's work: formula evaluations
	// performed and distinct points visited. The point memo makes them equal;
	// the search asks for about twice as many values as it visits points.
	Evals, Points int
}

const maxPenalty = 1e12

// Minimize tunes cf's parameters (cf.Params) over [1, hi] each, hi >= 1,
// minimizing the objective subject to the capacity constraints. cf arrives
// bound to the fixed values (input cardinalities): the search evaluates the
// objective and every constraint hundreds of times at points that differ
// only in the parameter slots, so each evaluation just overwrites those.
// Compiled evaluation is bit-identical to Expr.Eval, and the trajectory does
// not depend on what cf or the pooled scratch served before. A
// parameter-free objective is evaluated once and its constraints are not
// consulted. When no feasible assignment is found Minimize returns an error,
// and a Result that carries only Evals and Points.
func Minimize(cf *cost.CompiledFormulas, hi int64) (*Result, error) {
	params := cf.Params()
	if len(params) == 0 {
		res, v := &Result{Evals: 1, Points: 1}, cf.Seconds()
		if math.IsNaN(v) {
			return res, errors.New("opt: objective has unbound variables")
		}
		res.Seconds, res.Values = v, map[string]int64{}
		return res, nil
	}
	s := searchPool.Get().(*search)
	defer searchPool.Put(s)
	s.reset(cf, len(params), hi)
	best, bestVal := s.minimize()
	res := &Result{Evals: s.evals, Points: s.memo.count}
	if math.IsInf(bestVal, 1) {
		return res, errors.New("opt: no feasible parameter assignment found")
	}
	res.Seconds, res.Values = bestVal, make(map[string]int64, len(params))
	for i, name := range params {
		res.Values[name] = best[i]
	}
	return res, nil
}

// search is one minimization's scratch: the point as a slice in params
// order, every coordinate bounded by [1, hi], and the memo of every point
// evaluated so far. Searches are pooled, so a warm Minimize allocates only
// its Result.
type search struct {
	cf    *cost.CompiledFormulas
	hi    int64
	buf   []int64 // backs x and best
	x     []int64 // the pattern search's current point
	fx    float64 // its penalized value
	mu    float64 // the current penalty level
	best  []int64
	memo  pointMemo
	evals int
}

var searchPool = sync.Pool{New: func() any { return new(search) }}

func (s *search) reset(cf *cost.CompiledFormulas, n int, hi int64) {
	s.cf, s.hi, s.evals = cf, hi, 0
	if cap(s.buf) < 2*n {
		s.buf = make([]int64, 2*n)
	}
	s.x, s.best = s.buf[:n:n], s.buf[n:2*n]
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
			s.x[i] = 1
			if start == 1 {
				s.x[i] = s.clamp(1 << 12)
			}
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
	cand = s.clamp(cand)
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
	ca := s.clamp(s.x[a] * fac)
	cb := s.clamp(s.x[b] / fac)
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
				loV, hiV = s.clamp(loV), s.clamp(hiV)
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

// clamp bounds a coordinate to [1, s.hi].
func (s *search) clamp(v int64) int64 { return min(max(v, 1), s.hi) }
