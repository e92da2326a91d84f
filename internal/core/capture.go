package core

import (
	"context"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"ocas/internal/cost"
	"ocas/internal/obs"
	"ocas/internal/opt"
	"ocas/internal/par"
	"ocas/internal/rules"
)

// This file is the size-dependent half of the synthesizer, and the only
// implementation of it. A Capture retains what a search discovered that does
// not depend on sizes: the explored space and the symbolic cost formula of
// every member. Input cardinalities are free variables in those formulas
// (cost.Placement binds each input to sym.V("card_...")), and so is every
// constant of the hierarchy (cost.HierEnv). Its screen and optimize methods
// run heuristic screening and non-linear parameter optimization over that
// space for one task. A cold synthesis is a search followed by one such run
// over the space it just found; a template hit (Replay.Instantiate) is the
// same run over a space found earlier, with the compiled formulas the
// capturing run made kept between hits, valid provided a search for the new
// task would find the same space and build the same formulas. It does by
// construction: the search enumerates every reachable program, the rewrite
// rules read neither cardinalities nor constants, and the formulas change
// only with the outcome of the estimator's branches on a constant
// (cost.Branches), which the caller's template key holds. A request at other
// device sizes or costs is therefore an instantiation too. A capture belongs
// to the process that searched: neither it nor the programs in it have a
// serial form, and every Replay was screened by the run that made it.

// CaptureLimit bounds the size of a captured search space. Retaining the
// cost formulas of every member is what makes instantiation cheap, but it
// pins memory per template; spaces beyond the limit (the default service
// space is 4000) synthesize normally and return no capture.
const CaptureLimit = 8192

// Capture is the reusable part of one synthesis run. Costs is aligned with
// Space (nil entry = the program could not be costed); it is nil on a space
// fresh out of the search and filled by the run's own screening pass, so a
// Replay always holds every formula.
type Capture struct {
	Space []rules.Derivation
	Costs []*cost.Result
	Stats rules.SearchStats
}

// Replay instantiates one Capture again and again, keeping its compiled
// formulas between calls. Safe for concurrent use; instantiations are
// serialized internally (the compiled formulas carry per-instance evaluation
// scratch).
type Replay struct {
	mu sync.Mutex
	cp *Capture
	fc formulaCache
}

// formulaCache holds one compiled program per costed member of a capture:
// screening binds it to a task's sizes and evaluates the heuristic
// point, and tuning hands the same bound program to the optimizer. The
// capturing run fills it, so neither its own tuning nor a later instantiation
// compiles anything. The phases take a *formulaCache and treat nil as
// "compile, use, drop": a run too large to capture visits every formula once,
// and holding the compilations until it ends would only raise its peak heap.
type formulaCache struct {
	progs []*cost.CompiledFormulas // aligned with Space
	bind  [][]int32                // per-member fixed-variable slot bindings
	keys  []string                 // sorted fixed-env keys the bindings cover
}

// fixedVals is a task's fixed environment — each input's cardinality
// variable and its row count, and each hierarchy constant — in sorted name
// order, the form a compiled program is bound through.
type fixedVals struct {
	keys []string
	vals []float64
}

func (s *Synthesizer) fixedVals(t Task) fixedVals {
	env := s.fixedEnv(t)
	fx := fixedVals{keys: slices.Sorted(maps.Keys(env))}
	fx.vals = make([]float64, len(fx.keys))
	for i, k := range fx.keys {
		fx.vals[i] = env[k]
	}
	return fx
}

// bound returns member i's compiled formulas bound to fx. A cache compiles
// the member once, on first use, and keeps it; with a nil cache the program
// is compiled fresh and the caller drops it. The program is a function of the
// formulas alone — fixed values live in slots, and what they determine is
// recomputed by every binding — so a kept program re-bound to new values
// cannot differ in a single evaluation from a fresh one.
func bound(fc *formulaCache, i int, res *cost.Result, fx fixedVals) *cost.CompiledFormulas {
	var cf *cost.CompiledFormulas
	var bind []int32
	if fc != nil {
		cf, bind = fc.progs[i], fc.bind[i]
	}
	if cf == nil {
		cf = cost.CompileFormulas(res.Seconds, res.Constraints, res.Params)
		bind = cf.Binding(fx.keys)
		if fc != nil {
			fc.progs[i], fc.bind[i] = cf, bind
		}
	}
	cf.SetBound(bind, fx.vals)
	return cf
}

// Instantiate re-runs the size-dependent synthesis phases over the captured
// space for task t under s.H's constants: heuristic screening of every
// member and full parameter optimization of the shortlist. The returned
// Synthesis is bit-identical to s.SynthesizeCtx(ctx, t) whenever the capture
// was taken for the same program, placement and search knobs under a
// hierarchy of the same shape (topology and cost.Branches).
func (r *Replay) Instantiate(ctx context.Context, s *Synthesizer, t Task) (*Synthesis, error) {
	start := time.Now()
	ctx, sp := obs.Start(ctx, "template.instantiate")
	defer sp.End()
	sp.Attr("space", len(r.cp.Space))
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// No estimator: the capturing run's screening pass filled cp.Costs and
	// the formula cache, and the caller's template key ensures that the
	// placement, the topology and the branches on constants match that run's.
	short, err := r.cp.screen(ctx, s, t, &r.fc, nil)
	if err != nil {
		return nil, err
	}
	res, err := r.cp.optimize(ctx, s, t, &r.fc, short)
	if err != nil {
		return nil, err
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// shortlist is the outcome of screening: the space indices worth the
// non-linear solver, cheapest screening cost first, and the screening cost
// of the specification itself (member 0).
type shortlist struct {
	idx         []int
	specSeconds float64
	specCost    *cost.Result
}

// screen is Phase 1: cost every member with a heuristic parameter guess (the
// paper's single-loop heuristic: blocks as large as the constraints allow,
// split evenly) and keep the ScreenTop cheapest. Members are independent, so
// they are costed concurrently; collecting by space index keeps the order —
// and hence the screening tie-breaks — identical to a sequential run. est
// costs the members of a space fresh out of the search (cp.Costs is nil); a
// Replay, whose Costs are filled, passes nil. The heuristic gives every
// parameter the same value, so the programs' sorted parameter order cannot
// move a screening bit.
func (cp *Capture) screen(ctx context.Context, s *Synthesizer, t Task, fc *formulaCache, est *cost.Estimator) (shortlist, error) {
	space := cp.Space
	fx := s.fixedVals(t)
	screenTop := s.ScreenTop
	if screenTop <= 0 {
		screenTop = 48
	}
	if fc != nil && (fc.progs == nil || !slices.Equal(fx.keys, fc.keys)) {
		fc.progs = make([]*cost.CompiledFormulas, len(space))
		fc.bind = make([][]int32, len(space))
		fc.keys = fx.keys
	}

	_, spScreen := obs.Start(ctx, "synth.screen")
	costs := cp.Costs
	fresh := costs == nil
	if fresh {
		costs = make([]*cost.Result, len(space))
	}
	secs := make([]float64, len(space))
	par.For(s.Workers, len(space), func(i int) {
		secs[i] = math.Inf(1)
		if ctx.Err() != nil {
			return
		}
		if fresh {
			// nil: the program cannot be costed.
			costs[i], _ = est.Estimate(space[i].Expr)
		}
		res := costs[i]
		if res == nil {
			return
		}
		if sec := heuristicPoint(bound(fc, i, res, fx)); !math.IsNaN(sec) {
			secs[i] = sec
		}
	})
	if err := ctx.Err(); err != nil {
		spScreen.End()
		return shortlist{}, err
	}
	cp.Costs = costs
	var short shortlist
	if costs[0] != nil {
		short.specSeconds, short.specCost = secs[0], costs[0]
	}
	var scr []int
	for i, res := range costs {
		if res != nil {
			scr = append(scr, i)
		}
	}
	spScreen.Attr("candidates", len(space))
	spScreen.Attr("costed", len(scr))
	if fresh && spScreen != nil {
		// What building the formulas through one estimator saved: distinct
		// formula nodes (exact at any worker count) and constructor calls
		// answered from the memo (exact at one worker).
		st := est.Stats()
		spScreen.Attr("formulaNodes", st.Nodes)
		spScreen.Attr("memoHits", st.MemoHits)
	}
	spScreen.End()

	if len(scr) == 0 {
		return shortlist{}, fmt.Errorf("core: no program could be costed")
	}
	sort.SliceStable(scr, func(i, j int) bool { return secs[scr[i]] < secs[scr[j]] })
	if len(scr) > screenTop {
		scr = scr[:screenTop]
	}
	short.idx = scr
	return short, nil
}

// optimize is Phase 2: full parameter optimization of the shortlist. The
// winner is picked by a sequential scan in shortlist order so ties resolve
// exactly as they would sequentially.
func (cp *Capture) optimize(ctx context.Context, s *Synthesizer, t Task, fc *formulaCache, short shortlist) (*Synthesis, error) {
	_, spOpt := obs.Start(ctx, "synth.optimize")
	cands, work := cp.tune(ctx, s, t, fc, short, true)
	spOpt.Attr("shortlist", len(short.idx))
	spOpt.Attr("evals", work.evals)
	spOpt.Attr("points", work.points)
	spOpt.Attr("pruned", work.pruned)
	spOpt.End()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var best *Candidate
	for _, cand := range cands {
		if cand == nil {
			continue
		}
		if best == nil || cand.Seconds < best.Seconds ||
			(cand.Seconds == best.Seconds && len(cand.Steps) < len(best.Steps)) {
			best = cand
		}
	}
	if best == nil {
		return nil, fmt.Errorf("core: no feasible candidate")
	}
	return &Synthesis{
		Best:        best,
		SpecSeconds: short.specSeconds,
		SpecCost:    short.specCost,
		Stats:       cp.Stats,
		Explored:    len(cp.Space),
	}, nil
}

// tuneWork is what tuning a shortlist did: formula evaluations performed and
// distinct points visited, summed over the members tuned, and the members
// skipped because they could not win. At one worker all three are exact; at
// more, which members are skipped depends on which finish first.
type tuneWork struct {
	evals, points, pruned int
}

// tune runs the non-linear solver on every shortlist member, one candidate
// per worker. With a cache, a member's program is the one this task's
// screening just bound; without one it is compiled and bound here. The
// candidates are aligned with short.idx; nil marks a member with no feasible
// assignment, or, when prune is set, one skipped because its interval lower
// bound (cost.CompiledFormulas.LowerBound) exceeds the least cost tuned so
// far. A skipped member's tuned cost would be at least its bound, above a
// cost another member reaches, so it could neither win nor tie: the winner is
// the same with and without pruning.
func (cp *Capture) tune(ctx context.Context, s *Synthesizer, t Task, fc *formulaCache, short shortlist, prune bool) (cands []*Candidate, work tuneWork) {
	space, costs := cp.Space, cp.Costs
	fx, hi := s.fixedVals(t), paramUpperBound(t)
	cands = make([]*Candidate, len(short.idx))
	done := make([]tuneWork, len(short.idx))
	var mu sync.Mutex
	incumbent := math.Inf(1) // the least tuned cost so far
	par.For(s.Workers, len(short.idx), func(i int) {
		if ctx.Err() != nil {
			return
		}
		idx := short.idx[i]
		res := costs[idx]
		var cf *cost.CompiledFormulas
		if fc != nil {
			cf = fc.progs[idx] // bound to fx by this task's screening
		} else {
			cf = bound(nil, idx, res, fx)
		}
		if prune {
			mu.Lock()
			inc := incumbent
			mu.Unlock()
			// No bound is worth computing before there is a cost to beat.
			if !math.IsInf(inc, 1) && cf.LowerBound(hi, inc) > inc {
				done[i].pruned = 1
				return
			}
		}
		rr, err := opt.Minimize(cf, hi)
		done[i].evals, done[i].points = rr.Evals, rr.Points
		if err != nil {
			return
		}
		mu.Lock()
		incumbent = min(incumbent, rr.Seconds)
		mu.Unlock()
		cands[i] = &Candidate{
			Expr:    space[idx].Expr,
			Steps:   space[idx].Steps,
			Params:  rr.Values,
			Seconds: rr.Seconds,
			Cost:    res,
		}
	})
	for _, w := range done {
		work.evals += w.evals
		work.points += w.points
		work.pruned += w.pruned
	}
	return cands, work
}
