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

// formulaCache holds one compiled program per formula shape of a captured
// space: members whose programs are equal but for their parameters' names
// (cost.CompiledFormulas.SameShape) share one, represented by the lowest
// space index of the shape. Screening binds each shape to a task's sizes and
// evaluates the heuristic point once, and tuning minimizes each shortlisted
// shape once and maps the tuned values by position onto each member's own
// parameter names. The capturing run's screening fills the cache, so neither
// its own tuning nor a later instantiation compiles anything; a run too
// large to capture fills a cache of its own and drops it when it returns.
type formulaCache struct {
	shapes []*cost.CompiledFormulas // in order of their lowest member
	bind   [][]int32                // per shape: fixed-variable slot bindings
	keys   []string                 // sorted fixed-env keys the bindings cover
	shape  []int32                  // per member: its shape, -1 when not costed
	params [][]string               // per member: its parameters, in Params order
}

// group fills the cache from one compiled program per member (nil = not
// costed), keeping the first program of each shape and dropping the rest.
func (fc *formulaCache) group(progs []*cost.CompiledFormulas) {
	fc.shape = make([]int32, len(progs))
	fc.params = make([][]string, len(progs))
	byHash := map[uint64][]int32{}
	for i, cf := range progs {
		fc.shape[i] = -1
		if cf == nil {
			continue
		}
		fc.params[i] = cf.Params()
		h := cf.ShapeHash()
		k := slices.IndexFunc(byHash[h], func(k int32) bool { return fc.shapes[k].SameShape(cf) })
		if k >= 0 {
			fc.shape[i] = byHash[h][k]
			continue
		}
		fc.shape[i] = int32(len(fc.shapes))
		byHash[h] = append(byHash[h], fc.shape[i])
		fc.shapes = append(fc.shapes, cf)
	}
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
// split evenly) and keep the ScreenTop cheapest. est costs the members of a
// space fresh out of the search (cp.Costs is nil), concurrently, and fc
// groups their compiled formulas into shapes; a Replay, whose Costs and
// cache are filled, passes nil. Each shape is then bound to t and evaluated
// once, concurrently. That is exact for every member of the shape: the
// heuristic gives every parameter the same value, so neither the names nor
// the sorted order of a member's parameters can move a screening bit, and a
// program is a function of the formulas alone — fixed values live in slots,
// and each binding recomputes what they determine. Collecting by space index
// keeps the order, and hence the screening tie-breaks, of a sequential run.
func (cp *Capture) screen(ctx context.Context, s *Synthesizer, t Task, fc *formulaCache, est *cost.Estimator) (shortlist, error) {
	space := cp.Space
	fx := s.fixedVals(t)
	screenTop := s.ScreenTop
	if screenTop <= 0 {
		screenTop = 48
	}

	_, spScreen := obs.Start(ctx, "synth.screen")
	costs := cp.Costs
	fresh := costs == nil
	if fresh {
		costs = make([]*cost.Result, len(space))
		progs := make([]*cost.CompiledFormulas, len(space))
		par.For(s.Workers, len(space), func(i int) {
			if ctx.Err() != nil {
				return
			}
			// nil: the program cannot be costed.
			costs[i], _ = est.Estimate(space[i].Expr)
			if res := costs[i]; res != nil {
				progs[i] = cost.CompileFormulas(res.Seconds, res.Constraints, res.Params)
			}
		})
		if err := ctx.Err(); err != nil {
			spScreen.End()
			return shortlist{}, err
		}
		fc.group(progs)
	}
	if fc.bind == nil || !slices.Equal(fx.keys, fc.keys) {
		fc.bind, fc.keys = make([][]int32, len(fc.shapes)), fx.keys
		for k, cf := range fc.shapes {
			fc.bind[k] = cf.Binding(fx.keys)
		}
	}
	shapeSecs := make([]float64, len(fc.shapes))
	par.For(s.Workers, len(fc.shapes), func(k int) {
		shapeSecs[k] = math.Inf(1)
		if ctx.Err() != nil {
			return
		}
		cf := fc.shapes[k]
		cf.SetBound(fc.bind[k], fx.vals)
		if sec := heuristicPoint(cf); !math.IsNaN(sec) {
			shapeSecs[k] = sec
		}
	})
	if err := ctx.Err(); err != nil {
		spScreen.End()
		return shortlist{}, err
	}
	cp.Costs = costs
	secs := make([]float64, len(space))
	var scr []int
	for i, k := range fc.shape {
		secs[i] = math.Inf(1)
		if k >= 0 {
			secs[i] = shapeSecs[k]
			scr = append(scr, i)
		}
	}
	var short shortlist
	if costs[0] != nil {
		short.specSeconds, short.specCost = secs[0], costs[0]
	}
	spScreen.Attr("candidates", len(space))
	spScreen.Attr("costed", len(scr))
	spScreen.Attr("shapes", len(fc.shapes))
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
	spOpt.Attr("shapes", work.shapes)
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
// distinct points visited, summed over the shapes tuned, and the shapes
// skipped because they could not win. At one worker all three are exact; at
// more, which shapes are skipped depends on which finish first.
type tuneWork struct {
	shapes, evals, points, pruned int
}

// tune runs the non-linear solver once per shape of the shortlist, one shape
// per worker, on the program this task's screening just bound, and gives
// every member of the shape the result, its values renamed by position onto
// the member's own parameters. The candidates are aligned with short.idx; nil
// marks a member whose shape has no feasible assignment, or, when prune is
// set, one skipped because its interval lower bound
// (cost.CompiledFormulas.LowerBound) exceeds the least cost tuned so far. A
// skipped shape's tuned cost would be at least its bound, above a cost
// another shape reaches, so none of its members could win or tie: the winner
// is the same with and without pruning.
func (cp *Capture) tune(ctx context.Context, s *Synthesizer, t Task, fc *formulaCache, short shortlist, prune bool) (cands []*Candidate, work tuneWork) {
	hi := paramUpperBound(t)
	// The shortlist's shapes in order of their first member, and each
	// shape's position among them.
	var order []int32
	pos := make(map[int32]int, len(short.idx))
	for _, idx := range short.idx {
		k := fc.shape[idx]
		if _, ok := pos[k]; !ok {
			pos[k] = len(order)
			order = append(order, k)
		}
	}
	tuned := make([]*opt.Result, len(order))
	done := make([]tuneWork, len(order))
	var mu sync.Mutex
	incumbent := math.Inf(1) // the least tuned cost so far
	par.For(s.Workers, len(order), func(j int) {
		if ctx.Err() != nil {
			return
		}
		cf := fc.shapes[order[j]]
		if prune {
			mu.Lock()
			inc := incumbent
			mu.Unlock()
			// No bound is worth computing before there is a cost to beat.
			if !math.IsInf(inc, 1) && cf.LowerBound(hi, inc) > inc {
				done[j].pruned = 1
				return
			}
		}
		rr, err := opt.Minimize(cf, hi)
		done[j].evals, done[j].points = rr.Evals, rr.Points
		if err != nil {
			return
		}
		mu.Lock()
		incumbent = min(incumbent, rr.Seconds)
		mu.Unlock()
		tuned[j] = rr
	})
	work.shapes = len(order)
	for _, w := range done {
		work.evals += w.evals
		work.points += w.points
		work.pruned += w.pruned
	}
	cands = make([]*Candidate, len(short.idx))
	for i, idx := range short.idx {
		k := fc.shape[idx]
		rr := tuned[pos[k]]
		if rr == nil {
			continue
		}
		params := make(map[string]int64, len(rr.Values))
		for p, name := range fc.shapes[k].Params() {
			params[fc.params[idx][p]] = rr.Values[name]
		}
		cands[i] = &Candidate{
			Expr:    cp.Space[idx].Expr,
			Steps:   cp.Space[idx].Steps,
			Params:  params,
			Seconds: rr.Seconds,
			Cost:    cp.Costs[idx],
		}
	}
	return cands, work
}
