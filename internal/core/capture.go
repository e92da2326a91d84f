package core

import (
	"context"
	"errors"
	"fmt"
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

// This file implements plan templates at the synthesizer level. A Capture
// retains what a full synthesis discovered but a fresh request at different
// input cardinalities could reuse: the explored search space, the symbolic
// cost formula of every member (cardinalities are free variables in those
// formulas — cost.Placement binds each input to sym.V("card_...")), and the
// beam's pruning decisions. Replay.Instantiate then re-runs only the
// cardinality-dependent phases — heuristic screening and non-linear parameter
// optimization — over the retained space, producing a Synthesis bit-identical
// to what SynthesizeCtx would compute from scratch, provided the search space
// itself would be unchanged. The rewrite rules never read cardinalities, so
// an exhaustive space is unchanged by construction; a beam's space depends on
// its cost-based pruning, which the recorded trace re-verifies at the new
// cardinalities (ErrStaleCapture on any divergence).

// CaptureLimit bounds the size of a captured search space. Retaining the
// cost formulas of every member is what makes instantiation cheap, but it
// pins memory per template; spaces beyond the limit (the default service
// space is 4000) synthesize normally and return no capture.
const CaptureLimit = 8192

// maxCompiledCache bounds the per-Replay cache of precompiled optimizer
// formulas (keyed by space index; the shortlist varies with cardinalities).
const maxCompiledCache = 512

// ErrStaleCapture reports that a capture's search space cannot be proven
// valid at the requested cardinalities: the beam search would have pruned
// differently, so a full search could discover a different space (and a
// different winner). Callers fall back to a fresh synthesis.
var ErrStaleCapture = errors.New("core: captured search space is stale at these cardinalities")

// Capture is the reusable part of one synthesis run. Costs is aligned with
// Space (nil entry = the program could not be costed); a nil Costs slice
// (a capture restored from persistence) is rebuilt deterministically on
// first instantiation via cost.Estimate.
type Capture struct {
	Space []rules.Derivation
	Costs []*cost.Result
	Stats rules.SearchStats
	Trace []rules.TraceLevel
}

// capturable reports whether the configured strategy's search space can be
// replayed: exhaustive spaces are cardinality-independent, and a beam with
// the synthesizer's own cost-based rank is covered by the pruning trace. A
// custom strategy or a custom beam rank cannot be verified, so no capture.
func (s *Synthesizer) capturable() bool {
	switch b := s.Strategy.(type) {
	case nil:
		return true
	case rules.Exhaustive:
		return true
	case *rules.Exhaustive:
		return true
	case rules.Beam:
		return b.Rank == nil
	case *rules.Beam:
		return b.Rank == nil
	}
	return false
}

// SynthesizeCapture is SynthesizeCtx, additionally returning the run's
// Capture for template reuse. The Synthesis is identical to SynthesizeCtx's.
// The capture is nil when the run is not capturable (custom strategy or
// beam rank, or a space larger than CaptureLimit).
func (s *Synthesizer) SynthesizeCapture(ctx context.Context, t Task) (*Synthesis, *Capture, error) {
	return s.synthesize(ctx, t, true)
}

// Replay instantiates one Capture at varying cardinalities. Safe for
// concurrent use; instantiations are serialized internally (the compiled
// formulas carry per-instance evaluation scratch).
type Replay struct {
	mu   sync.Mutex
	cp   *Capture
	lite []*cost.CompiledFormulas // screening formulas, aligned with Space
	bind [][]int32                // per-member fixed-variable slot bindings
	keys []string                 // sorted fixed-env keys the bindings cover
	full map[int]*opt.Compiled
}

// NewReplay wraps a capture for instantiation.
func NewReplay(cp *Capture) *Replay {
	return &Replay{cp: cp, full: map[int]*opt.Compiled{}}
}

// Instantiate re-runs the cardinality-dependent synthesis phases over the
// captured space for task t: heuristic screening of every member, the beam
// trace check, and full parameter optimization of the shortlist. The
// returned Synthesis is bit-identical to s.SynthesizeCtx(ctx, t) whenever
// the capture was taken for the same program, hierarchy, placement and
// search knobs; ErrStaleCapture means the beam would have searched
// differently and the caller must fall back to a full synthesis.
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
	if r.cp.Costs == nil {
		r.rebuildCosts(s, t)
	}
	space, costs := r.cp.Space, r.cp.Costs
	fixed := s.fixedEnv(t)
	screenTop := s.ScreenTop
	if screenTop <= 0 {
		screenTop = 48
	}

	// Phase 1 replay: the screening seconds of every member under the new
	// cardinalities, via the same feasibility-repair loop the cold pass uses
	// (same formulas, same float operations, same order — bit-identical
	// seconds). The lite compilations and their fixed-variable slot bindings
	// are cached across instantiations; re-binding cannot change a single
	// evaluation, because slot layout is a function of the formulas alone
	// and fixed values live in slots, never in the instruction tape.
	fixedKeys := make([]string, 0, len(fixed))
	for k := range fixed {
		fixedKeys = append(fixedKeys, k)
	}
	sort.Strings(fixedKeys)
	if r.lite == nil || !slices.Equal(fixedKeys, r.keys) {
		r.lite = make([]*cost.CompiledFormulas, len(space))
		r.bind = make([][]int32, len(space))
		r.keys = fixedKeys
	}
	fixedVals := make([]float64, len(fixedKeys))
	for i, k := range fixedKeys {
		fixedVals[i] = fixed[k]
	}
	type screened struct {
		idx     int
		seconds float64
	}
	// The two replayed phases carry the cold path's span names, so a
	// template-hit trace attributes its time to the same layers.
	_, spScreen := obs.Start(ctx, "synth.screen")
	secs := make([]float64, len(space))
	scr := make([]screened, 0, len(space))
	var paramBuf [16]int64
	var specSeconds float64
	var specCost *cost.Result
	for i := range space {
		res := costs[i]
		if res == nil {
			secs[i] = math.Inf(1)
			continue
		}
		cf := r.lite[i]
		if cf == nil {
			cf = cost.CompileFormulas(res.Seconds, res.Constraints, res.Params, nil, true)
			r.lite[i] = cf
			r.bind[i] = cf.Binding(r.keys)
		}
		cf.SetBound(r.bind[i], fixedVals)
		_, sec := heuristicPoint(cf, res.Params, paramBuf[:0])
		if math.IsNaN(sec) {
			sec = math.Inf(1)
		}
		secs[i] = sec
		if i == 0 {
			specSeconds = sec
			specCost = res
		}
		scr = append(scr, screened{idx: i, seconds: sec})
	}
	spScreen.Attr("candidates", len(space))
	spScreen.Attr("costed", len(scr))
	spScreen.End()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Beam trace check: re-rank each recorded level block with the new
	// screening seconds (the beam's rank is exactly the screening cost) and
	// verify the same candidates survive in the same order. Expansion and
	// dedup never read cardinalities, so matching prunes imply — level by
	// level — the identical frontier sequence, and hence the identical
	// space a fresh search would discover.
	for _, lvl := range r.cp.Trace {
		if lvl.Start < 0 || lvl.End > len(space) || lvl.Start >= lvl.End ||
			len(lvl.Kept) > lvl.End-lvl.Start {
			return nil, ErrStaleCapture
		}
		idx := make([]int, lvl.End-lvl.Start)
		for j := range idx {
			idx[j] = j
		}
		sort.SliceStable(idx, func(a, b int) bool {
			return secs[lvl.Start+idx[a]] < secs[lvl.Start+idx[b]]
		})
		for i, want := range lvl.Kept {
			if idx[i] != want {
				return nil, ErrStaleCapture
			}
		}
	}

	if len(scr) == 0 {
		return nil, fmt.Errorf("core: no program could be costed")
	}
	sort.SliceStable(scr, func(i, j int) bool { return scr[i].seconds < scr[j].seconds })
	if len(scr) > screenTop {
		scr = scr[:screenTop]
	}

	// Phase 2 replay: full parameter optimization of the shortlist over
	// precompiled formulas (opt.Precompile caches the compile; the
	// minimization trajectory is bit-identical to a fresh opt.Minimize).
	_, spOpt := obs.Start(ctx, "synth.optimize")
	cands := make([]*Candidate, len(scr))
	for i, sh := range scr {
		if ctx.Err() != nil {
			break
		}
		res := costs[sh.idx]
		prob := opt.Problem{
			Objective:   res.Seconds,
			Constraints: res.Constraints,
			Params:      res.Params,
			Fixed:       fixed,
			Hi:          paramUpperBounds(res.Params, t),
		}
		oc := r.full[sh.idx]
		if oc == nil {
			oc = opt.Precompile(prob)
			if len(r.full) < maxCompiledCache {
				r.full[sh.idx] = oc
			}
		}
		rr, err := oc.Minimize(prob)
		if err != nil {
			continue
		}
		d := space[sh.idx]
		cands[i] = &Candidate{
			Expr:    d.Expr,
			Steps:   d.Steps,
			Params:  rr.Values,
			Seconds: rr.Seconds,
			Cost:    res,
		}
	}
	spOpt.Attr("shortlist", len(scr))
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
		SpecSeconds: specSeconds,
		SpecCost:    specCost,
		Stats:       r.cp.Stats,
		Elapsed:     time.Since(start),
		Explored:    len(space),
	}, nil
}

// rebuildCosts recomputes the per-member cost formulas of a persisted
// capture. cost.Estimate is a pure function of (hierarchy, placement,
// program), and the caller's guards ensure both match the capturing request,
// so the rebuilt formulas equal the captured ones.
func (r *Replay) rebuildCosts(s *Synthesizer, t Task) {
	place := s.placement(t)
	costs := make([]*cost.Result, len(r.cp.Space))
	par.For(s.Workers, len(r.cp.Space), func(i int) {
		if res, err := cost.Estimate(s.H, place, r.cp.Space[i].Expr); err == nil {
			costs[i] = res
		}
	})
	r.cp.Costs = costs
}
