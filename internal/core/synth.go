package core

import (
	"context"
	"time"

	"ocas/internal/cost"
	"ocas/internal/memory"
	"ocas/internal/obs"
	"ocas/internal/ocal"
	"ocas/internal/rules"
	sym "ocas/internal/symbolic"
)

// Task is one synthesis request: a specification, where its inputs live and
// how large they are, and where the output goes.
type Task struct {
	Spec         Spec
	InputLoc     map[string]string // input name -> hierarchy node
	InputRows    map[string]int64  // input name -> cardinality in tuples
	Output       string            // output node; "" = consumed by CPU
	Intermediate string            // scratch device; defaults per cost.Placement
}

// Synthesizer holds the search configuration.
type Synthesizer struct {
	H *memory.Hierarchy
	// Rules defaults to rules.AllRules().
	Rules []rules.Rule
	// MaxDepth bounds derivation length (default 6).
	MaxDepth int
	// MaxSpace bounds the number of explored programs (default 20000).
	MaxSpace int
	// ScreenTop is the number of screened candidates that get full
	// parameter optimization (default 48). Screening costs every program
	// with a heuristic parameter assignment first; only the most promising
	// ones go through the non-linear solver.
	ScreenTop int
	// Workers bounds the concurrency of every pipeline stage (frontier
	// expansion, candidate costing, parameter optimization); <=0 means
	// GOMAXPROCS. Results are deterministic for any worker count.
	Workers int
	// Keys, when set, accumulates every search's dedup counters (the same
	// totals each Synthesis reports in Memo.Keys). plan.Compile injects a
	// per-request Keyer, whose counters then describe that request's search.
	Keys *rules.Keyer
}

// Candidate is one costed program of the search space.
type Candidate struct {
	Expr    ocal.Expr
	Steps   []string
	Params  map[string]int64
	Seconds float64
	Cost    *cost.Result
}

// MemoStats aggregates the counters of one synthesis run: the search's
// dedup counts.
type MemoStats struct {
	Keys rules.KeyerStats
}

// Synthesis is the result of a synthesis run.
type Synthesis struct {
	Best *Candidate
	// SpecSeconds is the cost estimate of the naive specification itself.
	SpecSeconds float64
	SpecCost    *cost.Result
	Stats       rules.SearchStats
	Elapsed     time.Duration
	// Explored is the number of programs costed.
	Explored int
	// Memo reports the search's dedup counts for observability and the bench
	// report.
	Memo MemoStats
}

// cardVar names the symbolic cardinality of an input.
func cardVar(input string) string { return "card_" + input }

func (s *Synthesizer) placement(t Task) cost.Placement {
	p := cost.Placement{
		InputLoc:     map[string]string{},
		InputType:    map[string]ocal.Type{},
		InputCard:    map[string]sym.Expr{},
		Output:       t.Output,
		Intermediate: t.Intermediate,
	}
	for _, in := range t.Spec.Inputs {
		p.InputLoc[in.Name] = t.InputLoc[in.Name]
		p.InputType[in.Name] = in.Type
		p.InputCard[in.Name] = sym.V(cardVar(in.Name))
	}
	return p
}

func (s *Synthesizer) fixedEnv(t Task) sym.Env {
	env := sym.Env{}
	for name, n := range t.InputRows {
		env[cardVar(name)] = float64(n)
	}
	return env
}

// TaskPlacement is the cost-model placement of a task: where each input
// lives, its type, and its cardinality as the symbolic variable the cost
// formulas are written over. Exported so the plan layer can cost arbitrary
// subexpressions of a synthesized program (per-operator estimates in
// EXPLAIN ANALYZE) with exactly the placement the synthesis used.
func (s *Synthesizer) TaskPlacement(t Task) cost.Placement { return s.placement(t) }

// TaskEnv is the task's fixed symbolic environment: each input's
// cardinality variable bound to its nominal row count. Evaluating a cost
// formula under TaskEnv plus the plan's tuned parameters yields the
// estimate the optimizer minimized.
func (s *Synthesizer) TaskEnv(t Task) sym.Env { return s.fixedEnv(t) }

// Synthesize runs the full pipeline: BFS over rewrites, cost estimation for
// every program, heuristic screening, then non-linear parameter optimization
// of the most promising candidates; the cheapest wins.
func (s *Synthesizer) Synthesize(t Task) (*Synthesis, error) {
	return s.SynthesizeCtx(context.Background(), t)
}

// SynthesizeCtx is Synthesize with cancellation: when ctx is cancelled or
// its deadline passes, the search, the screening pass and the parameter
// optimizer all stop within one work item and SynthesizeCtx returns
// ctx.Err(). Partial results are never returned — a served plan is always
// the plan a complete run would have produced.
func (s *Synthesizer) SynthesizeCtx(ctx context.Context, t Task) (*Synthesis, error) {
	res, _, err := s.SynthesizeCapture(ctx, t)
	return res, err
}

// SynthesizeCapture is SynthesizeCtx, additionally returning a Replay over
// what the run captured — the search space with every member's cost formula
// — so that later requests at other cardinalities can Instantiate it instead
// of searching. The replay is nil when the space is larger than CaptureLimit.
func (s *Synthesizer) SynthesizeCapture(ctx context.Context, t Task) (*Synthesis, *Replay, error) {
	start := time.Now()
	cp := &Capture{}
	_, spSearch := obs.Start(ctx, "synth.search")
	cp.Space, cp.Stats = s.search(ctx, t)
	if spSearch != nil {
		spSearch.Attr("space", cp.Stats.SpaceSize)
		spSearch.Attr("maxDepth", cp.Stats.MaxDepth)
		if cp.Stats.Truncated {
			spSearch.Attr("truncated", true)
		}
		levels := make([]map[string]int, 0, len(cp.Stats.Levels))
		for _, lv := range cp.Stats.Levels {
			levels = append(levels, map[string]int{
				"depth": lv.Depth, "expanded": lv.Expanded,
				"deduped": lv.Deduped, "kept": lv.Kept,
			})
		}
		spSearch.Attr("levels", levels)
		spSearch.End()
	}
	dedup := cp.Stats.Dedup()
	if s.Keys != nil {
		s.Keys.Add(dedup)
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	// The rest is what a template hit runs over a space found earlier; here
	// each member is costed once, fresh: an alpha-deduped space never
	// repeats a program, so a whole-program cost memo could only add overhead.
	// What the members do repeat is sub-formulas, and the estimator builds
	// each of those once. It lives until this run returns: the Replay keeps
	// the formulas, not the estimator. A retained run screens into its
	// Replay's formula cache, so its tuning and every later hit reuse the
	// programs screening compiled.
	var r *Replay
	var fc *formulaCache
	if len(cp.Space) <= CaptureLimit {
		r = &Replay{cp: cp}
		fc = &r.fc
	}
	short, err := cp.screen(ctx, s, t, fc, cost.NewEstimator(s.H, s.placement(t)))
	if err != nil {
		return nil, nil, err
	}
	if r != nil {
		// The span marks the capture in the trace.
		_, spCap := obs.Start(ctx, "synth.capture")
		spCap.Attr("space", len(cp.Space))
		spCap.End()
	}
	res, err := cp.optimize(ctx, s, t, fc, short)
	if err != nil {
		return nil, nil, err
	}
	res.Elapsed = time.Since(start)
	res.Memo = MemoStats{Keys: dedup}
	return res, r, nil
}

// search is the rewrite search of t under the synthesizer's knobs.
func (s *Synthesizer) search(ctx context.Context, t Task) ([]rules.Derivation, rules.SearchStats) {
	maxDepth := s.MaxDepth
	if maxDepth <= 0 {
		maxDepth = 6
	}
	maxSpace := s.MaxSpace
	if maxSpace <= 0 {
		maxSpace = 20000
	}
	rls := s.Rules
	if rls == nil {
		rls = rules.AllRules()
	}
	rctx := &rules.Context{
		H:            s.H,
		InputLoc:     map[string]string{},
		Output:       t.Output,
		Intermediate: cost.Intermediate(s.placement(t)),
		Commutative:  t.Spec.Commutative,
	}
	for _, in := range t.Spec.Inputs {
		rctx.InputLoc[in.Name] = t.InputLoc[in.Name]
	}
	return rules.Search(ctx, t.Spec.Prog, rls, rctx, maxDepth, maxSpace, s.Workers)
}

// heuristicPoint guesses block sizes for screening — each parameter starts
// at 4096 and halves until all capacity constraints hold — and returns the
// cost formula evaluated at the guess. The formulas arrive compiled and
// bound, so the repair loop rewrites a few parameter slots per iteration
// instead of rebuilding an environment map; the evaluations are bit-identical
// to Expr.Eval.
func heuristicPoint(cf *cost.CompiledFormulas) float64 {
	nparams := len(cf.Params())
	var buf [16]int64
	vals := buf[:]
	if nparams > len(buf) {
		vals = make([]int64, nparams)
	}
	vals = vals[:nparams]
	for i := range vals {
		vals[i] = 4096
	}
	cf.SetPointVals(vals)
	// Shrink until all constraints hold (cheap feasibility repair).
	for iter := 0; iter < 40 && nparams > 0; iter++ {
		if !cf.AnyViolated() {
			break
		}
		for i := range vals {
			if vals[i] > 1 {
				vals[i] /= 2
			}
		}
		cf.SetPointVals(vals)
	}
	return cf.Seconds()
}

// paramUpperBound caps every parameter at the total input size (a block
// larger than the data is pointless) to keep the search compact.
func paramUpperBound(t Task) int64 {
	var total int64
	for _, n := range t.InputRows {
		total += n
	}
	return max(total, 16)
}
