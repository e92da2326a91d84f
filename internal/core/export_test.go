package core

import (
	"context"
	"math"

	"ocas/internal/cost"
	"ocas/internal/rules"
)

// TuneShortlist is Instantiate up to, but not including, the pick of a
// winner, with no member pruned: every shortlist member's tuned candidate in
// shortlist order (nil = no feasible assignment), computed through the
// replay's formula cache, and each member's LowerBound (its shape's) over the
// same box against no incumbent.
func (r *Replay) TuneShortlist(ctx context.Context, s *Synthesizer, t Task) ([]*Candidate, []float64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	short, err := r.cp.screen(ctx, s, t, &r.fc, nil)
	if err != nil {
		return nil, nil, err
	}
	bounds := make([]float64, len(short.idx))
	for i, idx := range short.idx {
		bounds[i] = r.fc.shapes[r.fc.shape[idx]].LowerBound(ParamUpperBound(t), math.Inf(1))
	}
	cands, _ := r.cp.tune(ctx, s, t, &r.fc, short, false)
	return cands, bounds, nil
}

// Shortlist is the screening of t through the replay: the cost estimate of
// each shortlist member, in shortlist order.
func (r *Replay) Shortlist(ctx context.Context, s *Synthesizer, t Task) ([]*cost.Result, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	short, err := r.cp.screen(ctx, s, t, &r.fc, nil)
	if err != nil {
		return nil, err
	}
	res := make([]*cost.Result, len(short.idx))
	for i, idx := range short.idx {
		res[i] = r.cp.Costs[idx]
	}
	return res, nil
}

// ParamUpperBound is the box [1, ParamUpperBound(t)] every parameter is
// tuned in.
func ParamUpperBound(t Task) int64 { return paramUpperBound(t) }

// SearchSpace is the space SynthesizeCapture searches for t.
func (s *Synthesizer) SearchSpace(t Task) []rules.Derivation {
	space, _ := s.search(context.Background(), t)
	return space
}

// Programs reads the replay's formula cache: each member's compiled program,
// its shape's (nil = no program), aligned with the space, and which members
// were costed.
func (r *Replay) Programs() (progs []*cost.CompiledFormulas, costed []bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	progs = make([]*cost.CompiledFormulas, len(r.cp.Costs))
	costed = make([]bool, len(r.cp.Costs))
	for i, c := range r.cp.Costs {
		costed[i] = c != nil
		if k := r.fc.shape[i]; k >= 0 {
			progs[i] = r.fc.shapes[k]
		}
	}
	return progs, costed
}
