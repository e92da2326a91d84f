package core

import (
	"context"
	"math"
	"slices"

	"ocas/internal/cost"
	"ocas/internal/rules"
)

// TuneShortlist is Instantiate up to, but not including, the pick of a
// winner, with no member pruned: every shortlist member's tuned candidate in
// shortlist order (nil = no feasible assignment), computed through the
// replay's formula cache, and each member's LowerBound over the same box
// against no incumbent.
func (r *Replay) TuneShortlist(ctx context.Context, s *Synthesizer, t Task) ([]*Candidate, []float64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	short, err := r.cp.screen(ctx, s, t, &r.fc, nil)
	if err != nil {
		return nil, nil, err
	}
	bounds := make([]float64, len(short.idx))
	for i, idx := range short.idx {
		bounds[i] = r.fc.progs[idx].LowerBound(paramUpperBound(t), math.Inf(1))
	}
	cands, _ := r.cp.tune(ctx, s, t, &r.fc, short, false)
	return cands, bounds, nil
}

// SearchSpace is the space SynthesizeCapture searches for t.
func (s *Synthesizer) SearchSpace(t Task) []rules.Derivation {
	space, _ := s.search(context.Background(), t)
	return space
}

// Programs copies the replay's formula cache, aligned with its space (nil =
// no program), and reports which members were costed.
func (r *Replay) Programs() (progs []*cost.CompiledFormulas, costed []bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	costed = make([]bool, len(r.cp.Costs))
	for i, c := range r.cp.Costs {
		costed[i] = c != nil
	}
	return slices.Clone(r.fc.progs), costed
}
