package core_test

import (
	"context"
	"math"
	"slices"
	"testing"

	"ocas/internal/core"
	"ocas/internal/obs"
	"ocas/internal/ocal"
)

// TestPruningKeepsWinner: skipping the shortlist members whose interval lower
// bound exceeds the running incumbent never changes the winner. Over every
// minimize-golden case and ladder point, at one worker and at eight,
// Instantiate (which prunes) returns exactly the candidate that the unpruned
// TuneShortlist's best, picked by the same tie rule, is — program, steps,
// params and the bits of its cost — and every member's bound over the whole
// box (no incumbent) is at most its tuned cost. TestTemplateDifferential
// cannot see a pruning bug: template and cold run the same pruned code.
func TestPruningKeepsWinner(t *testing.T) {
	ctx := context.Background()
	var shapes, pruned int
	for _, c := range minimizeCases(t) {
		_, replay, err := c.synth.SynthesizeCapture(ctx, c.task)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, workers := range []int{1, 8} {
			s := *c.synth
			s.Workers = workers
			for _, rows := range ladderPoints(c.task.InputRows) {
				task := c.task
				task.InputRows = rows
				at := c.name + " at " + formatInts(rows)
				cands, bounds, err := replay.TuneShortlist(ctx, &s, task)
				if err != nil {
					t.Fatalf("%s: %v", at, err)
				}
				var want *core.Candidate
				for i, cand := range cands {
					if cand == nil {
						continue
					}
					if !(bounds[i] <= cand.Seconds) {
						t.Errorf("%s, member %d: bound %v above its tuned cost %v", at, i, bounds[i], cand.Seconds)
					}
					if want == nil || cand.Seconds < want.Seconds ||
						(cand.Seconds == want.Seconds && len(cand.Steps) < len(want.Steps)) {
						want = cand
					}
				}

				tr := obs.NewTrace("prune")
				syn, err := replay.Instantiate(obs.ContextWith(ctx, tr.StartSpan("test", nil)), &s, task)
				if err != nil {
					t.Fatalf("%s: %v", at, err)
				}
				got := syn.Best
				if ocal.String(got.Expr) != ocal.String(want.Expr) || !slices.Equal(got.Steps, want.Steps) ||
					formatInts(got.Params) != formatInts(want.Params) ||
					math.Float64bits(got.Seconds) != math.Float64bits(want.Seconds) {
					t.Errorf("%s, %d workers: pruned winner %v %s at %v, unpruned %v %s at %v", at, workers,
						got.Steps, formatInts(got.Params), got.Seconds, want.Steps, formatInts(want.Params), want.Seconds)
				}
				if workers == 1 {
					for _, sp := range tr.Snapshot().Spans {
						if sp.Name == "synth.optimize" {
							shapes += sp.Attrs["shapes"].(int)
							pruned += sp.Attrs["pruned"].(int)
						}
					}
				}
			}
		}
	}
	t.Logf("one worker: pruned %d of %d shortlisted formula shapes", pruned, shapes)
	if pruned == 0 {
		t.Error("no member was pruned")
	}
}
