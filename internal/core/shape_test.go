package core_test

import (
	"context"
	"maps"
	"math"
	"slices"
	"testing"

	"ocas/internal/core"
	"ocas/internal/cost"
	"ocas/internal/opt"
)

// TestShapeTuneMatchesPerMember is the oracle for tuning by formula shape.
// Screening and tuning run once per shape and hand each member its shape's
// result, renamed onto the member's own parameters; TestPruningKeepsWinner
// compares two runs of that same path and cannot see a wrong hand-out. Here,
// over every minimize-golden case and ladder point, each shortlist member's
// formulas are compiled alone with cost.CompileFormulas, bound by name to the
// task's fixed environment and minimized with opt.Minimize: the values must
// equal, name by name, and the objective bit for bit, what TuneShortlist
// gave the member at one worker and at eight.
func TestShapeTuneMatchesPerMember(t *testing.T) {
	ctx := context.Background()
	members := 0
	for _, c := range minimizeCases(t) {
		_, replay, err := c.synth.SynthesizeCapture(ctx, c.task)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, rows := range ladderPoints(c.task.InputRows) {
			task := c.task
			task.InputRows = rows
			at := c.name + " at " + formatInts(rows)
			short, err := replay.Shortlist(ctx, c.synth, task)
			if err != nil {
				t.Fatalf("%s: %v", at, err)
			}
			want := make([]*opt.Result, len(short))
			env := c.synth.TaskEnv(task)
			keys := slices.Sorted(maps.Keys(env))
			vals := make([]float64, len(keys))
			for i, k := range keys {
				vals[i] = env[k]
			}
			for i, res := range short {
				cf := cost.CompileFormulas(res.Seconds, res.Constraints, res.Params)
				cf.SetBound(cf.Binding(keys), vals)
				if rr, err := opt.Minimize(cf, core.ParamUpperBound(task)); err == nil {
					want[i] = rr
				}
			}
			members += len(short)
			for _, workers := range []int{1, 8} {
				s := *c.synth
				s.Workers = workers
				cands, _, err := replay.TuneShortlist(ctx, &s, task)
				if err != nil {
					t.Fatalf("%s: %v", at, err)
				}
				if len(cands) != len(want) {
					t.Fatalf("%s, %d workers: %d candidates for a shortlist of %d", at, workers, len(cands), len(want))
				}
				for i, cand := range cands {
					w := want[i]
					switch {
					case (cand == nil) != (w == nil):
						t.Errorf("%s, %d workers, member %d: by shape feasible %v, alone %v", at, workers, i, cand != nil, w != nil)
					case cand == nil:
					case cand.Cost != short[i]:
						t.Errorf("%s, %d workers, member %d: candidate of another member", at, workers, i)
					case !maps.Equal(cand.Params, w.Values) ||
						math.Float64bits(cand.Seconds) != math.Float64bits(w.Seconds):
						t.Errorf("%s, %d workers, member %d: by shape %s at %v, alone %s at %v", at, workers, i,
							formatInts(cand.Params), cand.Seconds, formatInts(w.Values), w.Seconds)
					}
				}
			}
		}
	}
	if members == 0 {
		t.Fatal("no shortlist member was checked")
	}
}
