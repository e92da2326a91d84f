package core

import (
	"reflect"
	"testing"

	"ocas/internal/memory"
	"ocas/internal/ocal"
)

// joinTask is a mid-sized synthesis problem that exercises every pipeline
// stage (search, costing, screening, optimization).
func joinTask() Task {
	return Task{
		Spec:      JoinSpec(true),
		InputLoc:  map[string]string{"R": "hdd", "S": "hdd"},
		InputRows: map[string]int64{"R": 1 << 20, "S": 1 << 15},
	}
}

func mustSynth(t *testing.T, s *Synthesizer, task Task) *Synthesis {
	t.Helper()
	res, err := s.Synthesize(task)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func sameWinner(t *testing.T, a, b *Synthesis, what string) {
	t.Helper()
	if got, want := ocal.String(b.Best.Expr), ocal.String(a.Best.Expr); got != want {
		t.Errorf("%s: winning program differs:\n  %s\n  %s", what, want, got)
	}
	if !reflect.DeepEqual(a.Best.Steps, b.Best.Steps) {
		t.Errorf("%s: derivations differ: %v vs %v", what, a.Best.Steps, b.Best.Steps)
	}
	if !reflect.DeepEqual(a.Best.Params, b.Best.Params) {
		t.Errorf("%s: parameters differ: %v vs %v", what, a.Best.Params, b.Best.Params)
	}
	if a.Best.Seconds != b.Best.Seconds {
		t.Errorf("%s: costs differ: %v vs %v", what, a.Best.Seconds, b.Best.Seconds)
	}
	if !reflect.DeepEqual(a.Stats, b.Stats) {
		t.Errorf("%s: search stats differ: %+v vs %+v", what, a.Stats, b.Stats)
	}
	if a.Explored != b.Explored {
		t.Errorf("%s: explored counts differ: %d vs %d", what, a.Explored, b.Explored)
	}
}

// TestSynthesizeParallelMatchesSequential is the acceptance criterion of
// the parallel pipeline: with the exhaustive strategy, any worker count
// must pick the identical winning candidate (same program, same cost, same
// derivation, same tuned parameters) as a one-worker run.
func TestSynthesizeParallelMatchesSequential(t *testing.T) {
	tasks := map[string]Task{
		"join": joinTask(),
		"sort": {
			Spec:      SortSpec(),
			InputLoc:  map[string]string{"R": "hdd"},
			InputRows: map[string]int64{"R": 1 << 20},
		},
		"agg": {
			Spec:      AggregationSpec(),
			InputLoc:  map[string]string{"R": "hdd"},
			InputRows: map[string]int64{"R": 1 << 20},
		},
	}
	for name, task := range tasks {
		h := memory.HDDRAM(8 * memory.MiB)
		seq := mustSynth(t, &Synthesizer{H: h, MaxDepth: 6, MaxSpace: 2000, Workers: 1}, task)
		for _, workers := range []int{2, 8} {
			par := mustSynth(t, &Synthesizer{H: h, MaxDepth: 6, MaxSpace: 2000, Workers: workers}, task)
			sameWinner(t, seq, par, name)
		}
	}
}

// TestSynthesizeDeterministic: two runs of the same parallel synthesis pick
// the identical winning candidate, byte for byte.
func TestSynthesizeDeterministic(t *testing.T) {
	mk := func() *Synthesis {
		s := &Synthesizer{H: memory.HDDRAM(8 * memory.MiB), MaxDepth: 6, MaxSpace: 2000, Workers: 8}
		return mustSynth(t, s, joinTask())
	}
	a, b := mk(), mk()
	sameWinner(t, a, b, "repeat run")
}

// TestSynthesizeRace exists to run the full parallel pipeline under
// `go test -race`: search fan-out, concurrent costing and concurrent
// parameter optimization all run with an oversized worker pool.
func TestSynthesizeRace(t *testing.T) {
	s := &Synthesizer{H: memory.HDDRAM(8 * memory.MiB), MaxDepth: 6, MaxSpace: 2000, Workers: 32}
	res := mustSynth(t, s, joinTask())
	if res.Best == nil || res.Best.Seconds <= 0 {
		t.Fatalf("bad result: %+v", res)
	}
}
