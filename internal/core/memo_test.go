package core

import (
	"testing"

	"ocas/internal/memory"
	"ocas/internal/rules"
)

// TestMemoTablesSafeUnderWorkers exercises the per-synthesis tables — the
// search's dedup set and the optimizer's point memos — from a many-worker
// run, and checks the result still matches a one-worker run. Under `go test
// -race` this is the data-race proof for the memoized hot path.
func TestMemoTablesSafeUnderWorkers(t *testing.T) {
	task := joinTask()
	mk := func(workers int) *Synthesizer {
		return &Synthesizer{
			H:        memory.HDDRAM(1 << 20),
			MaxDepth: 6, MaxSpace: 1500,
			Workers: workers,
		}
	}
	seq := mustSynth(t, mk(1), task)
	for _, workers := range []int{4, 8} {
		par := mustSynth(t, mk(workers), task)
		sameWinner(t, seq, par, "memo tables")
	}
	if seq.Memo.Keys.InternedNodes == 0 {
		t.Fatalf("no dedup keys recorded: %+v", seq.Memo)
	}
}

// TestSequentialSynthesesDoNotShareMemoState runs two different tasks
// through one Synthesizer and checks each produces exactly what a fresh
// Synthesizer produces — the per-run memo tables must not leak results (or
// counters) from one synthesis into the next. This is the core-level half
// of the ocasd guarantee that sequential requests are independent.
func TestSequentialSynthesesDoNotShareMemoState(t *testing.T) {
	shared := &Synthesizer{H: memory.HDDRAM(1 << 20), MaxDepth: 4, MaxSpace: 400, Workers: 1}

	join := joinTask()
	sort := Task{
		Spec:      SortSpec(),
		InputLoc:  map[string]string{"R": "hdd"},
		InputRows: map[string]int64{"R": 1 << 18},
	}

	first := mustSynth(t, shared, join)
	second := mustSynth(t, shared, sort)

	freshJoin := mustSynth(t, &Synthesizer{H: memory.HDDRAM(1 << 20), MaxDepth: 4, MaxSpace: 400, Workers: 1}, join)
	freshSort := mustSynth(t, &Synthesizer{H: memory.HDDRAM(1 << 20), MaxDepth: 4, MaxSpace: 400, Workers: 1}, sort)

	sameWinner(t, freshJoin, first, "first run on shared synthesizer")
	sameWinner(t, freshSort, second, "second run on shared synthesizer")

	// The second run's counters must look like a cold start: a shared
	// Keyer would show the first task's counts in them.
	if second.Memo != freshSort.Memo {
		t.Errorf("second run's memo stats carry state from the first: %+v vs fresh %+v",
			second.Memo, freshSort.Memo)
	}
	if first.Memo != freshJoin.Memo {
		t.Errorf("first run's memo stats differ from a fresh run: %+v vs %+v",
			first.Memo, freshJoin.Memo)
	}
}

// TestInjectedKeyerCountsTheSearch checks the plan.Compile wiring contract:
// a caller-injected Keyer's counters are the search's level totals, the
// same totals the synthesis reports, and the result is unchanged.
func TestInjectedKeyerCountsTheSearch(t *testing.T) {
	task := joinTask()
	keys := rules.NewKeyer()
	withKeys := &Synthesizer{H: memory.HDDRAM(1 << 20), MaxDepth: 4, MaxSpace: 400, Keys: keys}
	res := mustSynth(t, withKeys, task)
	fresh := mustSynth(t, &Synthesizer{H: memory.HDDRAM(1 << 20), MaxDepth: 4, MaxSpace: 400}, task)
	sameWinner(t, fresh, res, "injected keyer")
	want := rules.KeyerStats{InternedNodes: uint64(res.Stats.SpaceSize), AlphaMisses: 1}
	for _, lv := range res.Stats.Levels {
		want.AlphaHits += uint64(lv.Deduped)
		want.AlphaMisses += uint64(lv.Kept)
	}
	if got := keys.Stats(); got != want || res.Memo.Keys != want {
		t.Errorf("keyer counts %+v, synthesis reports %+v, the search's levels give %+v", got, res.Memo.Keys, want)
	}
	if want.AlphaHits == 0 {
		t.Errorf("the search deduplicated nothing: %+v", res.Stats)
	}
}
