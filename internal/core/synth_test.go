package core

import (
	"strings"
	"testing"

	"ocas/internal/memory"
	"ocas/internal/ocal"
)

func synthJoin(t *testing.T, h *memory.Hierarchy, out string, rRows, sRows int64, equi bool) *Synthesis {
	t.Helper()
	s := &Synthesizer{H: h, MaxDepth: 6, MaxSpace: 4000, ScreenTop: 24}
	res, err := s.Synthesize(Task{
		Spec:      JoinSpec(equi),
		InputLoc:  map[string]string{"R": "hdd", "S": "hdd"},
		InputRows: map[string]int64{"R": rRows, "S": sRows},
		Output:    out,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDeriveBNL(t *testing.T) {
	res := synthJoin(t, memory.HDDRAM(32*memory.MiB), "", 1<<20, 1<<15, true)
	got := ocal.String(res.Best.Expr)
	// The winner must be a blocked nested loops join: both relations read
	// in blocks, element loops innermost.
	if strings.Count(got, "for (") < 4 {
		t.Errorf("expected a doubly-blocked BNL, got %s", got)
	}
	if res.Best.Seconds >= res.SpecSeconds {
		t.Errorf("optimized (%v s) must beat the naive spec (%v s)", res.Best.Seconds, res.SpecSeconds)
	}
	if res.SpecSeconds/res.Best.Seconds < 100 {
		t.Errorf("blocking should win by orders of magnitude: spec=%v opt=%v",
			res.SpecSeconds, res.Best.Seconds)
	}
	// The derivation must use apply-block (twice) and may use swap-iter and
	// seq-ac.
	blocks := 0
	for _, s := range res.Best.Steps {
		if s == "apply-block" {
			blocks++
		}
	}
	if blocks < 2 {
		t.Errorf("expected >=2 apply-block steps, got %v", res.Best.Steps)
	}
	// Chosen block sizes must be substantial (not 1).
	for p, v := range res.Best.Params {
		if v < 2 {
			t.Errorf("parameter %s = %d; the optimizer should maximize block sizes", p, v)
		}
	}
}

func TestDeriveBNLPrefersSmallOuter(t *testing.T) {
	// With very asymmetric inputs the winner must place the smaller
	// relation outermost — sizes are known at synthesis time, so swap-iter
	// fixes the order: the inner (re-read) relation must be R, the large one.
	res := synthJoin(t, memory.HDDRAM(1*memory.MiB), "", 1<<22, 1<<12, true)
	got := ocal.String(res.Best.Expr)
	outerIsS := strings.Index(got, "<- S") < strings.Index(got, "<- R") &&
		strings.Contains(got, "<- S")
	if !outerIsS {
		t.Errorf("winner must put the smaller relation outer, got %s (steps %v)",
			got, res.Best.Steps)
	}
}

func TestDeriveMergeSort(t *testing.T) {
	s := &Synthesizer{H: memory.HDDRAM(4 * memory.MiB), MaxDepth: 10, MaxSpace: 3000}
	res, err := s.Synthesize(Task{
		Spec:      SortSpec(),
		InputLoc:  map[string]string{"R": "hdd"},
		InputRows: map[string]int64{"R": 1 << 22},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := ocal.String(res.Best.Expr)
	if !strings.Contains(got, "treeFold[") {
		t.Fatalf("expected an external merge sort, got %s", got)
	}
	if !strings.Contains(got, "funcPow[") {
		t.Errorf("expected a 2^k-way merge (funcPow), got %s", got)
	}
	// n^2 -> n log n: the gap must be enormous at 4M elements.
	if res.SpecSeconds/res.Best.Seconds < 1e3 {
		t.Errorf("merge sort should beat insertion sort asymptotically: spec=%v opt=%v",
			res.SpecSeconds, res.Best.Seconds)
	}
	hasFld, hasInc := false, false
	for _, st := range res.Best.Steps {
		switch st {
		case "fldL-to-trfld":
			hasFld = true
		case "inc-branching":
			hasInc = true
		}
	}
	if !hasFld {
		t.Errorf("derivation must start with fldL-to-trfld: %v", res.Best.Steps)
	}
	if !hasInc {
		t.Logf("note: binary merge won at this configuration (steps %v)", res.Best.Steps)
	}
}

func TestDeriveHashJoinWhenRAMScarce(t *testing.T) {
	// Large relations, tiny RAM: the GRACE hash join must appear in the
	// search space and win against plain BNL.
	s := &Synthesizer{H: memory.HDDRAM(256 * memory.KiB), MaxDepth: 6, MaxSpace: 6000, ScreenTop: 32}
	res, err := s.Synthesize(Task{
		Spec:      JoinSpec(true),
		InputLoc:  map[string]string{"R": "hdd", "S": "hdd"},
		InputRows: map[string]int64{"R": 1 << 23, "S": 1 << 23},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := ocal.String(res.Best.Expr)
	if !strings.Contains(got, "partition[") {
		t.Errorf("expected hash-partitioned join to win with scarce RAM, got %s (steps %v)",
			got, res.Best.Steps)
	}
}

func TestSynthesisAdaptsToHierarchy(t *testing.T) {
	// The same spec synthesized for flash vs HDD output must give different
	// estimated costs (flash writes are faster; erase instead of seek).
	mk := func(h *memory.Hierarchy, out string) float64 {
		s := &Synthesizer{H: h, MaxDepth: 5, MaxSpace: 2500, ScreenTop: 16}
		res, err := s.Synthesize(Task{
			Spec:      JoinSpec(false), // product join: write-bound
			InputLoc:  map[string]string{"R": "hdd", "S": "hdd"},
			InputRows: map[string]int64{"R": 1 << 10, "S": 1 << 13},
			Output:    out,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Best.Seconds
	}
	hddOut := mk(memory.TwoHDD(16*memory.MiB), "hdd2")
	ssdOut := mk(memory.HDDFlash(16*memory.MiB), "ssd")
	if ssdOut >= hddOut {
		t.Errorf("flash output should be estimated faster: ssd=%v hdd2=%v", ssdOut, hddOut)
	}
}

func TestAggregationSynthesis(t *testing.T) {
	s := &Synthesizer{H: memory.HDDRAM(32 * memory.MiB), MaxDepth: 3, MaxSpace: 500}
	res, err := s.Synthesize(Task{
		Spec:      AggregationSpec(),
		InputLoc:  map[string]string{"R": "hdd"},
		InputRows: map[string]int64{"R": 1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Seconds > res.SpecSeconds {
		t.Errorf("optimized aggregation regressed: %v > %v", res.Best.Seconds, res.SpecSeconds)
	}
	// One sequential pass over 8 MiB at 30 MiB/s is ~0.27 s + seeks.
	if res.Best.Seconds > 60 {
		t.Errorf("aggregation estimate implausible: %v s", res.Best.Seconds)
	}
}

func TestSetOpsSynthesis(t *testing.T) {
	for _, spec := range []Spec{
		SetUnionSpec(), MultisetUnionSortedSpec(), MultisetUnionVMSpec(),
		MultisetDiffSortedSpec(), MultisetDiffVMSpec(), DupRemovalSpec(),
	} {
		s := &Synthesizer{H: memory.HDDRAM(16 * memory.MiB), MaxDepth: 3, MaxSpace: 500}
		task := Task{Spec: spec, InputLoc: map[string]string{}, InputRows: map[string]int64{}, Output: "hdd"}
		for _, in := range spec.Inputs {
			task.InputLoc[in.Name] = "hdd"
			task.InputRows[in.Name] = 1 << 18
		}
		res, err := s.Synthesize(task)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if res.Best.Seconds > res.SpecSeconds {
			t.Errorf("%s: optimized cost regressed (%v > %v)", spec.Name, res.Best.Seconds, res.SpecSeconds)
		}
		if res.Best.Seconds <= 0 {
			t.Errorf("%s: non-positive estimate %v", spec.Name, res.Best.Seconds)
		}
	}
}

func TestColumnReadSynthesis(t *testing.T) {
	for _, n := range []int{5} {
		spec := ColumnReadSpec(n)
		s := &Synthesizer{H: memory.HDDRAM(16 * memory.MiB), MaxDepth: 2, MaxSpace: 200}
		task := Task{Spec: spec, InputLoc: map[string]string{}, InputRows: map[string]int64{}}
		for _, in := range spec.Inputs {
			task.InputLoc[in.Name] = "hdd"
			task.InputRows[in.Name] = 1 << 18
		}
		res, err := s.Synthesize(task)
		if err != nil {
			t.Fatal(err)
		}
		if res.Best.Seconds >= res.SpecSeconds {
			t.Errorf("blocked column read should beat element-wise: %v vs %v",
				res.Best.Seconds, res.SpecSeconds)
		}
	}
}
