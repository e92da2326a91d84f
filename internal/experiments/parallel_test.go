package experiments

import (
	"flag"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"

	"ocas/internal/core"
	"ocas/internal/memory"
	"ocas/internal/workload"
)

// synthOnce caches one synthesis per exec-parallel workload so benchmarks
// and tests re-execute without re-searching.
var (
	synthMu    sync.Mutex
	synthCache = map[string]*core.Synthesis{}
)

func parallelSynth(tb testing.TB, e Experiment) *core.Synthesis {
	tb.Helper()
	synthMu.Lock()
	defer synthMu.Unlock()
	if s, ok := synthCache[e.Name]; ok {
		return s
	}
	s, err := Synthesize(e)
	if err != nil {
		tb.Fatal(err)
	}
	synthCache[e.Name] = s
	return s
}

// BenchmarkExecParallel measures the morsel-driven executor's wall-clock on
// the hashjoin (GRACE regime) and externalsort workloads at 1 and 2
// workers; the simulated charges are identical either way.
func BenchmarkExecParallel(b *testing.B) {
	for _, e := range ExecParallelExperiments() {
		syn := parallelSynth(b, e)
		for _, workers := range []int{1, 2} {
			e := e
			e.ExecWorkers = workers
			b.Run(fmt.Sprintf("%s/workers=%d", e.Name, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := Execute(e, syn); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestExecParallelSpeedup asserts what the completion-order Gather and the
// morsel sections are kept for: the GRACE hash join runs at least 1.25x
// faster on 2 workers than on 1 (measured 1.60-1.76x on a 2-core host; the
// external sort's 1.3-1.4x is logged, not asserted), with identical
// simulated charges. Wall-clock is the best of three alternating runs per
// worker count. The measurement needs two cores to itself, so it runs when
// selected by name, as CI's "executor scaling" step does:
//
//	go test -run TestExecParallelSpeedup -v ./internal/experiments
//
// Beside the other packages of `go test ./...` (one per core) the same join
// measures 0.97-1.12x. It also skips under -short, below 2 CPUs and in a
// -race build (1.20x of instrumentation, in two minutes). That charges do
// not depend on the worker count is pinned, at sizes fit for every run, by
// exec's TestWorkersDifferentialSweep and plan's TestAccountingGolden.
func TestExecParallelSpeedup(t *testing.T) {
	if f := flag.Lookup("test.run"); f == nil || !strings.Contains(f.Value.String(), "ExecParallel") {
		t.Skip("a wall-clock measurement needs the cores to itself: select it with -run TestExecParallelSpeedup")
	}
	if testing.Short() || raceBuild() {
		t.Skip("speedup measurement skipped in -short mode and in -race builds")
	}
	if runtime.GOMAXPROCS(0) < 2 || runtime.NumCPU() < 2 {
		t.Skipf("needs >= 2 CPUs (GOMAXPROCS %d, NumCPU %d)", runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	for _, e := range ExecParallelExperiments() {
		syn := parallelSynth(t, e)
		var wall, act [3]float64 // indexed by worker count
		for try := 0; try < 3; try++ {
			for _, workers := range []int{1, 2} {
				e := e
				e.ExecWorkers = workers
				r, err := Execute(e, syn)
				if err != nil {
					t.Fatal(err)
				}
				if try == 0 || r.ExecSecs < wall[workers] {
					wall[workers] = r.ExecSecs
				}
				act[workers] = r.ActSecs
			}
		}
		if act[1] != act[2] {
			t.Errorf("%s: simulated charges depend on worker count: %v vs %v", e.Name, act[1], act[2])
		}
		speedup := wall[1] / wall[2]
		t.Logf("%s: %.3fs at 1 worker, %.3fs at 2 workers (%.2fx)", e.Name, wall[1], wall[2], speedup)
		if e.Name == "hashjoin" && speedup < 1.25 {
			t.Errorf("hashjoin: %.2fx speedup at 2 workers, want >= 1.25x", speedup)
		}
	}
}

// raceBuild reports whether the test binary was built with -race.
func raceBuild() bool {
	bi, _ := debug.ReadBuildInfo()
	return bi != nil && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}

// ExecParallelExperiments returns the two executor-scaling workloads: the
// GRACE hash join of the hashjoin example regime (RAM
// scarce relative to MB-scale relations, so the plan partitions to scratch
// and joins bucket-wise) and the external merge sort (runs form
// morsel-parallel sections, the final merge streams). Sizes are fixed
// regardless of Shrink — scaling is only observable when the parallel
// phases dominate.
func ExecParallelExperiments() []Experiment {
	// The join uses the GRACE regime of the hashjoin example and the Table 1
	// grace row: transfer-dominated MB-scale relations against scarce RAM,
	// where synthesis derives the partitioned hash join.
	gR := int64(4 << 20) // tuples -> 32MB
	gS := int64(8 << 20) //        -> 64MB
	gRAM := int64(2 << 20)
	sortN := int64(1 << 20) // 4MB of int32 keys
	sortRAM := int64(256 << 10)
	return []Experiment{
		{
			Name:     "hashjoin",
			PaperRow: "exec-parallel: GRACE hash join (hashjoin example regime)",
			Spec:     core.JoinSpec(true),
			Hier:     memory.HDDRAM(gRAM),
			InputLoc: map[string]string{"R": "hdd", "S": "hdd"},
			Rows:     map[string]int64{"R": gR, "S": gS},
			Gen: map[string]func() []int32{
				"R": func() []int32 { return workload.UniformPairs(gR, gR*4, 1) },
				"S": func() []int32 { return workload.UniformPairs(gS, gR*4, 2) },
			},
			MaxDepth: 6, MaxSpace: 1500,
			RBytes: gR * 8, SBytes: gS * 8, Buffer: gRAM,
		},
		{
			Name:     "externalsort",
			PaperRow: "exec-parallel: external merge sort",
			Spec:     core.SortSpec(),
			Hier:     memory.HDDRAM(sortRAM),
			InputLoc: map[string]string{"R": "hdd"},
			Rows:     map[string]int64{"R": sortN},
			Gen: map[string]func() []int32{
				"R": func() []int32 { return workload.Ints(sortN, 1<<30, 5) },
			},
			MaxDepth: 12, MaxSpace: 2000,
			RBytes: sortN * 4, Buffer: sortRAM,
		},
	}
}
