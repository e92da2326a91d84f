package experiments

import (
	"fmt"
	"runtime"
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
// the hashjoin (GRACE regime) and externalsort workloads at 1 and 4
// workers. On a box with GOMAXPROCS >= 4 the 4-worker runs should show
// >1.5x speedup; the simulated charges are identical either way.
func BenchmarkExecParallel(b *testing.B) {
	for _, e := range ExecParallelExperiments() {
		syn := parallelSynth(b, e)
		for _, workers := range []int{1, 4} {
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

// TestExecParallelSpeedup asserts the acceptance bar of the morsel-driven
// executor: >1.5x wall-clock speedup at 4 workers on the hashjoin and
// externalsort workloads. It needs real cores, so it skips on smaller
// machines (and under -short); the charges-identical half of the contract
// is asserted unconditionally.
func TestExecParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup measurement skipped in -short mode")
	}
	if runtime.GOMAXPROCS(0) < 4 || runtime.NumCPU() < 4 {
		t.Skipf("needs >= 4 CPUs (GOMAXPROCS %d, NumCPU %d)", runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	for _, e := range ExecParallelExperiments() {
		syn := parallelSynth(t, e)
		measure := func(workers int) (wall, act float64) {
			e := e
			e.ExecWorkers = workers
			best, bestAct := 0.0, 0.0
			for try := 0; try < 2; try++ { // best of two, to shed warmup noise
				r, err := Execute(e, syn)
				if err != nil {
					t.Fatal(err)
				}
				if best == 0 || r.ExecSecs < best {
					best, bestAct = r.ExecSecs, r.ActSecs
				}
			}
			return best, bestAct
		}
		w1, act1 := measure(1)
		w4, act4 := measure(4)
		if act1 != act4 {
			t.Errorf("%s: simulated charges depend on worker count: %v vs %v", e.Name, act1, act4)
		}
		speedup := w1 / w4
		t.Logf("%s: %.3fs at 1 worker, %.3fs at 4 workers (%.2fx)", e.Name, w1, w4, speedup)
		if speedup < 1.5 {
			t.Errorf("%s: %.2fx speedup at 4 workers, want > 1.5x", e.Name, speedup)
		}
	}
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
