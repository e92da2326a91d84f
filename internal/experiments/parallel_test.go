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
// the hashjoin (GRACE regime) and externalsort workloads at 1 and 2 workers,
// and holds what the completion-order Gather and the morsel sections are
// kept for: the fastest join at 2 workers beats the fastest at 1 by at least
// 1.25x (1.60-1.94x measured on an idle 2-core host; the external sort's
// 1.3-1.45x is logged). The bar sits here and not in a test because it needs
// two cores to itself: beside the other packages of `go test ./...` (one per
// core) the same join reads 0.97-1.12x, under -race 1.20x. CI's "executor
// scaling" step runs it alone:
//
//	go test -run '^$' -bench BenchmarkExecParallel -benchtime 3x -v ./internal/experiments
func BenchmarkExecParallel(b *testing.B) {
	for _, e := range ExecParallelExperiments() {
		syn := parallelSynth(b, e)
		var best [3]float64 // fastest execution seen, indexed by worker count
		for _, workers := range []int{1, 2} {
			e := e
			e.ExecWorkers = workers
			b.Run(fmt.Sprintf("%s/workers=%d", e.Name, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					r, err := Execute(e, syn)
					if err != nil {
						b.Fatal(err)
					}
					if best[workers] == 0 || r.ExecSecs < best[workers] {
						best[workers] = r.ExecSecs
					}
				}
			})
		}
		if best[1] == 0 || best[2] == 0 {
			continue // -bench selected one worker count only
		}
		speedup := best[1] / best[2]
		b.Logf("%s: %.3fs at 1 worker, %.3fs at 2 workers (%.2fx)", e.Name, best[1], best[2], speedup)
		if e.Name == "hashjoin" && speedup < 1.25 {
			b.Errorf("hashjoin: %.2fx speedup at 2 workers, want >= 1.25x", speedup)
		}
	}
}

// TestExecParallelSpeedup runs both workloads once at 1 and at 2 workers:
// the simulated charges must be identical, and the wall-clock ratio is
// logged. The ratio is not asserted here, where other packages' tests own
// the second core; BenchmarkExecParallel holds the bar.
func TestExecParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size executions skipped in -short mode")
	}
	if runtime.GOMAXPROCS(0) < 2 || runtime.NumCPU() < 2 {
		t.Skipf("needs >= 2 CPUs (GOMAXPROCS %d, NumCPU %d)", runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	for _, e := range ExecParallelExperiments() {
		syn := parallelSynth(t, e)
		var wall, act [3]float64 // indexed by worker count
		for _, workers := range []int{1, 2} {
			e := e
			e.ExecWorkers = workers
			r, err := Execute(e, syn)
			if err != nil {
				t.Fatal(err)
			}
			wall[workers], act[workers] = r.ExecSecs, r.ActSecs
		}
		if act[1] != act[2] {
			t.Errorf("%s: simulated charges depend on worker count: %v vs %v", e.Name, act[1], act[2])
		}
		t.Logf("%s: %.3fs at 1 worker, %.3fs at 2 workers (%.2fx)", e.Name, wall[1], wall[2], wall[1]/wall[2])
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
