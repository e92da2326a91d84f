package experiments

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"

	"ocas/internal/core"
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

// TestRunExecParallelReport exercises the bench rows end to end at a small
// scale: the report must carry one row per worker count with identical
// virtual clocks.
func TestRunExecParallelReport(t *testing.T) {
	if testing.Short() {
		t.Skip("executor rows are seconds-long; skipped in -short mode")
	}
	rs, err := RunExecParallel(Config{}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2*len(ExecParallelWorkers) {
		t.Fatalf("%d results, want %d", len(rs), 2*len(ExecParallelWorkers))
	}
	rep := NewBenchReport(Config{}, nil, rs, nil, nil)
	if len(rep.ExecParallel) != len(rs) {
		t.Fatalf("%d report rows", len(rep.ExecParallel))
	}
	for i := 1; i < len(ExecParallelWorkers); i++ {
		if rep.ExecParallel[i].ActSecs != rep.ExecParallel[0].ActSecs {
			t.Errorf("worker count changed simulated time: %v vs %v",
				rep.ExecParallel[i].ActSecs, rep.ExecParallel[0].ActSecs)
		}
	}
	if rep.TotalExecParSecs <= 0 {
		t.Error("no parallel executor wall-clock recorded")
	}
}
