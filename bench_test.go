// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section 7). Each benchmark runs the corresponding experiment pipeline:
// synthesis (search + costing + parameter optimization) followed by
// simulated execution on generated data. Run with:
//
//	go test -bench=. -benchmem
//
// BenchmarkTable1/<row> covers the sixteen Table 1 rows; BenchmarkFigure8
// the estimated-vs-measured sweeps; BenchmarkCacheStudy and
// BenchmarkAccuracyStudy the Section 7.2/7.3 studies; and
// BenchmarkSynthesizer* isolates the synthesizer runtime measurements of
// Section 7.4 (search space growth, input-size independence).
package ocas_test

import (
	"context"
	"io"
	"runtime"
	"testing"

	"ocas/internal/core"
	"ocas/internal/experiments"
	"ocas/internal/interp"
	"ocas/internal/memory"
	"ocas/internal/ocal"
	"ocas/internal/rules"
)

// benchCfg keeps per-iteration work bounded; the shapes (who wins, by what
// factor) are scale-robust, which is what the assertions in the experiment
// tests check.
var benchCfg = experiments.Config{Shrink: 8}

func BenchmarkTable1(b *testing.B) {
	exps, err := experiments.Table1(benchCfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range exps {
		e := e
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Run(e); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFigure8(benchCfg, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCacheStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunCacheStudy(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAccuracyStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AccuracyStudy(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSynthesizerJoin measures the synthesizer itself (Section 7.4):
// runtime grows with the search space, not with the input size.
func BenchmarkSynthesizerJoin(b *testing.B) {
	for _, size := range []int64{1 << 10, 1 << 20, 1 << 30} {
		size := size
		b.Run(byteLabel(size), func(b *testing.B) {
			s := &core.Synthesizer{H: memory.HDDRAM(8 * memory.MiB), MaxDepth: 6, MaxSpace: 2000}
			for i := 0; i < b.N; i++ {
				_, err := s.Synthesize(core.Task{
					Spec:      core.JoinSpec(true),
					InputLoc:  map[string]string{"R": "hdd", "S": "hdd"},
					InputRows: map[string]int64{"R": size, "S": size / 32},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSynthesizerDepth shows the ~exponential growth of the search
// space with the number of transformation steps.
func BenchmarkSynthesizerDepth(b *testing.B) {
	for _, depth := range []int{2, 4, 6} {
		depth := depth
		b.Run(depthLabel(depth), func(b *testing.B) {
			s := &core.Synthesizer{H: memory.HDDRAM(8 * memory.MiB), MaxDepth: depth, MaxSpace: 50000}
			var space int
			for i := 0; i < b.N; i++ {
				res, err := s.Synthesize(core.Task{
					Spec:      core.JoinSpec(true),
					InputLoc:  map[string]string{"R": "hdd", "S": "hdd"},
					InputRows: map[string]int64{"R": 1 << 20, "S": 1 << 15},
				})
				if err != nil {
					b.Fatal(err)
				}
				space = res.Stats.SpaceSize
			}
			b.ReportMetric(float64(space), "programs")
		})
	}
}

// BenchmarkSynthesizerParallel compares the end-to-end pipeline (search,
// costing, screening, optimization) at one worker versus the full
// GOMAXPROCS pool. On a multi-core runner the parallel variant shows the
// wall-clock win; results are identical either way (see
// core.TestSynthesizeParallelMatchesSequential).
func BenchmarkSynthesizerParallel(b *testing.B) {
	task := core.Task{
		Spec:      core.JoinSpec(true),
		InputLoc:  map[string]string{"R": "hdd", "S": "hdd"},
		InputRows: map[string]int64{"R": 1 << 20, "S": 1 << 15},
	}
	for _, cfg := range []struct {
		name    string
		workers int
	}{
		{"sequential", 1},
		{"parallel", runtime.GOMAXPROCS(0)},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			s := &core.Synthesizer{H: memory.HDDRAM(8 * memory.MiB),
				MaxDepth: 6, MaxSpace: 5000, Workers: cfg.workers}
			for i := 0; i < b.N; i++ {
				if _, err := s.Synthesize(task); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSearchStrategies compares the exhaustive search with the
// bounded-frontier beam (which explores a fraction of the space) and the
// worker-pool scaling of the exhaustive expansion.
func BenchmarkSearchStrategies(b *testing.B) {
	spec := core.SortSpec()
	mkCtx := func() *rules.Context {
		return &rules.Context{
			H:           memory.HDDRAM(8 * memory.MiB),
			InputLoc:    map[string]string{"R": "hdd"},
			Commutative: true,
		}
	}
	for _, cfg := range []struct {
		name  string
		strat rules.SearchStrategy
	}{
		{"exhaustive-1worker", rules.Exhaustive{Workers: 1}},
		{"exhaustive-allworkers", rules.Exhaustive{}},
		{"beam-16", rules.Beam{Width: 16}},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			var space int
			for i := 0; i < b.N; i++ {
				ds, _ := cfg.strat.Search(context.Background(), spec.Prog, rules.AllRules(), mkCtx(), 10, 50000)
				space = len(ds)
			}
			b.ReportMetric(float64(space), "programs")
		})
	}
}

// BenchmarkSearchOnly isolates the rewrite engine.
func BenchmarkSearchOnly(b *testing.B) {
	spec := core.JoinSpec(true)
	ctx := &rules.Context{
		H:           memory.HDDRAM(8 * memory.MiB),
		InputLoc:    map[string]string{"R": "hdd", "S": "hdd"},
		Commutative: true,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rules.Exhaustive{}.Search(context.Background(), spec.Prog, rules.AllRules(), ctx, 5, 5000)
	}
}

// BenchmarkInterpreter measures the reference interpreter on the merge sort
// (the equivalence oracle used by the rule tests).
func BenchmarkInterpreter(b *testing.B) {
	prog := ocal.MustParse(`treeFold[4]([], unfoldR(funcPow[2](mrg)))(R)`)
	seed := make(ocal.List, 512)
	for i := range seed {
		seed[i] = ocal.List{ocal.Int(int64((i * 2654435761) % 10007))}
	}
	in := map[string]ocal.Value{"R": seed}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := interp.Eval(prog, in, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func byteLabel(n int64) string {
	switch {
	case n >= 1<<30:
		return "rows-1Gi"
	case n >= 1<<20:
		return "rows-1Mi"
	}
	return "rows-1Ki"
}

func depthLabel(d int) string {
	return "depth-" + string(rune('0'+d))
}
