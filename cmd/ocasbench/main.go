// Command ocasbench regenerates the paper's evaluation: Table 1, Figure 8,
// the cache-miss study and the accuracy study, printing paper-style tables.
//
// Usage:
//
//	ocasbench -table1            # the sixteen Table 1 rows
//	ocasbench -execpar           # executor scaling rows (1 vs 4 workers)
//	ocasbench -fig8              # estimated vs measured sweeps
//	ocasbench -cache             # loop-tiling cache-miss reduction
//	ocasbench -accuracy          # selectivity vs estimation accuracy
//	ocasbench -ingest            # durable-catalog ingest + scan differential
//	ocasbench -columnar          # columnar batch layout over durable chains
//	ocasbench -all -shrink 8     # everything, at 1/8 scale
//
// Further knobs: -strategy exhaustive|beam with -beam N, -workers N for the
// synthesis pool, -templates for the template-tier warm rows, -regress PCT
// for the -baseline gate. -cpuprofile FILE and -memprofile FILE write pprof
// profiles of the run (the CPU profile covers the experiments; the heap
// profile snapshots after a final GC).
//
// With -json the machine-readable bench report (per-experiment synthesis
// wall-clock, candidate counts, speedup factors, memo-cache counters) is
// written to stdout and the human tables move to stderr, so CI can redirect
// the report into an artifact:
//
//	ocasbench -table1 -shrink 8 -json > BENCH_ci.json
//
// -baseline compares the run against a committed report and exits non-zero
// when total synthesis wall-clock regressed more than -regress percent:
//
//	ocasbench -table1 -shrink 8 -json -baseline BENCH_baseline.json > BENCH_ci.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"ocas/internal/experiments"
)

func main() {
	var (
		table1   = flag.Bool("table1", false, "regenerate Table 1")
		execPar  = flag.Bool("execpar", false, "run the multi-worker executor rows (hashjoin, externalsort at 1 and 4 workers)")
		fig8     = flag.Bool("fig8", false, "regenerate Figure 8")
		cache    = flag.Bool("cache", false, "run the cache-miss study (Section 7.2)")
		accuracy = flag.Bool("accuracy", false, "run the accuracy study (Section 7.3)")
		ingest   = flag.Bool("ingest", false, "run the ingest study: load generated rows into a durable catalog, re-execute from segments, verify identical digests")
		columnar = flag.Bool("columnar", false, "run the columnar-layout microbench: durable chains through the struct-of-arrays batch path, with allocs/op and bytes/op columns")
		all      = flag.Bool("all", false, "run everything")
		shrink   = flag.Int64("shrink", 1, "divide experiment sizes by this factor")
		strategy = flag.String("strategy", "exhaustive", "search strategy: exhaustive (full BFS) or beam (bounded frontier)")
		beam     = flag.Int("beam", 64, "beam width (-strategy beam only)")
		workers  = flag.Int("workers", 0, "synthesis worker pool size (0 = GOMAXPROCS)")
		tmpl     = flag.Bool("templates", false, "also measure template warm instantiation per Table 1 row (templateWarmSecs in the report)")
		jsonOut  = flag.Bool("json", false, "write the machine-readable bench report to stdout (tables move to stderr)")
		baseline = flag.String("baseline", "", "bench report to compare against; exit non-zero on regression")
		regress  = flag.Float64("regress", 30, "allowed synthesis wall-clock regression in percent (-baseline only)")
		cpuProf  = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a pprof heap profile (after a final GC) to this file")
	)
	flag.Parse()
	// fail exits without running defers, so the CPU profile is stopped
	// explicitly on every exit path that may follow StartCPUProfile.
	stopCPU := func() {}
	fail := func(err error) {
		stopCPU()
		fmt.Fprintln(os.Stderr, "ocasbench:", err)
		os.Exit(1)
	}
	if !*table1 && !*execPar && !*fig8 && !*cache && !*accuracy && !*ingest && !*columnar && !*all {
		fmt.Fprintln(os.Stderr, "ocasbench: no experiment selected (use -table1, -fig8, -cache, -accuracy, -ingest, -columnar or -all)")
		flag.Usage()
		os.Exit(2)
	}
	if *baseline != "" && !*table1 && !*all {
		fail(fmt.Errorf("-baseline gates on Table 1 synthesis wall-clock; add -table1 (or -all)"))
	}
	cfg := experiments.Config{Shrink: *shrink, Strategy: *strategy, BeamWidth: *beam, Workers: *workers, Templates: *tmpl}
	if _, err := cfg.SearchStrategy(); err != nil {
		fail(err)
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		stopCPU = func() {
			pprof.StopCPUProfile()
			f.Close()
			stopCPU = func() {}
		}
	}
	// Human-readable tables: stdout normally, stderr when stdout carries the
	// JSON report.
	var out io.Writer = os.Stdout
	if *jsonOut {
		out = os.Stderr
	}

	var table1Results, execParResults []*experiments.Result
	var ingestResults []*experiments.IngestResult
	if *table1 || *all {
		fmt.Fprintf(out, "== Table 1 (shrink %d) ==\n", *shrink)
		start := time.Now()
		rs, err := experiments.RunTable1(cfg, out)
		if err != nil {
			fail(err)
		}
		table1Results = rs
		fmt.Fprintf(out, "-- total %.1fs\n\n", time.Since(start).Seconds())
	}
	if *execPar || *all {
		fmt.Fprintln(out, "== Executor scaling (morsel-driven parallel execution) ==")
		rs, err := experiments.RunExecParallel(cfg, out)
		if err != nil {
			fail(err)
		}
		execParResults = rs
		fmt.Fprintln(out)
	}
	if *fig8 || *all {
		fmt.Fprintf(out, "== Figure 8 (shrink %d) ==\n", *shrink)
		if _, err := experiments.RunFigure8(cfg, out); err != nil {
			fail(err)
		}
		fmt.Fprintln(out)
	}
	if *cache || *all {
		fmt.Fprintln(out, "== Cache study (Section 7.2) ==")
		r, err := experiments.RunCacheStudy(cfg)
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(out, "untiled: %.4gs   tiled: %.4gs   miss reduction: %.1f%%\n",
			r.UntiledSecs, r.TiledSecs, 100*r.MissReduction)
		fmt.Fprintf(out, "  untiled: opt=%.4g params=%v  %s\n", r.UntiledOpt, r.UntiledParams, r.UntiledProgram)
		fmt.Fprintf(out, "  tiled:   opt=%.4g params=%v  %s\n", r.TiledOpt, r.TiledParams, r.TiledProgram)
		fmt.Fprintln(out)
	}
	if *ingest || *all {
		fmt.Fprintf(out, "== Ingest study (durable catalog, shrink %d) ==\n", *shrink)
		rs, err := experiments.RunIngest(cfg, out)
		if err != nil {
			fail(err)
		}
		ingestResults = rs
		fmt.Fprintln(out)
	}
	var columnarResults []*experiments.ColumnarResult
	if *columnar || *all {
		fmt.Fprintf(out, "== Columnar layout (shrink %d) ==\n", *shrink)
		rs, err := experiments.RunColumnar(cfg, out)
		if err != nil {
			fail(err)
		}
		columnarResults = rs
		fmt.Fprintln(out)
	}
	if *accuracy || *all {
		fmt.Fprintln(out, "== Accuracy study (Section 7.3) ==")
		pts, err := experiments.AccuracyStudy(cfg)
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(out, "%12s %12s\n", "selectivity", "est/act")
		for _, p := range pts {
			fmt.Fprintf(out, "%12.4f %12.3f\n", p.Selectivity, p.EstOverAct)
		}
		fmt.Fprintln(out)
	}

	stopCPU()
	report := experiments.NewBenchReport(cfg, table1Results, execParResults, ingestResults, columnarResults)
	// The timestamp is injected here rather than in the library, so report
	// construction stays clock-free and two runs of the same code differ
	// only where they should.
	report.Meta.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	if *jsonOut {
		if err := report.WriteJSON(os.Stdout); err != nil {
			fail(err)
		}
	}
	if *baseline != "" {
		data, err := os.ReadFile(*baseline)
		if err != nil {
			fail(err)
		}
		base, err := experiments.ReadBenchReport(data)
		if err != nil {
			fail(err)
		}
		if err := experiments.CompareBaseline(report, base, *regress); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "ocasbench: synthesis wall-clock %.3fs within +%.0f%% of baseline %.3fs\n",
			report.TotalSynthSecs, *regress, base.TotalSynthSecs)
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fail(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fail(err)
		}
		f.Close()
	}
}
