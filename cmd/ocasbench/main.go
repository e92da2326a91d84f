// Command ocasbench regenerates the paper's evaluation: Table 1, Figure 8,
// the cache-miss study and the accuracy study, printing paper-style tables.
//
// Usage:
//
//	ocasbench -table1            # the sixteen Table 1 rows
//	ocasbench -fig8              # estimated vs measured sweeps
//	ocasbench -cache             # loop-tiling cache-miss reduction
//	ocasbench -accuracy          # selectivity vs estimation accuracy
//	ocasbench -all -shrink 8     # everything, at 1/8 scale
//
// Further knobs: -workers N for the synthesis pool. -cpuprofile FILE and -memprofile FILE write pprof
// profiles of the run (the CPU profile covers the experiments; the heap
// profile snapshots after a final GC).
//
// With -json the machine-readable Table 1 report (Spec/Opt/Act, est/act,
// candidate counts, the search's dedup counters, per-row synthesis and executor
// wall-clock) is written to stdout and the human tables move to stderr, so
// CI can redirect the report into an artifact:
//
//	ocasbench -table1 -shrink 8 -json > BENCH_ci.json
//
// The report's wall-clock columns are information about one host, not a
// gate: performance is judged end to end by benchmark/ (see its README).
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
		fig8     = flag.Bool("fig8", false, "regenerate Figure 8")
		cache    = flag.Bool("cache", false, "run the cache-miss study (Section 7.2)")
		accuracy = flag.Bool("accuracy", false, "run the accuracy study (Section 7.3)")
		all      = flag.Bool("all", false, "run everything")
		shrink   = flag.Int64("shrink", 1, "divide experiment sizes by this factor")
		workers  = flag.Int("workers", 0, "synthesis worker pool size (0 = GOMAXPROCS)")
		jsonOut  = flag.Bool("json", false, "write the machine-readable Table 1 report to stdout (tables move to stderr)")
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
	if !*table1 && !*fig8 && !*cache && !*accuracy && !*all {
		fmt.Fprintln(os.Stderr, "ocasbench: no experiment selected (use -table1, -fig8, -cache, -accuracy or -all)")
		flag.Usage()
		os.Exit(2)
	}
	cfg := experiments.Config{Shrink: *shrink, Workers: *workers}
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

	var table1Results []*experiments.Result
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
	if *jsonOut {
		report := experiments.NewBenchReport(cfg, table1Results)
		// The timestamp is injected here rather than in the library, so
		// report construction stays clock-free.
		report.Meta.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
		if err := report.WriteJSON(os.Stdout); err != nil {
			fail(err)
		}
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
