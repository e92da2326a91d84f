// Command benchmark is the repository's benchmark: it builds ./cmd/ocasd,
// starts a fresh daemon per workload with -addr and -data only, and drives it
// over real HTTP from one goroutine on one keep-alive connection. See
// README.md for the workloads, the metrics and how they interact.
//
//	go run -C benchmark ocas/benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--sets K]
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics: the end-to-end metrics with --trace 0, the
// per-layer metrics with --trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"
)

// setups is how often a run sets the daemon up: setup_s is the median.
const setups = 3

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all of them, one after the other)")
		seed    = flag.Int64("seed", 1, "seed of every generated request and row")
		seconds = flag.Float64("seconds", 10, "length of the measured window")
		trace   = flag.Int("trace", 0, "1: replay the workload in-process under spans and print the per-layer metrics")
		sets    = flag.Int("sets", 1, "run everything this many times and require the sets to agree")
		update  = flag.Bool("update", false, "rewrite expected.json from this run (seed 1 only)")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *trace < 0 || *trace > 1 || *sets < 1 {
		flag.Usage()
		os.Exit(2)
	}
	selected := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			os.Exit(2)
		}
		selected = []workload{*w}
	}

	// go run -C benchmark leaves the process in benchmark/; the checkout is
	// its parent.
	root := ".."
	if _, err := os.Stat(filepath.Join(root, "cmd", "ocasd")); err != nil {
		fatal(fmt.Errorf("run from the checkout as `go run -C benchmark ocas/benchmark`: %v", err))
	}
	if err := os.MkdirAll(filepath.Join(root, buildDir), 0o755); err != nil {
		fatal(err)
	}
	bin, err := buildDaemon(root)
	if err != nil {
		fatal(err)
	}
	r := &runner{root: root, bin: bin, seed: *seed, scale: defaultScale,
		seconds: *seconds, update: *update}

	ok := true
	if *sets > 1 {
		ok = r.agreement(selected, *sets)
	} else {
		for _, w := range selected {
			res, err := r.run(&w, *trace == 1)
			if err != nil {
				fatal(err)
			}
			ok = ok && res.Correct
			line, _ := json.Marshal(res)
			fmt.Printf("%s\n", line)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	os.Exit(1)
}

// runner holds what every run of one invocation shares.
type runner struct {
	root, bin string
	seed      int64
	scale     int64
	seconds   float64
	update    bool
}

// run measures one workload: end to end (three set-ups, then the window) or,
// traced, one set-up, the window, and the in-process replay.
func (r *runner) run(w *workload, traced bool) (*result, error) {
	b := newBench(r.seed, r.scale)
	fmt.Printf("== %s seed %d window %gs trace %v\n", w.name, r.seed, r.seconds, traced)

	var (
		ck     = &checks{}
		dm     *daemon
		dr     *driver
		setupS []float64
	)
	n := setups
	if traced {
		n = 1
	}
	for i := 0; i < n; i++ {
		if dm != nil {
			dm.stop()
		}
		start := time.Now()
		var err error
		dm, err = startDaemon(r.bin, filepath.Join(r.root, buildDir, "data-"+w.name),
			filepath.Join(r.root, buildDir, "ocasd-"+w.name+".log"))
		if err != nil {
			return nil, err
		}
		dr = newDriver(dm.base, ck)
		for _, o := range w.setup(b) {
			dr.do(o)
		}
		for _, o := range w.cycle(b, 0) {
			dr.do(o)
		}
		dr.checkStats()
		r.checkExpected(b, dr)
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer dm.stop()

	dr.recording = true
	start := time.Now()
	deadline := start.Add(time.Duration(r.seconds * float64(time.Second)))
	cycles := 0
window:
	for i := 1; ; i++ {
		for _, o := range w.cycle(b, i) {
			if !time.Now().Before(deadline) {
				break window
			}
			dr.do(o)
		}
		cycles++
	}
	dr.elapsed = time.Since(start).Seconds()
	dr.recording = false
	var daemonSpans map[string]map[string][]float64
	if traced {
		daemonSpans = dr.handlerSpans()
	}
	stats := dr.checkStats()
	rss, err := dm.rssMiB()
	if err != nil {
		return nil, err
	}

	res := &result{}
	opMS := geomean(printRows(dr))
	fmt.Printf("   %d cycles, %d ops, %.2f ops/s, %.3f Mrows/s, plan cache evictions %d, guard rejects %d\n",
		cycles, dr.ops, float64(dr.ops)/dr.elapsed, float64(dr.rows)/dr.elapsed/1e6,
		stats.Cache.Evictions, stats.GuardRejects)
	if traced {
		dm.stop() // the replay has the box to itself
		layer := map[string]float64{}
		var p *replayer
		if p, err = r.replay(w, b, layer); err != nil {
			return nil, err
		}
		p.layerMetrics(layer, dr, daemonSpans)
		if err = p.writeTraces(w.name); err != nil {
			return nil, err
		}
		res.Metrics, err = report(perLayer, layer)
	} else {
		res.Metrics, err = report(endToEnd, map[string]float64{
			"setup_s": median(setupS),
			"op_ms":   opMS,
			"rss_mb":  rss,
		})
	}
	if err != nil {
		return nil, err
	}
	for _, name := range slices.Sorted(maps.Keys(res.Metrics)) {
		fmt.Printf("   %-28s %14.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}

	res.Attempted, res.Failed, res.Correct = ck.attempted, ck.failed, ck.failed == 0
	for _, f := range ck.failures {
		fmt.Fprintf(os.Stderr, "benchmark: %s: FAILED %s\n", w.name, f)
	}
	return res, nil
}

// printRows prints every entry's fast (p05), median and maximum latency and
// its sample count, and returns the fast latencies of the headline entries.
func printRows(dr *driver) []float64 {
	var headline []float64
	for _, name := range slices.Sorted(maps.Keys(dr.samples)) {
		s := dr.samples[name]
		sort.Float64s(s)
		mark := " "
		if dr.headline[name] {
			mark = "*"
			headline = append(headline, fast(s))
		}
		line := fmt.Sprintf("   %s %-12s p05 %10.4f  median %10.4f  max %10.4f ms  n %d",
			mark, name, fast(s), median(s), s[len(s)-1], len(s))
		// The highest percentile with at least ten samples beyond it.
		if len(s) >= 1000 {
			line += fmt.Sprintf("  p99 %10.4f ms", s[len(s)*99/100])
		}
		fmt.Println(line)
	}
	return headline
}
