package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// metric declares one reported number. BENCHMARK.json repeats name, unit,
// better and bound (it is what the driver reads); bench_test.go holds the two
// lists to each other.
type metric struct {
	Name, Unit, Better string
	// Bound is how much worse the median of a set of runs may be before it
	// counts as a regression (end-to-end metrics only).
	Bound float64
	// Moves names the end-to-end metric and workload a per-layer metric
	// should move, as "metric@workload".
	Moves string
	// Exact marks a count that repeats exactly for one seed: only a plan,
	// optimizer, charge-model or format change may move it.
	Exact bool
}

// endToEnd are the numbers a client of the daemon sees. Each is reported by
// every workload; what op_ms is about is the workload's op kind (README.md
// maps it to ISSUE 11's terms). Throughput is not among them: with one
// closed-loop client it is the reciprocal of latency by construction, and its
// run-to-run spread on this sandbox was up to twice op_ms's, so it is reported
// ungated as service.ops_s and service.mrows_s.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "rss_mb", Unit: "MiB", Better: "lower", Bound: 0.20},
}

// perLayer are the traced replay's numbers, one layer (package) each. A
// layer a workload does not enter reports 0.
var perLayer = []metric{
	{Name: "ocal.parse_us", Unit: "us", Better: "lower", Moves: "op_ms@synth_hit"},
	{Name: "plan.compile_us", Unit: "us", Better: "lower", Moves: "op_ms@synth_hit"},
	{Name: "plan.encode_us", Unit: "us", Better: "lower", Moves: "op_ms@synth_hit"},
	{Name: "plan.instantiate_ms", Unit: "ms", Better: "lower", Moves: "op_ms@synth_template"},
	{Name: "plan.inputgen_ms", Unit: "ms", Better: "lower", Moves: "op_ms@exec_generated"},
	{Name: "plan.execute_ms", Unit: "ms", Better: "lower", Moves: "op_ms@exec_durable"},
	{Name: "plan.report_ms", Unit: "ms", Better: "lower", Moves: "op_ms@exec_durable"},
	{Name: "plancache.resolve_us", Unit: "us", Better: "lower", Moves: "op_ms@synth_hit"},
	{Name: "plancache.hits", Unit: "count", Better: "higher", Moves: "op_ms@synth_hit", Exact: true},
	{Name: "plancache.misses", Unit: "count", Better: "lower", Moves: "op_ms@synth_cold", Exact: true},
	{Name: "plancache.instantiations", Unit: "count", Better: "higher", Moves: "op_ms@synth_template", Exact: true},
	{Name: "plancache.guard_rejects", Unit: "count", Better: "lower", Moves: "op_ms@synth_template", Exact: true},
	{Name: "plancache.evictions", Unit: "count", Better: "lower", Moves: "op_ms@synth_template", Exact: true},
	{Name: "core.capture_ms", Unit: "ms", Better: "lower", Moves: "op_ms@synth_cold"},
	{Name: "core.synth_ms", Unit: "ms", Better: "lower", Moves: "op_ms@synth_cold"},
	{Name: "core.self_ms", Unit: "ms", Better: "lower", Moves: "op_ms@synth_cold"},
	{Name: "rules.search_ms", Unit: "ms", Better: "lower", Moves: "op_ms@synth_cold"},
	{Name: "rules.space_size", Unit: "count", Better: "lower", Moves: "op_ms@synth_cold", Exact: true},
	// The alpha-key cache is shared by the search's two workers, who race
	// for the first computation of a key: hits and misses do not repeat.
	{Name: "rules.alpha_hits", Unit: "count", Better: "higher", Moves: "op_ms@synth_cold"},
	{Name: "rules.alpha_misses", Unit: "count", Better: "lower", Moves: "op_ms@synth_cold"},
	{Name: "rules.interned_nodes", Unit: "count", Better: "lower", Moves: "op_ms@synth_cold", Exact: true},
	{Name: "cost.screen_ms", Unit: "ms", Better: "lower", Moves: "op_ms@synth_cold"},
	{Name: "cost.costed", Unit: "count", Better: "lower", Moves: "op_ms@synth_cold", Exact: true},
	{Name: "cost.model_err", Unit: "ratio", Better: "lower", Moves: "op_ms@exec_durable", Exact: true},
	{Name: "opt.optimize_ms", Unit: "ms", Better: "lower", Moves: "op_ms@synth_cold"},
	{Name: "opt.shortlist", Unit: "count", Better: "lower", Moves: "op_ms@synth_cold", Exact: true},
	{Name: "codegen.generate_us", Unit: "us", Better: "lower", Moves: "op_ms@synth_template"},
	{Name: "exec.lower_us", Unit: "us", Better: "lower", Moves: "op_ms@exec_durable"},
	{Name: "exec.run_ms", Unit: "ms", Better: "lower", Moves: "op_ms@exec_durable"},
	{Name: "exec.mrows_s", Unit: "Mrows/s", Better: "higher", Moves: "op_ms@exec_durable"},
	{Name: "exec.out_rows", Unit: "count", Better: "lower", Moves: "op_ms@exec_durable", Exact: true},
	{Name: "exec.replay_ratio", Unit: "ratio", Better: "lower", Moves: "op_ms@exec_durable"},
	{Name: "storage.pool_pins", Unit: "count", Better: "lower", Moves: "op_ms@exec_durable", Exact: true},
	{Name: "storage.pool_shrinks", Unit: "count", Better: "lower", Moves: "op_ms@exec_durable", Exact: true},
	{Name: "storage.pool_evictions", Unit: "count", Better: "lower", Moves: "op_ms@exec_durable", Exact: true},
	{Name: "storage.pool_peak_bytes", Unit: "B", Better: "lower", Moves: "rss_mb@exec_durable", Exact: true},
	{Name: "storage.spills", Unit: "count", Better: "lower", Moves: "op_ms@exec_durable", Exact: true},
	{Name: "storage.spill_bytes", Unit: "B", Better: "lower", Moves: "op_ms@exec_durable", Exact: true},
	{Name: "storage.read_inits", Unit: "count", Better: "lower", Moves: "op_ms@exec_durable", Exact: true},
	{Name: "storage.write_inits", Unit: "count", Better: "lower", Moves: "op_ms@exec_durable", Exact: true},
	{Name: "storage.bytes_read", Unit: "B", Better: "lower", Moves: "op_ms@exec_durable", Exact: true},
	{Name: "storage.bytes_written", Unit: "B", Better: "lower", Moves: "op_ms@exec_durable", Exact: true},
	{Name: "storage.virtual_s", Unit: "s", Better: "lower", Moves: "op_ms@exec_durable", Exact: true},
	{Name: "storage.segment_write_ms", Unit: "ms", Better: "lower", Moves: "op_ms@ingest"},
	{Name: "storage.segment_read_ms", Unit: "ms", Better: "lower", Moves: "op_ms@exec_durable"},
	{Name: "catalog.append_ms", Unit: "ms", Better: "lower", Moves: "op_ms@ingest"},
	{Name: "catalog.open_us", Unit: "us", Better: "lower", Moves: "op_ms@exec_durable"},
	{Name: "catalog.flushes", Unit: "count", Better: "lower", Moves: "op_ms@ingest", Exact: true},
	{Name: "catalog.segments", Unit: "count", Better: "lower", Moves: "op_ms@exec_durable", Exact: true},
	{Name: "catalog.manifest_bytes", Unit: "B", Better: "lower", Moves: "op_ms@ingest", Exact: true},
	{Name: "catalog.space_amp", Unit: "ratio", Better: "lower", Moves: "op_ms@ingest", Exact: true},
	{Name: "service.self_ms", Unit: "ms", Better: "lower", Moves: "op_ms@synth_hit"},
	{Name: "service.decode_csv_ms", Unit: "ms", Better: "lower", Moves: "op_ms@ingest"},
	{Name: "service.decode_json_ms", Unit: "ms", Better: "lower", Moves: "op_ms@ingest"},
	{Name: "service.handler_ms", Unit: "ms", Better: "lower", Moves: "op_ms@synth_hit"},
	{Name: "service.p99_ms", Unit: "ms", Better: "lower", Moves: "op_ms@synth_hit"},
	{Name: "service.ops_s", Unit: "1/s", Better: "higher", Moves: "op_ms@synth_hit"},
	{Name: "service.mrows_s", Unit: "Mrows/s", Better: "higher", Moves: "op_ms@exec_durable"},
	{Name: "obs.span_ns", Unit: "ns", Better: "lower", Moves: "op_ms@synth_hit"},
}

// report pairs the values a run computed with their declarations. A declared
// metric the run did not compute is 0 (the workload does not enter that
// layer); a computed metric that is not declared is a bug.
func report(decl []metric, values map[string]float64) (map[string]metricValue, error) {
	out := map[string]metricValue{}
	for _, m := range decl {
		out[m.Name] = metricValue{values[m.Name], m.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s was computed and is not declared", name)
		}
	}
	return out, nil
}

// median of a sample (0 when empty); s need not be sorted.
func median(s []float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	if n := len(c); n%2 == 1 {
		return c[n/2]
	} else {
		return (c[n/2-1] + c[n/2]) / 2
	}
}

// fast is the 5th percentile of a sorted sample: the latency of the requests
// the host left alone. This sandbox slows everything down by up to a quarter
// for seconds at a time (a pure ALU loop shows it), which moved an entry's
// median between ten runs by up to 14% (interquartile range over median) and
// its 5th percentile by at most 6%; the rows print both.
func fast(sorted []float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[len(sorted)/20]
}

// geomean of the positive values of s (0 when there are none), so no single
// row can dominate a headline the way one Table 1 row is 97% of
// BENCH_baseline.json's totalExecSecs.
func geomean(s []float64) float64 {
	var sum float64
	n := 0
	for _, v := range s {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// expectedFile pins, for seed 1 at the default scale, every exec entry's
// full-scale output: rows and bag digest, which depend on the query and its
// inputs and never on the plan. exec_durable and exec_generated share the
// entries they have in common, as the determinism contract says they must.
const expectedFile = "expected.json"

type expectedReply struct {
	OutRows   int64  `json:"outRows"`
	OutDigest string `json:"outDigest"`
}

// checkExpected compares the first full-scale reply of each exec entry with
// expected.json (or, with --update, writes them into the file).
func (r *runner) checkExpected(b *bench, dr *driver) {
	if b.seed != 1 || b.scale != defaultScale || len(dr.first) == 0 {
		return
	}
	exp := map[string]expectedReply{}
	if raw, err := os.ReadFile(expectedFile); err == nil {
		if err := json.Unmarshal(raw, &exp); err != nil {
			dr.check(false, "%s: %v", expectedFile, err)
			return
		}
	}
	if r.update {
		for entry, rep := range dr.first {
			exp[entry] = expectedReply{rep.OutRows, rep.OutDigest}
		}
		raw, _ := json.MarshalIndent(exp, "", "  ")
		if err := os.WriteFile(expectedFile, append(raw, '\n'), 0o644); err != nil {
			dr.check(false, "%s: %v", expectedFile, err)
		}
		return
	}
	for entry, rep := range dr.first {
		dr.check(exp[entry] == expectedReply{rep.OutRows, rep.OutDigest},
			"%s: %d rows, digest %s; %s has %d rows, digest %s", entry,
			rep.OutRows, rep.OutDigest, expectedFile, exp[entry].OutRows, exp[entry].OutDigest)
	}
}

// agreement runs every selected workload sets times, untraced and traced,
// and compares the sets: a timing may differ from the first set by its bound,
// an exact count not at all.
func (r *runner) agreement(selected []workload, sets int) bool {
	ok := true
	for _, w := range selected {
		var e2e, layer []map[string]metricValue
		for s := 0; s < sets; s++ {
			for _, traced := range []bool{false, true} {
				res, err := r.run(&w, traced)
				if err != nil {
					fatal(err)
				}
				ok = ok && res.Correct
				if traced {
					layer = append(layer, res.Metrics)
				} else {
					e2e = append(e2e, res.Metrics)
				}
			}
		}
		fmt.Printf("== %s: agreement of %d sets\n", w.name, sets)
		for s := 1; s < sets; s++ {
			for _, m := range endToEnd {
				a, b := e2e[0][m.Name].Value, e2e[s][m.Name].Value
				diff := math.Abs(b-a) / a
				verdict := "ok"
				if diff > m.Bound {
					verdict, ok = "DISAGREE", false
				}
				fmt.Printf("   %-28s %12.6g %12.6g %-6s diff %5.1f%% bound %3.0f%% %s\n",
					m.Name, a, b, m.Unit, 100*diff, 100*m.Bound, verdict)
			}
			for _, m := range perLayer {
				a, b := layer[0][m.Name].Value, layer[s][m.Name].Value
				if m.Exact && a != b {
					ok = false
					fmt.Printf("   %-28s %12.6g %12.6g %-6s exact DISAGREE\n", m.Name, a, b, m.Unit)
				}
			}
		}
	}
	return ok
}
