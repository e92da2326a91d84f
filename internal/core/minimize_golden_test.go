package core_test

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"ocas/internal/core"
	"ocas/internal/experiments"
	"ocas/internal/plan"
)

const minimizeGoldenPath = "testdata/minimize.golden.json"

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/minimize.golden.json from the current optimizer (only when a tuning change is intended)")

// minimizeCase is one synthesis problem whose shortlist the golden pins.
type minimizeCase struct {
	name  string
	synth *core.Synthesizer
	task  core.Task
}

// minimizeCases are the seven searched shapes the repo benchmark posts
// (copied from benchmark/corpus.go, which a product package may not import)
// and the sixteen Table 1 experiments at shrink 8.
func minimizeCases(t *testing.T) []minimizeCase {
	t.Helper()
	const (
		join    = "for (x <- R) for (y <- S) if x.1 == y.1 then [<x, y>] else []"
		product = "for (x <- R) for (y <- S) [<x, y>]"
	)
	rs := func(r, s int64) map[string]plan.Input {
		return map[string]plan.Input{"R": {Node: "hdd", Rows: r, Arity: 2}, "S": {Node: "hdd", Rows: s, Arity: 2}}
	}
	reqs := []struct {
		name string
		req  plan.Request
	}{
		{"bench-bnl", plan.Request{Program: join, Hier: "hdd-ram", RAM: 8 << 20,
			Inputs: rs(4<<20, 256<<10), Depth: 6, Space: 2000}},
		{"bench-bnl-cache", plan.Request{Program: join, Hier: "hdd-ram-cache", RAM: 8 << 20,
			Inputs: rs(4<<20, 256<<10), Depth: 7, Space: 2500}},
		{"bench-grace", plan.Request{Program: join, Hier: "hdd-ram", RAM: 2 << 20,
			Inputs: rs(4<<20, 8<<20), Depth: 6, Space: 1500}},
		{"bench-write-same", plan.Request{Program: product, Hier: "hdd-ram", RAM: 1 << 20,
			Inputs: rs(1024, 16384), Output: "hdd", Depth: 6, Space: 1200}},
		{"bench-write-other", plan.Request{Program: product, Hier: "two-hdd", RAM: 1 << 20,
			Inputs: rs(1024, 16384), Output: "hdd2", Depth: 6, Space: 1200}},
		{"bench-write-flash", plan.Request{Program: product, Hier: "hdd-flash", RAM: 1 << 20,
			Inputs: rs(1024, 16384), Output: "ssd", Depth: 6, Space: 1500}},
		{"bench-bnl-beam", plan.Request{Program: join, Hier: "hdd-ram", RAM: 8 << 20,
			Inputs: rs(4<<20, 256<<10), Strategy: "beam", Beam: 64, Depth: 6, Space: 2000}},
	}
	var cases []minimizeCase
	for _, r := range reqs {
		c, err := plan.Compile(r.req)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		cases = append(cases, minimizeCase{r.name, c.Synth, c.Task})
	}
	exps := experiments.Table1(experiments.Config{Shrink: 8})
	for _, e := range exps {
		cases = append(cases, minimizeCase{"table1-" + e.Name,
			&core.Synthesizer{H: e.Hier, MaxDepth: e.MaxDepth, MaxSpace: e.MaxSpace, Rules: e.Rules},
			core.Task{Spec: e.Spec, InputLoc: e.InputLoc, InputRows: e.Rows, Output: e.Output}})
	}
	return cases
}

// ladderPoints are the cardinality points a case is tuned at: its own rows,
// every rung of the ladder TestTemplateDifferential walks on all inputs at
// once, and, with two or more inputs, the two far-apart mixed points.
func ladderPoints(own map[string]int64) []map[string]int64 {
	names := make([]string, 0, len(own))
	for n := range own {
		names = append(names, n)
	}
	sort.Strings(names)
	at := func(first, rest int64) map[string]int64 {
		rows := map[string]int64{}
		for i, n := range names {
			rows[n] = rest
			if i == 0 {
				rows[n] = first
			}
		}
		return rows
	}
	points := []map[string]int64{own}
	for _, v := range []int64{1 << 8, 1 << 14, 1 << 19, 1 << 22} {
		points = append(points, at(v, v))
	}
	if len(names) > 1 {
		points = append(points, at(1<<22, 1<<14), at(1<<14, 1<<22))
	}
	return points
}

// formatInts renders named integers in name order: "R=4194304,S=262144".
func formatInts(rows map[string]int64) string {
	names := make([]string, 0, len(rows))
	for n := range rows {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s=%d", n, rows[n])
	}
	return strings.Join(parts, ",")
}

// memberLine renders one tuned shortlist member as
// "b1=4096,k=12|3fb999999999999a": the tuned values in name order and the
// bits of the objective there.
func memberLine(c *core.Candidate) string {
	if c == nil {
		return "infeasible"
	}
	return fmt.Sprintf("%s|%016x", formatInts(c.Params), math.Float64bits(c.Seconds))
}

// TestMinimizeGolden pins what the parameter optimizer returns for every
// shortlist member — not only the winner, which plans.golden.json pins, and
// not only template against cold, which run the same optimizer and cannot
// see a drift common to both. Each case is searched once at its own rows and
// then re-tuned through the replay's formula cache at every ladder point, so
// the compiled formulas are re-bound exactly as a template hit re-binds them.
// The file was captured from the map-driven stack-tape optimizer of PR 21.
func TestMinimizeGolden(t *testing.T) {
	ctx := context.Background()
	got := map[string]map[string][]string{}
	for _, c := range minimizeCases(t) {
		_, replay, err := c.synth.SynthesizeCapture(ctx, c.task)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if replay == nil {
			t.Fatalf("%s: no replay captured", c.name)
		}
		got[c.name] = map[string][]string{}
		for _, rows := range ladderPoints(c.task.InputRows) {
			task := c.task
			task.InputRows = rows
			cands, err := replay.TuneShortlist(ctx, c.synth, task)
			if err != nil {
				t.Fatalf("%s at %s: %v", c.name, formatInts(rows), err)
			}
			lines := make([]string, len(cands))
			for i, cand := range cands {
				lines[i] = memberLine(cand)
			}
			got[c.name][formatInts(rows)] = lines
		}
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(minimizeGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(minimizeGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]map[string][]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("golden has %d cases, the run %d", len(want), len(got))
	}
	for name, points := range want {
		if len(got[name]) != len(points) {
			t.Errorf("%s: golden has %d points, the run %d", name, len(points), len(got[name]))
		}
		for key, lines := range points {
			g := got[name][key]
			if len(g) != len(lines) {
				t.Errorf("%s at %s: shortlist of %d, golden %d", name, key, len(g), len(lines))
				continue
			}
			for i := range lines {
				if g[i] != lines[i] {
					t.Errorf("%s at %s, shortlist member %d: tuned %s, golden %s", name, key, i, g[i], lines[i])
				}
			}
		}
	}
}
