package plan

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestExamplesWorkerSweep is the determinism contract of the morsel-driven
// executor at plan level: every examples/ corpus request is synthesized (at
// test scale) and its winning program executed at exec workers {1, 2, 4, 8}.
// The output digest, the output row count and the total per-device ledger
// charges must be identical at every worker count; the virtual clock may
// differ only by float-summation rounding. Run under -race this doubles as
// the concurrency check of the whole lowered-operator repertoire.
func TestExamplesWorkerSweep(t *testing.T) {
	dirs, err := filepath.Glob("../../examples/*/request.json")
	if err != nil || len(dirs) == 0 {
		t.Fatalf("no example requests found: %v", err)
	}
	for _, reqPath := range dirs {
		name := filepath.Base(filepath.Dir(reqPath))
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile(reqPath)
			if err != nil {
				t.Fatal(err)
			}
			var req Request
			if err := json.Unmarshal(data, &req); err != nil {
				t.Fatal(err)
			}
			scaleRequest(&req, 4096)
			c, err := Compile(req)
			if err != nil {
				t.Fatal(err)
			}
			p, err := c.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			var base *ExecReport
			for _, workers := range []int{1, 2, 4, 8} {
				opt := ExecOptions{Seed: 11, ExecWorkers: workers}
				rep, err := ExecutePlan(context.Background(), c, p, opt)
				if err != nil {
					t.Fatalf("execute (workers %d): %v", workers, err)
				}
				if workers == 1 {
					base = rep
					continue
				}
				if rep.OutDigest != base.OutDigest {
					t.Errorf("workers %d: digest %s differs from single-worker %s\nprogram: %s",
						workers, rep.OutDigest, base.OutDigest, p.Program)
				}
				if rep.OutRows != base.OutRows {
					t.Errorf("workers %d: %d rows, single-worker wrote %d", workers, rep.OutRows, base.OutRows)
				}
				for dev, led := range base.Devices {
					if rep.Devices[dev] != led {
						t.Errorf("workers %d: device %s ledger %+v differs from single-worker %+v",
							workers, dev, rep.Devices[dev], led)
					}
				}
				if diff := math.Abs(rep.VirtualSeconds - base.VirtualSeconds); diff > 1e-9*math.Max(1, base.VirtualSeconds) {
					t.Errorf("workers %d: clock %v differs from single-worker %v",
						workers, rep.VirtualSeconds, base.VirtualSeconds)
				}
				if rep.ExecWorkers != workers {
					t.Errorf("report says %d workers, ran %d", rep.ExecWorkers, workers)
				}
			}
		})
	}
}

// TestExecuteWorkersDeterministicReport: two runs at the same multi-worker
// count must produce identical reports for everything the contract covers
// (the service's /execute responses are compared this way in CI).
func TestExecuteWorkersDeterministicReport(t *testing.T) {
	req := Request{
		Program: "flatMap(\\<p1, p2> -> for (xB [k1] <- p1) for (yB [k2] <- p2) " +
			"for (x <- xB) for (y <- yB) if x.1 == y.1 then [<x, y>] else [])" +
			"(zip[2](partition[s](R), partition[s](S)))",
		Inputs: map[string]Input{
			"R": {Node: "hdd", Rows: 4096},
			"S": {Node: "hdd", Rows: 8192},
		},
		RAM:   256 << 10,
		Depth: 2, Space: 200,
	}
	c, err := Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	opt := ExecOptions{Seed: 5, ExecWorkers: 4}
	r1, err := ExecutePlan(context.Background(), c, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ExecutePlan(context.Background(), c, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r1.OutDigest != r2.OutDigest || r1.OutRows != r2.OutRows {
		t.Errorf("same-config runs disagree on output: %s/%d vs %s/%d",
			r1.OutDigest, r1.OutRows, r2.OutDigest, r2.OutRows)
	}
	for dev := range r1.Devices {
		if r1.Devices[dev] != r2.Devices[dev] {
			t.Errorf("same-config runs disagree on device %s: %+v vs %+v",
				dev, r1.Devices[dev], r2.Devices[dev])
		}
	}
}

// TestExecuteLanesFollowGOMAXPROCS: a run that names no lane count takes one
// per core. Under GOMAXPROCS 4 the worker-sweep GRACE join runs on 4 lanes,
// reproduces the golden record of its 4-worker run and matches its 1-lane
// run in digest, rows, device ledgers, pool stats and EXPLAIN tree.
func TestExecuteLanesFollowGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	c, err := Compile(graceJoin(4096, 8192, 256<<10))
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	opt := ExecOptions{Seed: 11, Explain: true}
	rep, err := ExecutePlan(context.Background(), c, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ExecWorkers != 4 {
		t.Fatalf("execWorkers %d under GOMAXPROCS 4, want 4", rep.ExecWorkers)
	}
	got := goldenOf(rep)
	requireSameRun(t, "default lanes", got, readGolden(t)[goldenKey("grace-worker-sweep", 0, 4, "generated")])

	opt.ExecWorkers = 1
	one, err := ExecutePlan(context.Background(), c, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	want := goldenOf(one)
	got.ExecWorkers, got.VirtualSeconds, got.VirtualSecondsBits = 1, want.VirtualSeconds, want.VirtualSecondsBits
	if g, w := mustJSON(t, got), mustJSON(t, want); string(g) != string(w) {
		t.Errorf("default lanes differ from one lane beyond the clock:\n got: %s\nwant: %s", g, w)
	}
}
