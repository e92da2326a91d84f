package plan

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ocas/internal/exec"
)

// explainJSON marshals a normalized (wall-time-zeroed) explain tree; the
// determinism contract is byte-identity of this form.
func explainJSON(t *testing.T, op *exec.ExplainNode) string {
	t.Helper()
	op.Normalize()
	data, err := json.Marshal(op)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestExplainDeterministicAcrossWorkers is the EXPLAIN ANALYZE determinism
// contract: for every examples/ corpus request, the explain tree — rows,
// batches, simulated seconds, event counts, estimates and drift ratios —
// must be byte-identical at exec workers {1, 4} once wall time (the one
// real-time field) is zeroed. It also checks that instrumentation does not
// perturb the execution itself: digest, ledgers and clock match an
// uninstrumented run.
func TestExplainDeterministicAcrossWorkers(t *testing.T) {
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

			plain, err := ExecutePlan(context.Background(), c, p, ExecOptions{Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			if plain.Explain != nil {
				t.Fatal("explain tree attached without ExecOptions.Explain")
			}

			var base string
			for _, workers := range []int{1, 4} {
				rep, err := ExecutePlan(context.Background(), c, p,
					ExecOptions{Seed: 3, ExecWorkers: workers, Explain: true})
				if err != nil {
					t.Fatalf("execute (workers %d): %v", workers, err)
				}
				if rep.Explain == nil {
					t.Fatalf("workers %d: no explain tree", workers)
				}
				if rep.OutDigest != plain.OutDigest || rep.OutRows != plain.OutRows {
					t.Errorf("workers %d: instrumented run changed the output: %s/%d vs %s/%d",
						workers, rep.OutDigest, rep.OutRows, plain.OutDigest, plain.OutRows)
				}
				for dev, led := range plain.Devices {
					if rep.Devices[dev] != led {
						t.Errorf("workers %d: instrumented run changed device %s: %+v vs %+v",
							workers, dev, rep.Devices[dev], led)
					}
				}
				if rep.Explain.Rows == 0 && rep.OutRows > 0 && rep.Result == "" {
					t.Errorf("workers %d: root operator recorded no rows (output had %d)", workers, rep.OutRows)
				}
				js := explainJSON(t, rep.Explain)
				if workers == 1 {
					base = js
					continue
				}
				if js != base {
					t.Errorf("workers %d: explain tree differs from single-worker:\n%s\nvs\n%s",
						workers, js, base)
				}
			}
		})
	}
}

// TestExplainEstimates: on a costable plan the root node must carry a
// nonzero estimate and a finite drift ratio, and rendering must mention
// both sides.
func TestExplainEstimates(t *testing.T) {
	req := Request{
		Program: "for (x <- R) for (y <- S) if x.1 == y.1 then [<x, y>] else []",
		Inputs: map[string]Input{
			"R": {Node: "hdd", Rows: 2048},
			"S": {Node: "hdd", Rows: 4096},
		},
		RAM:   64 << 10,
		Depth: 3, Space: 500,
	}
	c, err := Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ExecutePlan(context.Background(), c, p, ExecOptions{Seed: 1, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	root := rep.Explain
	if root == nil {
		t.Fatal("no explain tree")
	}
	if !root.EstValid || root.EstSeconds <= 0 {
		t.Errorf("root estimate missing: %+v", root)
	}
	if root.SimSeconds <= 0 {
		t.Errorf("root simulated seconds not recorded: %+v", root)
	}
	if root.DriftSeconds <= 0 {
		t.Errorf("root drift not computed: est=%v act=%v drift=%v",
			root.EstSeconds, root.SimSeconds, root.DriftSeconds)
	}
	out := root.Render()
	if out == "" {
		t.Fatal("empty rendering")
	}
	for _, want := range []string{"rows=", "est=", "drift="} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering lacks %q:\n%s", want, out)
		}
	}
}

// TestExplainEstimatesSingleInputMerge pins the 1-tuple round trip: a
// single-input unfoldR winner (the streaming group-by) prints its tuple
// argument as a bare parenthesized list, and ExecutePlan re-parses the
// program before running it — the estimator must still cost the merged
// root, or every cached group-by/sort plan silently loses its estimates.
func TestExplainEstimatesSingleInputMerge(t *testing.T) {
	src, err := os.ReadFile("../../examples/groupby/query.ocal")
	if err != nil {
		t.Fatal(err)
	}
	commut := false
	req := Request{
		Program:     string(src),
		Inputs:      map[string]Input{"R": {Node: "hdd", Rows: 8192}},
		Output:      "hdd",
		Hier:        "hdd-ram",
		RAM:         8 << 20,
		Depth:       5,
		Space:       2000,
		Commutative: &commut,
	}
	c, err := Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ExecutePlan(context.Background(), c, p, ExecOptions{Seed: 1, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	root := rep.Explain
	if root == nil {
		t.Fatal("no explain tree")
	}
	if root.Kind != "sink" || len(root.Children) != 1 || root.Children[0].Kind != "unfold-merge" {
		t.Fatalf("expected an unfold-merge under the sink, got %s", root.Render())
	}
	if merge := root.Children[0]; !merge.EstValid || merge.EstSeconds <= 0 || merge.DriftSeconds <= 0 {
		t.Errorf("re-parsed single-input merge lost its estimate: %+v", merge)
	}
}
