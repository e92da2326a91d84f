package core_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ocas/internal/cost"
	"ocas/internal/obs"
	"ocas/internal/par"
	"ocas/internal/plan"
	sym "ocas/internal/symbolic"
)

// goldenCorpus is the 29 shapes search.golden.json pins — the six examples,
// the seven searched benchmark shapes and Table 1 at shrink 8 — and the
// benchmark's five search-free shapes, which plans.golden.json also pins
// (copied from benchmark/corpus.go, which a product package may not import).
func goldenCorpus(t *testing.T) []minimizeCase {
	t.Helper()
	paths, err := filepath.Glob("../../examples/*/request.json")
	if err != nil || len(paths) != 6 {
		t.Fatalf("want 6 example requests, found %d (%v)", len(paths), err)
	}
	var reqs []plan.Request
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var req plan.Request
		if err := json.Unmarshal(data, &req); err != nil {
			t.Fatal(err)
		}
		req.Description = "example-" + filepath.Base(filepath.Dir(p))
		reqs = append(reqs, req)
	}
	const (
		dedup = "unfoldR(\\<seen, rest> -> if length(rest) == 0 then <[], <[], []>> " +
			"else if length(seen) == 0 then <[head(rest)], <[head(rest)], tail(rest)>> " +
			"else if head(seen) == head(rest) then <[], <seen, tail(rest)>> " +
			"else <[head(rest)], <[head(rest)], tail(rest)>>)([], L)"
		n = 1 << 20
	)
	no := false
	pairs := plan.Input{Node: "hdd", Rows: n, Arity: 2}
	ints := plan.Input{Node: "hdd", Rows: n, Arity: 1}
	reqs = append(reqs,
		plan.Request{Description: "merge", Program: "unfoldR(mrg)(L1, L2)", Hier: "two-hdd", RAM: 1 << 20,
			Inputs: map[string]plan.Input{"L1": ints, "L2": ints}, Output: "hdd2", Commutative: &no, Depth: 6, Space: 1500},
		plan.Request{Description: "agg", Program: "foldL(0, \\<a, x> -> (a + x.2))(R)", Hier: "hdd-ram", RAM: 8 << 20,
			Inputs: map[string]plan.Input{"R": pairs}, Depth: 4, Space: 500},
		plan.Request{Description: "dedup", Program: dedup, Hier: "two-hdd", RAM: 1 << 20,
			Inputs: map[string]plan.Input{"L": ints}, Output: "hdd2", Depth: 3, Space: 300},
		plan.Request{Description: "zip", Program: "unfoldR(z[2])(C1, C2)", Hier: "hdd-ram", RAM: 4 << 20,
			Inputs: map[string]plan.Input{"C1": ints, "C2": ints}, Commutative: &no, Depth: 2, Space: 200},
		plan.Request{Description: "filter", Program: "for (x <- R) if x.2 < 104857 then [<x.1, x.2 + 1>] else []",
			Hier: "hdd-ram", RAM: 8 << 20, Inputs: map[string]plan.Input{"R": pairs}, Depth: 4, Space: 500},
	)
	var cases []minimizeCase
	for _, req := range reqs {
		c, err := plan.Compile(req)
		if err != nil {
			t.Fatalf("%s: %v", req.Description, err)
		}
		cases = append(cases, minimizeCase{req.Description, c.Synth, c.Task})
	}
	return append(cases, minimizeCases(t)...)
}

// costRecord is everything of a cost.Result the synthesizer and the plan
// layer read, as strings.
type costRecord struct {
	Err, Seconds, Size, Events string
	Params                     []string
	Constraints                [][3]string
}

func recordCost(res *cost.Result, err error) costRecord {
	if err != nil {
		return costRecord{Err: err.Error()}
	}
	r := costRecord{Seconds: res.Seconds.String(), Size: res.Size.String(),
		Events: res.Events.String(), Params: res.Params}
	for _, c := range res.Constraints {
		r.Constraints = append(r.Constraints, [3]string{c.LHS.String(), c.RHS.String(), c.Why})
	}
	return r
}

// compiledBits evaluates a result's objective and constraint sides, compiled
// together as the optimizer compiles them, at three parameter points under
// the task's cardinalities.
func compiledBits(res *cost.Result, fixed sym.Env) []uint64 {
	exprs := []sym.Expr{res.Seconds}
	for _, c := range res.Constraints {
		exprs = append(exprs, c.LHS, c.RHS)
	}
	p := sym.Compile(exprs, res.Params)
	for name, v := range fixed {
		if s, ok := p.Slot(name); ok {
			p.Set(s, v)
		}
	}
	p.Bind()
	var bits []uint64
	point := make([]int64, len(res.Params))
	for _, at := range []func(i int) int64{
		func(int) int64 { return 1 },
		func(int) int64 { return 4096 },
		func(i int) int64 { return int64(37*i + 5) },
	} {
		for i := range point {
			point[i] = at(i)
		}
		p.SetPoint(point)
		for i := range exprs {
			bits = append(bits, math.Float64bits(p.Eval(i)))
		}
	}
	return bits
}

// TestEstimatorMatchesEstimate is the soundness proof of the estimator's
// symbolic Builders over the golden corpus: every member of every space,
// costed through one shared Estimator at one worker and at eight, gives
// exactly what a fresh one-shot cost.Estimate gives — formula strings,
// parameters, constraints, annotated size, event tallies, and the bits of
// the compiled objective and constraints at three points. The Estimator's
// distinct formula nodes do not depend on the worker count either.
func TestEstimatorMatchesEstimate(t *testing.T) {
	members := 0
	for _, c := range goldenCorpus(t) {
		space := c.synth.SearchSpace(c.task)
		place := c.synth.TaskPlacement(c.task)
		fixed := c.synth.TaskEnv(c.task)
		want := make([]costRecord, len(space))
		wantBits := make([][]uint64, len(space))
		for i, d := range space {
			res, err := cost.Estimate(c.synth.H, place, d.Expr)
			want[i] = recordCost(res, err)
			if err == nil {
				wantBits[i] = compiledBits(res, fixed)
			}
		}
		var nodes []int
		for _, workers := range []int{1, 8} {
			est := cost.NewEstimator(c.synth.H, place)
			got := make([]costRecord, len(space))
			gotBits := make([][]uint64, len(space))
			par.For(workers, len(space), func(i int) {
				res, err := est.Estimate(space[i].Expr)
				got[i] = recordCost(res, err)
				if err == nil {
					gotBits[i] = compiledBits(res, fixed)
				}
			})
			for i := range space {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("%s at %d workers, member %d (%v):\nestimator %+v\nEstimate  %+v",
						c.name, workers, i, space[i].Steps, got[i], want[i])
				}
				if !reflect.DeepEqual(gotBits[i], wantBits[i]) {
					t.Fatalf("%s at %d workers, member %d (%v): compiled bits %x, Estimate's %x",
						c.name, workers, i, space[i].Steps, gotBits[i], wantBits[i])
				}
			}
			nodes = append(nodes, est.Stats().Nodes)
		}
		if nodes[0] != nodes[1] || nodes[0] == 0 {
			t.Errorf("%s: %d formula nodes at 1 worker, %d at 8", c.name, nodes[0], nodes[1])
		}
		members += len(space)
	}
	t.Logf("%d members", members)
}

// TestScreenFormulaNodes reads the synth.screen span's formulaNodes and
// memoHits off a traced synthesis: the distinct formula nodes are the same
// at every worker count, and the memo answers most constructor calls.
func TestScreenFormulaNodes(t *testing.T) {
	for _, c := range minimizeCases(t) {
		if c.name != "bench-bnl" && c.name != "bench-bnl-cache" {
			continue
		}
		var nodes []any
		for _, workers := range []int{1, 2, 8} {
			synth := *c.synth
			synth.Workers = workers
			tr := obs.NewTrace("t")
			ctx := obs.ContextWith(context.Background(), tr.StartSpan("root", nil))
			if _, _, err := synth.SynthesizeCapture(ctx, c.task); err != nil {
				t.Fatal(err)
			}
			var attrs map[string]any
			for _, sp := range tr.Snapshot().Spans {
				if sp.Name == "synth.screen" {
					attrs = sp.Attrs
				}
			}
			if attrs == nil {
				t.Fatalf("%s: no synth.screen span", c.name)
			}
			nodes = append(nodes, attrs["formulaNodes"])
			if workers == 1 {
				hits, _ := attrs["memoHits"].(int)
				if n, _ := attrs["formulaNodes"].(int); n == 0 || hits <= n {
					t.Errorf("%s: %v formula nodes, %v memo hits", c.name, attrs["formulaNodes"], attrs["memoHits"])
				}
			}
		}
		if fmt.Sprint(nodes[0]) != fmt.Sprint(nodes[1]) || fmt.Sprint(nodes[0]) != fmt.Sprint(nodes[2]) {
			t.Errorf("%s: formulaNodes at workers 1, 2, 8: %v", c.name, nodes)
		}
		t.Logf("%s: %v formula nodes", c.name, nodes[0])
	}
}
