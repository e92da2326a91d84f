package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"ocas/internal/exec"
	"ocas/internal/memory"
	"ocas/internal/ocal"
	"ocas/internal/plan"
	"ocas/internal/storage"
)

// benchmarkPrograms are the programs of benchmark/corpus.go (copied: the
// benchmark is its own module): its twelve synthesis requests and nine
// executed queries are these eight over different sizes and hierarchies.
var benchmarkPrograms = map[string]string{
	"join":    "for (x <- R) for (y <- S) if x.1 == y.1 then [<x, y>] else []",
	"product": "for (x <- R) for (y <- S) [<x, y>]",
	"merge":   "unfoldR(mrg)(L1, L2)",
	"zip":     "unfoldR(z[2])(C1, C2)",
	"agg":     "foldL(0, \\<a, x> -> (a + x.2))(R)",
	"filter":  "for (x <- R) if x.2 < 13107 then [<x.1, x.2 + 1>] else []",
	"dedup": "unfoldR(\\<seen, rest> -> if length(rest) == 0 then <[], <[], []>> " +
		"else if length(seen) == 0 then <[head(rest)], <[head(rest)], tail(rest)>> " +
		"else if head(seen) == head(rest) then <[], <seen, tail(rest)>> " +
		"else <[head(rest)], <[head(rest)], tail(rest)>>)([], L)",
	"groupby": "unfoldR(\\g ->\n" +
		"  if length(tail(g.1)) == 0 then <[head(g.1)], <[]>>\n" +
		"  else if head(g.1).1 == head(tail(g.1)).1\n" +
		"  then <[], <[<head(g.1).1, head(g.1).2 + head(tail(g.1)).2>] ++ tail(tail(g.1))>>\n" +
		"  else <[head(g.1)], <tail(g.1)>>)(<R>)",
}

// TestShippedCorpusNeedsNoInterpStep lowers every program the repository
// ships — the examples' request.json, the Table 1 specifications, the
// benchmark corpus. A scan body, fold or unfoldR step outside the kernel
// grammars is a lowering error, so each one lowering is each one running on
// the kernels alone. The rules only ever add block sizes around a body or
// step, so the specifications stand for their synthesized plans (which
// TestTable1Smoke and plan's TestAccountingGolden lower and run as well).
func TestShippedCorpusNeedsNoInterpStep(t *testing.T) {
	lower := func(t *testing.T, prog ocal.Expr, arities map[string]int) {
		t.Helper()
		sim := storage.NewSim(memory.HDDRAM(memory.MiB))
		dev, err := sim.Device("hdd")
		if err != nil {
			t.Fatal(err)
		}
		inputs := map[string]*exec.Table{}
		for name, arity := range arities {
			if inputs[name], err = exec.NewTable(dev, arity, 8); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := exec.Lower(prog, exec.LowerOpts{Sim: sim, Inputs: inputs, Scratch: dev,
			Sink: &exec.Sink{Sim: sim}, RAMBytes: memory.MiB}); err != nil {
			t.Errorf("%s: %v", ocal.String(prog), err)
		}
	}
	request := func(t *testing.T, req plan.Request) {
		t.Helper()
		c, err := plan.Compile(req)
		if err != nil {
			t.Fatal(err)
		}
		arities := map[string]int{}
		for name, in := range c.Req.Inputs {
			arities[name] = in.Arity
		}
		lower(t, c.Prog, arities)
	}

	paths, err := filepath.Glob("../../examples/*/request.json")
	if err != nil || len(paths) < 6 {
		t.Fatalf("examples: %v, %v", paths, err)
	}
	for _, path := range paths {
		t.Run(filepath.Base(filepath.Dir(path)), func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var req plan.Request
			if err := json.Unmarshal(data, &req); err != nil {
				t.Fatal(err)
			}
			request(t, req)
		})
	}
	for name, src := range benchmarkPrograms {
		t.Run("benchmark-"+name, func(t *testing.T) {
			prog, err := ocal.ParseFile(src)
			if err != nil {
				t.Fatal(err)
			}
			inputs := map[string]plan.Input{}
			for in := range ocal.FreeVars(prog) {
				inputs[in] = plan.Input{Node: "hdd", Rows: 64, Arity: 2}
				if in[0] == 'L' || in[0] == 'C' { // the merge, zip and dedup lists
					inputs[in] = plan.Input{Node: "hdd", Rows: 64, Arity: 1}
				}
			}
			request(t, plan.Request{Program: src, Inputs: inputs})
		})
	}
	exps := Table1(Config{Shrink: 8})
	if len(exps) != 16 {
		t.Fatalf("table 1: %d rows", len(exps))
	}
	for _, e := range exps {
		t.Run("table1-"+e.Name, func(t *testing.T) {
			arities := map[string]int{}
			for _, in := range e.Spec.Inputs {
				arities[in.Name] = in.Arity
			}
			prog := e.Spec.Prog
			// The insertion sort folds a merge over lists, not a step over
			// rows: it only ever runs as the treeFold fldL-to-trfld makes of
			// it (TestTable1Smoke checks the synthesized plan is one).
			if app, ok := prog.(ocal.App); ok {
				if fl, ok := app.Fn.(ocal.FoldL); ok {
					if _, merges := fl.Fn.(ocal.UnfoldR); merges {
						prog = ocal.App{Fn: ocal.TreeFold{K: ocal.Lit(2), Init: fl.Init, Fn: fl.Fn}, Arg: app.Arg}
					}
				}
			}
			lower(t, prog, arities)
		})
	}
}
