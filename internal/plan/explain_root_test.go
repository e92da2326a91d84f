package plan_test

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"

	"ocas/internal/core"
	"ocas/internal/exec"
	"ocas/internal/experiments"
	"ocas/internal/plan"
	"ocas/internal/storage"
)

// TestExplainRootIsTheRun: the sink is the root of every explain tree, and
// its cumulative counters are the run's — its rows the output rows, its
// initiations and bytes the sums over the device ledgers, exactly, and its
// simulated seconds the virtual clock to within rounding. It checks every
// configuration of the accounting golden (whose records TestAccountingGolden
// proves the runs reproduce) and every Table 1 row at shrink 8.
func TestExplainRootIsTheRun(t *testing.T) {
	data, err := os.ReadFile("testdata/accounting.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]plan.ExecReport
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	for key, run := range golden {
		checkRoot(t, key, &run)
	}
	if testing.Short() {
		t.Skip("table 1 is slow")
	}
	rows := experiments.Table1(experiments.Config{Shrink: 8})
	if len(rows) != 16 {
		t.Fatalf("table 1 has %d rows, want 16", len(rows))
	}
	for _, e := range rows {
		syn, err := experiments.Synthesize(e)
		if err != nil {
			t.Fatal(err)
		}
		checkRoot(t, e.Name, explainedRun(t, e, syn))
	}
}

// explainedRun is experiments.Execute with the explain tree on.
func explainedRun(t *testing.T, e experiments.Experiment, syn *core.Synthesis) *plan.ExecReport {
	t.Helper()
	h := e.ExecHier
	if h == nil {
		h = e.Hier
	}
	sim := storage.NewSim(h)
	sim.DefaultCPU()
	inputs := map[string]*exec.Table{}
	for _, in := range e.Spec.Inputs {
		dev, err := sim.Device(e.InputLoc[in.Name])
		if err != nil {
			t.Fatal(err)
		}
		if inputs[in.Name], err = exec.NewTable(dev, in.Arity, 0); err != nil {
			t.Fatal(err)
		}
		if err := inputs[in.Name].Preload(e.Gen[in.Name]()); err != nil {
			t.Fatal(err)
		}
	}
	task := core.Task{Spec: e.Spec, InputLoc: e.InputLoc, InputRows: e.Rows, Output: e.Output}
	rep, err := plan.RunBound(context.Background(), sim, inputs, syn.Best.Expr, syn.Best.Params, task,
		plan.ExecOptions{Explain: true})
	if err != nil {
		t.Fatalf("%s: %v", e.Name, err)
	}
	return rep
}

func checkRoot(t *testing.T, label string, rep *plan.ExecReport) {
	t.Helper()
	root := rep.Explain
	if root == nil || root.Kind != "sink" || len(root.Children) != 1 {
		t.Errorf("%s: the explain root is not a sink over the program: %+v", label, root)
		return
	}
	var sum exec.ExplainNode
	for _, d := range rep.Devices {
		sum.ReadInits += d.ReadInits
		sum.WriteInits += d.WriteInits
		sum.BytesRead += d.BytesRead
		sum.BytesWrite += d.BytesWrite
	}
	if root.Rows != rep.OutRows || root.ReadInits != sum.ReadInits || root.WriteInits != sum.WriteInits ||
		root.BytesRead != sum.BytesRead || root.BytesWrite != sum.BytesWrite {
		t.Errorf("%s: root rows %d, io r:%dB/%d w:%dB/%d; run rows %d, ledgers r:%dB/%d w:%dB/%d", label,
			root.Rows, root.BytesRead, root.ReadInits, root.BytesWrite, root.WriteInits,
			rep.OutRows, sum.BytesRead, sum.ReadInits, sum.BytesWrite, sum.WriteInits)
	}
	if math.Abs(root.SimSeconds-rep.VirtualSeconds) > 1e-9*rep.VirtualSeconds {
		t.Errorf("%s: root sim %v s, virtual clock %v s", label, root.SimSeconds, rep.VirtualSeconds)
	}
}
