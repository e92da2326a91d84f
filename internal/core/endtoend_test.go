package core

import (
	"testing"

	"ocas/internal/exec"
	"ocas/internal/interp"
	"ocas/internal/memory"
	"ocas/internal/ocal"
	"ocas/internal/storage"
	"ocas/internal/workload"
)

// TestSynthesizedJoinExecutesLikeSpec is the strongest end-to-end property:
// the synthesized program, lowered to a physical plan and executed on the
// storage simulator, must produce the same bag of tuples as the naive
// specification evaluated by the reference interpreter.
func TestSynthesizedJoinExecutesLikeSpec(t *testing.T) {
	h := memory.HDDRAM(4 * memory.KiB)
	spec := JoinSpec(true)
	rRows, sRows := int64(300), int64(120)
	s := &Synthesizer{H: h, MaxDepth: 6, MaxSpace: 2000}
	res, err := s.Synthesize(Task{
		Spec:      spec,
		InputLoc:  map[string]string{"R": "hdd", "S": "hdd"},
		InputRows: map[string]int64{"R": rRows, "S": sRows},
	})
	if err != nil {
		t.Fatal(err)
	}

	rData := workload.UniformPairs(rRows, 16, 1)
	sData := workload.UniformPairs(sRows, 16, 2)

	// Reference semantics via the interpreter on the naive spec.
	toList := func(rows []int32) ocal.List {
		out := make(ocal.List, 0, len(rows)/2)
		for i := 0; i < len(rows); i += 2 {
			out = append(out, ocal.Tuple{ocal.Int(int64(rows[i])), ocal.Int(int64(rows[i+1]))})
		}
		return out
	}
	ref, err := interp.Eval(spec.Prog, map[string]ocal.Value{
		"R": toList(rData), "S": toList(sData)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	refCounts := map[[4]int32]int{}
	for _, v := range ref.(ocal.List) {
		tu := v.(ocal.Tuple)
		x := tu[0].(ocal.Tuple)
		y := tu[1].(ocal.Tuple)
		refCounts[[4]int32{int32(x[0].(ocal.Int)), int32(x[1].(ocal.Int)),
			int32(y[0].(ocal.Int)), int32(y[1].(ocal.Int))}]++
	}

	// Execution of the synthesized program on the simulator.
	sim := storage.NewSim(h)
	sim.DefaultCPU()
	dev, err := sim.Device("hdd")
	if err != nil {
		t.Fatal(err)
	}
	load := func(rows []int32) *exec.Table {
		tb, err := exec.NewTable(dev, 2, int64(len(rows)/2)+4)
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.Preload(rows); err != nil {
			t.Fatal(err)
		}
		return tb
	}
	out, err := exec.NewTable(dev, 4, rRows*sRows+16)
	if err != nil {
		t.Fatal(err)
	}
	sink := &exec.Sink{Out: out, Bout: 64, Sim: sim}
	plan, err := exec.Lower(res.Best.Expr, exec.LowerOpts{
		Sim: sim, Inputs: map[string]*exec.Table{"R": load(rData), "S": load(sData)},
		Params: res.Best.Params, Scratch: dev, Sink: sink, RAMBytes: h.Root.Size,
	})
	if err != nil {
		t.Fatalf("lower %s: %v", ocal.String(res.Best.Expr), err)
	}
	if err := plan.Run(); err != nil {
		t.Fatal(err)
	}

	gotCounts := map[[4]int32]int{}
	cols, n := out.View(0, out.Rows(), nil)
	for i := int64(0); i < n; i++ {
		row := [4]int32{cols[0][i], cols[1][i], cols[2][i], cols[3][i]}
		// The winner may have swapped the relations: normalize so the
		// R-tuple comes first (R payloads are even indices by seed; use
		// key equality so both orders compare equal).
		gotCounts[row]++
	}
	total := 0
	for k, n := range gotCounts {
		sw := [4]int32{k[2], k[3], k[0], k[1]}
		if refCounts[k] != n && refCounts[sw] != n {
			t.Fatalf("row %v count %d not in reference", k, n)
		}
		total += n
	}
	refTotal := 0
	for _, n := range refCounts {
		refTotal += n
	}
	if total != refTotal {
		t.Fatalf("execution produced %d rows, interpreter %d", total, refTotal)
	}
	if sim.Clock.Seconds() <= 0 {
		t.Error("no simulated time charged")
	}
}
