// Hash join: derive the GRACE hash join from the naive join via the
// hash-part rule when RAM is scarce relative to the relations, and execute
// it on the simulator, cross-checking the result against a reference BNL.
package main

import (
	"fmt"
	"log"
	"strings"

	"ocas/internal/core"
	"ocas/internal/exec"
	"ocas/internal/memory"
	"ocas/internal/ocal"
	"ocas/internal/storage"
	"ocas/internal/workload"
)

func main() {
	spec := core.JoinSpec(true)
	h := memory.HDDRAM(2 * memory.MiB)
	rRows, sRows := int64(4<<20), int64(8<<20)

	synth := &core.Synthesizer{H: h, MaxDepth: 6, MaxSpace: 1500}
	res, err := synth.Synthesize(core.Task{
		Spec:      spec,
		InputLoc:  map[string]string{"R": "hdd", "S": "hdd"},
		InputRows: map[string]int64{"R": rRows, "S": sRows},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("specification:", ocal.String(spec.Prog))
	fmt.Println("synthesized:  ", ocal.String(res.Best.Expr))
	fmt.Println("derivation:   ", strings.Join(res.Best.Steps, " -> "))
	fmt.Println("parameters:   ", res.Best.Params)
	fmt.Printf("estimate:      %.4g s (spec: %.4g s)\n\n", res.Best.Seconds, res.SpecSeconds)

	// Execute on generated data.
	sim := storage.NewSim(h)
	sim.DefaultCPU()
	dev, err := sim.Device("hdd")
	if err != nil {
		log.Fatal(err)
	}
	load := func(n int64, seed int64) *exec.Table {
		t, err := exec.NewTable(dev, 2, n+8)
		if err != nil {
			log.Fatal(err)
		}
		if err := t.Preload(workload.UniformPairs(n, rRows*4, seed)); err != nil {
			log.Fatal(err)
		}
		return t
	}
	R, S := load(rRows, 1), load(sRows, 2)
	sink := &exec.Sink{Sim: sim}
	plan, err := exec.Lower(res.Best.Expr, exec.LowerOpts{
		Sim: sim, Inputs: map[string]*exec.Table{"R": R, "S": S},
		Params: res.Best.Params, Scratch: dev, Sink: sink, RAMBytes: h.Root.Size,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := plan.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("executed: %d result tuples in %.4g simulated seconds\n",
		sink.RowsWritten, sim.Clock.Seconds())

	// Cross-check cardinality against a plain blocked BNL on a fresh sim.
	sim2 := storage.NewSim(h)
	dev2, _ := sim2.Device("hdd")
	ld := func(n, seed int64) *exec.Table {
		t, _ := exec.NewTable(dev2, 2, n+8)
		_ = t.Preload(workload.UniformPairs(n, rRows*4, seed))
		return t
	}
	ref := &exec.Sink{Sim: sim2}
	bnl := &exec.BNLJoin{L: exec.TableInput(ld(rRows, 1)), R: exec.TableInput(ld(sRows, 2)),
		K1: 1 << 16, K2: 1 << 16, EquiKeys: &[2]int{0, 0}}
	refProg := exec.NewProgram(bnl, exec.LowerOpts{Sim: sim2, Scratch: dev2, Sink: ref})
	if err := refProg.Run(); err != nil {
		log.Fatal(err)
	}
	if ref.RowsWritten != sink.RowsWritten {
		log.Fatalf("hash join result mismatch: %d vs %d", sink.RowsWritten, ref.RowsWritten)
	}
	fmt.Printf("cross-checked against reference BNL: %d tuples, identical\n", ref.RowsWritten)
}
