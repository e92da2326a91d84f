package exec

import (
	"fmt"
	"runtime"
	"testing"

	"ocas/internal/memory"
	"ocas/internal/ocal"
	"ocas/internal/storage"
)

// graceProg is the GRACE hash join examples/hashjoin synthesizes, and
// graceParams its tuned parameters at 2 MiB of RAM.
const graceProg = "flatMap(\\<p1, p2> -> for (RB1 [k1] <- p1) for (SB4 [k4] <- p2) " +
	"for (x <- RB1) for (y <- SB4) if x.1 == y.1 then [<x, y>] else [])" +
	"(zip[2](partition[s9](R), partition[s9](S)))"

var graceParams = map[string]int64{"k1": 212992, "k4": 1, "s9": 10}

// The footprint bound: a run may allocate footprintFactor times the bytes
// it holds (its inputs plus its spills) and footprintSlack more. A run
// that stores each spilled byte once, in spills sized up front, allocates
// less than one such copy; regrowing spills, per-batch copies and
// per-bucket indexes allocate several.
const (
	footprintFactor = 1.0
	footprintSlack  = 512 << 10
)

// TestGraceFootprint runs the GRACE join at 2^16 ⋈ 2^17 rows on one lane
// and on two, and bounds the host bytes the run allocates by the bytes it
// holds: the input tables and the exchange's spills.
func TestGraceFootprint(t *testing.T) {
	const nR, nS = 1 << 16, 1 << 17
	rows := func(n int) []int32 {
		out := make([]int32, 0, 2*n)
		for i := 0; i < n; i++ {
			// 7919 is odd, so the keys are a permutation of 0..2^16-1,
			// repeated: every S row matches exactly one R row.
			out = append(out, int32(i*7919%nR), int32(i))
		}
		return out
	}
	R, S := rows(nR), rows(nS)
	prog := ocal.MustParse(graceProg)
	for _, lanes := range []int{1, 2} {
		sim := storage.NewSim(memory.HDDRAM(64 * memory.MiB))
		d, err := sim.Device("hdd")
		if err != nil {
			t.Fatal(err)
		}
		inputs := map[string]*Table{
			"R": loadTableSim(sim, "hdd", 2, R),
			"S": loadTableSim(sim, "hdd", 2, S),
		}
		sink := &Sink{Sim: sim, Bout: 8}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		p, err := Lower(prog, LowerOpts{Sim: sim, Inputs: inputs, Params: graceParams,
			Scratch: d, Sink: sink, RAMBytes: 2 << 20, ExecWorkers: lanes})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if sink.RowsWritten != nS {
			t.Fatalf("lanes %d: %d rows joined, want %d", lanes, sink.RowsWritten, nS)
		}
		held := int64(len(R)+len(S))*4 + p.Pool().Stats().SpillBytes
		alloc := int64(after.TotalAlloc - before.TotalAlloc)
		bound := int64(footprintFactor*float64(held)) + footprintSlack
		t.Logf("lanes %d: allocated %d B in %d mallocs; holds %d B; bound %d B",
			lanes, alloc, after.Mallocs-before.Mallocs, held, bound)
		if alloc > bound {
			t.Errorf("lanes %d: the run allocated %d B, over %.1fx the %d B it holds plus %d B",
				lanes, alloc, footprintFactor, held, footprintSlack)
		}
	}
}

// TestGatherRecyclesBatchVectors: a multi-lane Gather copies each batch
// into vectors its consumer lent back, so a run of thousands of batches
// allocates in proportion to the channel's depth and its parts, never to
// its batches: the steady state allocates nothing, as TestStepZeroAllocs
// asks of the step machines.
func TestGatherRecyclesBatchVectors(t *testing.T) {
	const parts, batches = 4, 2500
	for _, workers := range []int{2, 4} {
		name := fmt.Sprintf("workers %d", workers)
		r := newGatherRig(t, parts, workers, false, nil)
		for _, sp := range r.parts {
			sp.batches = batches
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rows, err := r.drain()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r.g.Close()
		runtime.ReadMemStats(&after)
		r.settle(t, name, nil)
		if rows != parts*batches {
			t.Fatalf("%s: %d rows, want %d", name, rows, parts*batches)
		}
		// Every set of vectors is in the channel, in a lane's hands, in
		// the consumer's or on the free list.
		depth := cap(r.g.ch) + r.g.lanes + 1
		allocs := after.Mallocs - before.Mallocs
		if bound := uint64(3*depth + 16*parts); allocs > bound {
			t.Errorf("%s: %d allocations over %d batches, want at most %d (depth %d, %d parts)",
				name, allocs, parts*batches, bound, depth, parts)
		}
	}
}

// TestJoinScratchPerLane: the ten bucket joins of a GRACE join borrow the
// run's probe scratch one at a time per lane, so the run builds no more
// scratch than it has lanes, and each join gives back what it took once.
func TestJoinScratchPerLane(t *testing.T) {
	var R, S []int32
	for i := int32(0); i < 2000; i++ {
		R = append(R, i*7919%1000, i)
		S = append(S, i*104729%1000, i, i%1000, -i)
	}
	prog := ocal.MustParse(graceProg)
	params := map[string]int64{"k1": 64, "k4": 16, "s9": 10}
	for _, workers := range []int{1, 2, 4} {
		sim := newSim(t)
		d, _ := sim.Device("hdd")
		inputs := map[string]*Table{
			"R": loadTableSim(sim, "hdd", 2, R),
			"S": loadTableSim(sim, "hdd", 2, S),
		}
		sink := &Sink{Sim: sim}
		p, err := Lower(prog, LowerOpts{Sim: sim, Inputs: inputs, Params: params,
			Scratch: d, Sink: sink, RAMBytes: 1 << 20, ExecWorkers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Run(); err != nil {
			t.Fatal(err)
		}
		if sink.RowsWritten == 0 {
			t.Fatalf("workers %d: the join produced no rows", workers)
		}
		// Every scratch the run built is back on its free list, once.
		held := p.c.shared.scratch
		seen := map[*joinScratch]bool{}
		for _, js := range held {
			if seen[js] {
				t.Errorf("workers %d: a join scratch was given back twice", workers)
			}
			seen[js] = true
		}
		if lanes := p.Workers(); len(held) < 1 || len(held) > lanes {
			t.Errorf("workers %d: the run built %d join scratches, want 1 to %d", workers, len(held), lanes)
		}
	}
}
