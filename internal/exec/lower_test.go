package exec

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"ocas/internal/memory"
	"ocas/internal/ocal"
	"ocas/internal/storage"
)

func lowerEnv(t *testing.T) (*storage.Sim, *storage.Device, map[string]*Table) {
	t.Helper()
	sim := storage.NewSim(memory.HDDRAM(64 * memory.MiB))
	d, err := sim.Device("hdd")
	if err != nil {
		t.Fatal(err)
	}
	R := loadTableSim(sim, "hdd", 2, []int32{1, 10, 2, 20, 1, 30})
	S := loadTableSim(sim, "hdd", 2, []int32{1, 100, 3, 300})
	return sim, d, map[string]*Table{"R": R, "S": S}
}

func TestLowerBlockedBNL(t *testing.T) {
	sim, d, inputs := lowerEnv(t)
	prog := ocal.MustParse(`for (xB [k1] <- R) for (yB [k2] <- S) for (x <- xB) for (y <- yB) if x.1 == y.1 then [<x, y>] else []`)
	sink := &Sink{Sim: sim}
	p, err := Lower(prog, LowerOpts{Sim: sim, Inputs: inputs,
		Params: map[string]int64{"k1": 2, "k2": 2}, Scratch: d, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	j, ok := p.Root.(*BNLJoin)
	if !ok {
		t.Fatalf("expected BNLJoin, got %T", p.Root)
	}
	if j.K1 != 2 || j.K2 != 2 {
		t.Errorf("block sizes not bound: %d %d", j.K1, j.K2)
	}
	if j.EquiKeys == nil || j.EquiKeys[0] != 0 || j.EquiKeys[1] != 0 {
		t.Errorf("equi keys not recognized: %v", j.EquiKeys)
	}
	if j.L.table == nil || j.R.table == nil {
		t.Error("base-table join sides must stay fused")
	}
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if sink.RowsWritten != 2 {
		t.Errorf("join rows = %d want 2", sink.RowsWritten)
	}
}

// TestLowerOrderInputsWrapper pins that the paper's order-inputs wrapper
// does not lower. The search does not produce it (the planner fixes the
// input order at known cardinalities), so a hand-written plan containing it
// is a lowering error, not a run-time swap.
func TestLowerOrderInputsWrapper(t *testing.T) {
	sim, d, inputs := lowerEnv(t)
	prog := ocal.MustParse(`(\<R1, S1> -> for (xB [k1] <- R1) for (x <- xB) for (yB [k2] <- S1) for (y <- yB) if x.1 == y.1 then [<x, y>] else [])(if length(R) <= length(S) then <R, S> else <S, R>)`)
	_, err := Lower(prog, LowerOpts{Sim: sim, Inputs: inputs,
		Params: map[string]int64{"k1": 4, "k2": 4}, Scratch: d, Sink: &Sink{Sim: sim}})
	if err == nil || !strings.Contains(err.Error(), "exec: cannot lower") {
		t.Fatalf("want a cannot-lower error, got %v", err)
	}
}

func TestLowerHashJoin(t *testing.T) {
	sim, d, inputs := lowerEnv(t)
	prog := ocal.MustParse(`flatMap(\<p1, p2> -> for (xB [k1] <- p1) for (yB [k2] <- p2) for (x <- xB) for (y <- yB) if x.1 == y.1 then [<x, y>] else [])(zip[2](partition[s](R), partition[s](S)))`)
	sink := &Sink{Sim: sim}
	p, err := Lower(prog, LowerOpts{Sim: sim, Inputs: inputs,
		Params:  map[string]int64{"k1": 4, "k2": 4, "s": 4},
		Scratch: d, Sink: sink, RAMBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	h, ok := p.Root.(*HashJoin)
	if !ok {
		t.Fatalf("expected HashJoin, got %T", p.Root)
	}
	if h.Buckets != 4 {
		t.Errorf("buckets = %d want 4", h.Buckets)
	}
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if sink.RowsWritten != 2 {
		t.Errorf("hash join rows = %d want 2", sink.RowsWritten)
	}
}

func TestLowerExtSortThroughIdentityScan(t *testing.T) {
	sim := storage.NewSim(memory.HDDRAM(64 * memory.MiB))
	d, _ := sim.Device("hdd")
	in := loadTableSim(sim, "hdd", 1, []int32{5, 1, 4, 2, 3})
	out, err := NewTable(d, 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	prog := ocal.MustParse(`treeFold[4][bout]([], unfoldR[bin](funcPow[2](mrg)))(for (xB [k1] <- R) [hdd~>ram] xB)`)
	sink := &Sink{Out: out, Bout: 2, Sim: sim}
	p, err := Lower(prog, LowerOpts{Sim: sim, Inputs: map[string]*Table{"R": in},
		Params: map[string]int64{"bin": 2, "bout": 2, "k1": 2}, Scratch: d, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	srt, ok := p.Root.(*ExtSort)
	if !ok {
		t.Fatalf("expected ExtSort, got %T", p.Root)
	}
	if srt.Way != 4 || srt.Bin != 2 || srt.Bout != 2 {
		t.Errorf("sort params: way=%d bin=%d bout=%d", srt.Way, srt.Bin, srt.Bout)
	}
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int32{1, 2, 3, 4, 5}
	got := out.Flat()
	for i, v := range want {
		if got[i] != v {
			t.Fatalf("not sorted: %v", got)
		}
	}
}

func TestLowerFoldWithFinalLambda(t *testing.T) {
	sim := storage.NewSim(memory.HDDRAM(64 * memory.MiB))
	d, _ := sim.Device("hdd")
	in := loadTableSim(sim, "hdd", 2, []int32{1, 10, 2, 20})
	prog := ocal.MustParse(`(\acc -> [acc.1 / (acc.2 + 1)])(foldL(<0, 0>, \<a, x> -> <(a.1 + x.2), (a.2 + 1)>)(for (xB [k1] <- R) xB))`)
	p, err := Lower(prog, LowerOpts{Sim: sim, Inputs: map[string]*Table{"R": in},
		Params: map[string]int64{"k1": 2}, Scratch: d, Sink: &Sink{Sim: sim}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Root.(*Fold); !ok {
		t.Fatalf("expected Fold, got %T", p.Root)
	}
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if !p.Scalar {
		t.Error("fold program must report a scalar result")
	}
	// Sum 30 over 2 rows, final lambda divides by count+1: [30/3] = [10].
	if !ocal.ValueEq(p.Result, ocal.List{ocal.Int(10)}) {
		t.Errorf("fold result %s want [10]", p.Result)
	}
}

func TestLowerUnfoldWithScratchState(t *testing.T) {
	sim := storage.NewSim(memory.HDDRAM(64 * memory.MiB))
	d, _ := sim.Device("hdd")
	in := loadTableSim(sim, "hdd", 1, []int32{1, 1, 2, 3, 3, 3, 4})
	// Duplicate removal: state <seen, rest>.
	prog := ocal.MustParse(`unfoldR[k](\<seen, rest> -> if length(rest) == 0 then <[], <[], []>> else if length(seen) == 0 then <[head(rest)], <[head(rest)], tail(rest)>> else if head(seen) == head(rest) then <[], <seen, tail(rest)>> else <[head(rest)], <[head(rest)], tail(rest)>>)(<[], L>)`)
	out, err := NewTable(d, 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	sink := &Sink{Out: out, Bout: 4, Sim: sim}
	p, err := Lower(prog, LowerOpts{Sim: sim, Inputs: map[string]*Table{"L": in},
		Params: map[string]int64{"k": 3}, Scratch: d, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int32{1, 2, 3, 4}
	got := out.Flat()
	if len(got) != len(want) {
		t.Fatalf("dedup got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dedup got %v want %v", got, want)
		}
	}
}

// TestLowerComposedProgram lowers a program no whole-shape matcher could
// run: a fold over a merge of a projected scan and a base input.
func TestLowerComposedProgram(t *testing.T) {
	sim := storage.NewSim(memory.HDDRAM(64 * memory.MiB))
	d, _ := sim.Device("hdd")
	A := loadTableSim(sim, "hdd", 1, []int32{1, 3, 5})
	B := loadTableSim(sim, "hdd", 1, []int32{2, 4})
	prog := ocal.MustParse(`foldL(0, \<a, x> -> (a + x))(unfoldR[k](mrg)(<for (xB [k] <- A) for (x <- xB) [(x + 1)], B>))`)
	p, err := Lower(prog, LowerOpts{Sim: sim, Inputs: map[string]*Table{"A": A, "B": B},
		Params: map[string]int64{"k": 2}, Scratch: d, Sink: &Sink{Sim: sim}})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	// (1+1)+(3+1)+(5+1)+2+4 = 18.
	if !ocal.ValueEq(p.Result, ocal.Int(18)) {
		t.Errorf("composed result %s want 18", p.Result)
	}
}

func TestLowerErrors(t *testing.T) {
	sim, d, inputs := lowerEnv(t)
	cases := []string{
		`mrg`,
		`for (x <- R) for (y <- S) if x.1 <= y.1 then [<x, y>] else []`, // non-equi with If
		`for (x <- Q) [x]`, // unknown input
	}
	for _, src := range cases {
		prog := ocal.MustParse(src)
		if _, err := Lower(prog, LowerOpts{Sim: sim, Inputs: inputs, Scratch: d,
			Sink: &Sink{Sim: sim}}); err == nil {
			t.Errorf("expected lowering error for %s", src)
		}
	}
}

// TestRootScanChargesOneRun: a root scan or projection over a base table is
// one strand reading one sequential run, however the loop is written —
// lowering never splits it, so it charges the single transfer initiation the
// cost model prices, at every worker count. The clock is bit-identical
// across worker counts and across the two forms that read 64-row blocks; the
// unblocked form sums the same bytes row by row, so it agrees to rounding.
func TestRootScanChargesOneRun(t *testing.T) {
	var rows []int32
	for i := int32(0); i < 8192; i++ {
		rows = append(rows, i%1000, i)
	}
	type run struct {
		bag     string
		seconds float64
	}
	bySrc := map[string]run{}
	srcs := []string{
		"for (x <- R) if x.1 < 300 then [x] else []",
		"for (xB [64] <- R) for (x <- xB) if x.1 < 300 then [x] else []",
		"for (xB [64] <- R) xB",
	}
	for _, src := range srcs {
		for _, workers := range []int{1, 4} {
			sim := newSim(t)
			tb := loadTable(t, sim, "hdd", 2, rows)
			d, _ := sim.Device("hdd")
			var got [][]int32
			sink := &Sink{Sim: sim, Tap: tapRows(func(row []int32) { got = append(got, append([]int32(nil), row...)) })}
			p, err := Lower(ocal.MustParse(src), LowerOpts{
				Sim: sim, Inputs: map[string]*Table{"R": tb}, Scratch: d,
				Sink: sink, RAMBytes: 1 << 20, ExecWorkers: workers,
			})
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			if err := p.Run(); err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			if d.Led.ReadInits != 1 || d.Led.BytesRead != int64(len(rows))*4 {
				t.Errorf("%s (workers %d): %d read inits / %d bytes, want 1 / %d",
					src, workers, d.Led.ReadInits, d.Led.BytesRead, len(rows)*4)
			}
			sort.Slice(got, func(i, j int) bool { return rowLess(got[i], got[j]) })
			r := run{bag: fmt.Sprint(got), seconds: sim.Clock.Seconds()}
			if prev, ok := bySrc[src]; ok && r != prev {
				t.Errorf("%s: workers %d diverges from workers 1 (%v s vs %v s)", src, workers, r.seconds, prev.seconds)
			}
			bySrc[src] = r
		}
	}
	unblocked, blocked, scan := bySrc[srcs[0]], bySrc[srcs[1]], bySrc[srcs[2]]
	if unblocked.bag != blocked.bag {
		t.Error("the filter's output depends on how its loop is blocked")
	}
	if math.Float64bits(blocked.seconds) != math.Float64bits(scan.seconds) {
		t.Errorf("blocked filter charged %v virtual s, blocked scan %v", blocked.seconds, scan.seconds)
	}
	if math.Abs(unblocked.seconds-blocked.seconds) > 1e-12 {
		t.Errorf("unblocked filter charged %v virtual s, blocked %v", unblocked.seconds, blocked.seconds)
	}
}
