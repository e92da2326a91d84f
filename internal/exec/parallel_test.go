package exec

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"ocas/internal/interp"
	"ocas/internal/memory"
	"ocas/internal/ocal"
	"ocas/internal/storage"
)

// sweepWorkers are the executor worker counts the determinism sweep runs at.
var sweepWorkers = []int{1, 2, 4, 8}

// workerRun is everything the determinism contract covers: the result bag
// (or scalar), the per-device ledgers and the virtual clock.
type workerRun struct {
	rows    [][]int32
	scalar  ocal.Value
	ledgers map[string]storage.Ledger
	seconds float64
	workers []WorkerLedger
}

// execWithWorkers lowers and runs one case at the given worker count.
func execWithWorkers(t *testing.T, c diffCase, prog ocal.Expr, workers int, poolBytes int64) workerRun {
	t.Helper()
	sim := storage.NewSim(memory.HDDRAM(64 * memory.MiB))
	scratch, err := sim.Device("hdd")
	if err != nil {
		t.Fatal(err)
	}
	tables := map[string]*Table{}
	for name, dt := range c.inputs {
		arity := c.arities[name]
		tb, err := NewTable(scratch, arity, int64(len(dt.rows)/arity)+8)
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.Preload(dt.rows); err != nil {
			t.Fatal(err)
		}
		tables[name] = tb
	}
	out, err := NewTable(scratch, c.outArity, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	sink := &Sink{Out: out, Bout: 8, Sim: sim}
	p, err := Lower(prog, LowerOpts{Sim: sim, Inputs: tables, Params: c.params,
		Scratch: scratch, Sink: sink, RAMBytes: 1 << 20,
		PoolBytes: poolBytes, ExecWorkers: workers})
	if err != nil {
		t.Fatalf("lower: %v\n%s", err, c.src)
	}
	if err := p.Run(); err != nil {
		t.Fatalf("run (workers %d): %v\n%s", workers, err, c.src)
	}
	run := workerRun{
		ledgers: map[string]storage.Ledger{},
		seconds: sim.Clock.Seconds(),
		workers: p.WorkerLedgers(),
	}
	for name, d := range sim.Devices {
		run.ledgers[name] = d.Led
	}
	if p.Scalar {
		run.scalar = p.Result
		return run
	}
	run.rows = tableRows(out.Flat(), c.outArity)
	return run
}

// sweepCase runs one case at every worker count and asserts the contract:
// identical bags (and scalars), identical integer ledgers, and a virtual
// clock equal up to float summation rounding — all compared against the
// single-worker run, which itself is compared against the interpreter
// (unless noRef: an order-sensitive fold over a row-reordering operator
// legitimately differs from the interpreter's evaluation order; the
// contract there is worker-count invariance and run-to-run determinism).
func sweepCase(t *testing.T, c diffCase, noRef bool, poolBytes int64) {
	t.Helper()
	prog, err := ocal.Parse(c.src)
	if err != nil {
		t.Fatalf("program does not parse: %v\n%s", err, c.src)
	}
	var want ocal.Value
	if !noRef {
		values := map[string]ocal.Value{}
		for name, dt := range c.inputs {
			v := dt.value
			if v == nil {
				v = ocal.List{}
			}
			values[name] = v
		}
		var err error
		if want, err = interp.Eval(prog, values, c.params); err != nil {
			t.Fatalf("interp: %v\n%s", err, c.src)
		}
	}

	base := execWithWorkers(t, c, prog, 1, poolBytes)
	switch {
	case noRef:
	case c.scalar:
		if !ocal.ValueEq(base.scalar, want) {
			t.Fatalf("scalar %s, interpreter %s\n%s", base.scalar, want, c.src)
		}
	default:
		sameBag(t, fmt.Sprintf("%s (workers 1, pool %d)", c.src, poolBytes), base.rows, valueRows(t, want))
	}
	for _, w := range sweepWorkers[1:] {
		run := execWithWorkers(t, c, prog, w, poolBytes)
		what := fmt.Sprintf("%s (workers %d, pool %d)", c.src, w, poolBytes)
		if c.scalar {
			if !ocal.ValueEq(run.scalar, base.scalar) {
				t.Fatalf("%s: scalar %s differs from single-worker %s", what, run.scalar, base.scalar)
			}
		} else {
			sameBag(t, what, run.rows, base.rows)
		}
		for dev, led := range base.ledgers {
			if run.ledgers[dev] != led {
				t.Errorf("%s: device %s ledger %+v differs from single-worker %+v",
					what, dev, run.ledgers[dev], led)
			}
		}
		if diff := math.Abs(run.seconds - base.seconds); diff > 1e-9*math.Max(1, base.seconds) {
			t.Errorf("%s: clock %v differs from single-worker %v", what, run.seconds, base.seconds)
		}
		// The lane ledgers must cover every partition task exactly once.
		var baseTasks, runTasks int64
		for _, l := range base.workers {
			baseTasks += l.Tasks
		}
		for _, l := range run.workers {
			runTasks += l.Tasks
		}
		if baseTasks != runTasks {
			t.Errorf("%s: %d lane tasks, single-worker ran %d", what, runTasks, baseTasks)
		}
	}
}

// TestWorkersDifferentialSweep: the determinism contract over randomized
// programs of every parallel shape — partitioned scans and projections,
// GRACE hash joins, external sorts, folds and compositions — at full and
// starved pool budgets.
func TestWorkersDifferentialSweep(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		r := rand.New(rand.NewSource(900 + seed))
		R := randTable(r, 2, 300, 24)
		S := randTable(r, 2, 200, 24)
		col := randTable(r, 1, 400, 1<<16)
		sortIn := randTable(r, 1, 300, 1<<16)
		for i, v := range sortIn.value {
			sortIn.value[i] = ocal.List{v}
		}
		type sweep struct {
			diffCase
			noRef bool
		}
		cases := []sweep{
			{diffCase: diffCase{
				src:      "for (xB [k1] <- R) for (x <- xB) [<x.1, (x.2 + x.1)>]",
				params:   map[string]int64{"k1": 4},
				inputs:   map[string]diffTable{"R": R},
				arities:  map[string]int{"R": 2},
				outArity: 2,
			}},
			{diffCase: diffCase{
				src:      "for (xB [k1] <- L) xB",
				params:   map[string]int64{"k1": 8},
				inputs:   map[string]diffTable{"L": col},
				arities:  map[string]int{"L": 1},
				outArity: 1,
			}},
			{diffCase: diffCase{
				src: "flatMap(\\<p1, p2> -> for (xB [k1] <- p1) for (yB [k2] <- p2) " +
					"for (x <- xB) for (y <- yB) if x.1 == y.1 then [<x, y>] else [])" +
					"(zip[2](partition[s](R), partition[s](S)))",
				params:   map[string]int64{"k1": 8, "k2": 8, "s": int64(r.Intn(5) + 2)},
				inputs:   map[string]diffTable{"R": R, "S": S},
				arities:  map[string]int{"R": 2, "S": 2},
				outArity: 4,
			}},
			{diffCase: diffCase{
				src:       "treeFold[2][bout]([], unfoldR[bin](funcPow[1](mrg)))(for (xB [k1] <- R) xB)",
				params:    map[string]int64{"bin": 4, "bout": 4, "k1": 4},
				inputs:    map[string]diffTable{"R": sortIn},
				arities:   map[string]int{"R": 1},
				outArity:  1,
				sortedOut: true,
			}},
			{diffCase: diffCase{
				src: "foldL(0, \\<a, x> -> (a + x.2))(" +
					"flatMap(\\<p1, p2> -> for (xB [k1] <- p1) for (yB [k2] <- p2) " +
					"for (x <- xB) for (y <- yB) if x.1 == y.1 then [<x.1, x.2, y.1, y.2>] else [])" +
					"(zip[2](partition[s](R), partition[s](S))))",
				params:   map[string]int64{"k1": 8, "k2": 8, "s": 3},
				inputs:   map[string]diffTable{"R": R, "S": S},
				arities:  map[string]int{"R": 2, "S": 2},
				outArity: 1,
				scalar:   true,
			}},
			{
				// A non-commutative fold over a parallel hash join: the
				// result depends on row order (and so legitimately differs
				// from the interpreter, whose nested-loop order no GRACE
				// join preserves) — this pins down that Gather delivers
				// partitions in order at every worker count.
				noRef: true,
				diffCase: diffCase{
					src: "foldL(0, \\<a, x> -> ((a * 2) + x.2))(" +
						"flatMap(\\<p1, p2> -> for (xB [k1] <- p1) for (yB [k2] <- p2) " +
						"for (x <- xB) for (y <- yB) if x.1 == y.1 then [<x.1, x.2, y.1, y.2>] else [])" +
						"(zip[2](partition[s](R), partition[s](S))))",
					params:   map[string]int64{"k1": 8, "k2": 8, "s": 4},
					inputs:   map[string]diffTable{"R": R, "S": S},
					arities:  map[string]int{"R": 2, "S": 2},
					outArity: 1,
					scalar:   true,
				},
			},
		}
		for _, c := range cases {
			for _, pool := range []int64{0, 2 << 10} {
				sweepCase(t, c.diffCase, c.noRef, pool)
			}
		}
	}
}

// TestGatherMergesPartitionStreams drives a hand-built Gather of
// projections, each over its own partition spill, and checks the merged bag
// equals the whole at every worker count, with the partition charges adding
// up exactly once.
func TestGatherMergesPartitionStreams(t *testing.T) {
	var rows []int32
	for i := int32(0); i < 200; i++ {
		rows = append(rows, i, i*2)
	}
	for _, workers := range []int{1, 3} {
		sim := newSim(t)
		d, _ := sim.Device("hdd")
		parts := make([]Operator, 4)
		for i, b := range sectionBounds(200, len(parts)) {
			sp, err := d.NewSpill(8, b[1]-b[0])
			if err != nil {
				t.Fatal(err)
			}
			sp.Preload(rows[b[0]*2 : b[1]*2])
			pr, err := project(SpillsInput([]*storage.Spill{sp}, 2), 16, ocal.MustParse("[x]"), "x")
			if err != nil {
				t.Fatal(err)
			}
			parts[i] = pr
		}
		g := &Gather{Parts: parts}
		out, err := NewTable(d, 2, 256)
		if err != nil {
			t.Fatal(err)
		}
		sink := &Sink{Out: out, Bout: 16, Sim: sim}
		p := &Program{Root: g, Sink: sink, c: &Ctx{
			Sim: sim, Pool: storage.NewBufferPool(0), Scratch: d,
			Workers: workers, shared: newShared(workers),
		}}
		if err := p.Run(); err != nil {
			t.Fatal(err)
		}
		sameBag(t, fmt.Sprintf("gather (workers %d)", workers),
			tableRows(out.Flat(), 2), tableRows(rows, 2))
		// Every input byte must be read exactly once, one seek per partition.
		if d.Led.ReadInits != 4 || d.Led.BytesRead != int64(len(rows))*4 {
			t.Errorf("workers %d: %d read inits / %d bytes, want one init per partition and %d bytes",
				workers, d.Led.ReadInits, d.Led.BytesRead, len(rows)*4)
		}
	}
}

// TestExchangePartitions repartitions a table by hash key and checks every
// row lands in the partition its key hashes to, across all task segments.
func TestExchangePartitions(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	var rows []int32
	for i := 0; i < 500; i++ {
		rows = append(rows, int32(r.Intn(100)), int32(i))
	}
	sim := newSim(t)
	tb := loadTableSim(sim, "hdd", 2, rows)
	d, _ := sim.Device("hdd")
	c := &Ctx{Sim: sim, Pool: storage.NewBufferPool(0), Scratch: d, Workers: 2, shared: newShared(2)}
	const s = 5
	x := &Exchange{In: TableInput(tb), Parts: s, Key: 0, KRead: 16, BufW: 16}
	parts, arity, err := x.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if arity != 2 {
		t.Fatalf("arity %d want 2", arity)
	}
	var got [][]int32
	for pi, part := range parts {
		for _, sp := range part.Spills {
			for _, row := range tableRows(flatSpill(sp), 2) {
				if want := int64(ocal.Hash(ocal.Int(int64(row[0]))) % uint64(s)); want != int64(pi) {
					t.Fatalf("row %v in partition %d, its key hashes to %d", row, pi, want)
				}
				got = append(got, row)
			}
		}
	}
	sameBag(t, "exchange", got, tableRows(rows, 2))
}

// TestSpillLifecycleOnCancel: a run cancelled mid-flight must release every
// pool frame and free all scratch spill space; a completed run must too.
func TestSpillLifecycleOnCancel(t *testing.T) {
	src := "flatMap(\\<p1, p2> -> for (xB [k1] <- p1) for (yB [k2] <- p2) " +
		"for (x <- xB) for (y <- yB) if x.1 == y.1 then [<x, y>] else [])" +
		"(zip[2](partition[s](R), partition[s](S)))"
	prog := ocal.MustParse(src)
	r := rand.New(rand.NewSource(7))
	var rrows, srows []int32
	for i := 0; i < 4000; i++ {
		rrows = append(rrows, int32(r.Intn(50)), int32(i))
		srows = append(srows, int32(r.Intn(50)), int32(i))
	}
	params := map[string]int64{"k1": 64, "k2": 64, "s": 4}

	for _, cancelAfter := range []int{-1, 0, 3} { // -1: run to completion
		for _, workers := range []int{1, 4} {
			sim := newSim(t)
			scratch, _ := sim.Device("hdd")
			tables := map[string]*Table{
				"R": loadTableSim(sim, "hdd", 2, rrows),
				"S": loadTableSim(sim, "hdd", 2, srows),
			}
			baseline := scratch.AllocatedBytes()
			ctx, cancel := context.WithCancel(context.Background())
			sink := &Sink{Sim: sim}
			if cancelAfter == 0 {
				cancel()
			} else if cancelAfter > 0 {
				n := 0
				sink.Tap = tapRows(func([]int32) {
					if n++; n == cancelAfter {
						cancel()
					}
				})
			}
			p, err := Lower(prog, LowerOpts{Sim: sim, Inputs: tables, Params: params,
				Scratch: scratch, Sink: sink, RAMBytes: 1 << 20, PoolBytes: 8 << 10,
				ExecWorkers: workers, Context: ctx})
			if err != nil {
				t.Fatal(err)
			}
			err = p.Run()
			if cancelAfter >= 0 && err == nil {
				t.Fatalf("cancelAfter %d workers %d: run must fail", cancelAfter, workers)
			}
			if cancelAfter < 0 && err != nil {
				t.Fatalf("workers %d: %v", workers, err)
			}
			if got := p.Pool().Stats().UsedBytes; got != 0 {
				t.Errorf("cancelAfter %d workers %d: %d pool bytes still pinned", cancelAfter, workers, got)
			}
			if got := scratch.AllocatedBytes(); got != baseline {
				t.Errorf("cancelAfter %d workers %d: scratch allocation %d, want the pre-run %d (spills must be freed)",
					cancelAfter, workers, got, baseline)
			}
			cancel()
		}
	}
}

// TestWorkerPanicBecomesError: a scratch device filling up mid-spill
// inside a parallel worker goroutine must surface as a run error (as it
// always has on the driver strand), never crash the process.
func TestWorkerPanicBecomesError(t *testing.T) {
	src := "flatMap(\\<p1, p2> -> for (xB [k1] <- p1) for (yB [k2] <- p2) " +
		"for (x <- xB) for (y <- yB) if x.1 == y.1 then [<x, y>] else [])" +
		"(zip[2](partition[s](R), partition[s](S)))"
	prog := ocal.MustParse(src)
	r := rand.New(rand.NewSource(13))
	var rrows, srows []int32
	for i := 0; i < 20000; i++ {
		rrows = append(rrows, int32(r.Intn(50)), int32(i))
		srows = append(srows, int32(r.Intn(50)), int32(i))
	}
	for _, workers := range []int{1, 4} {
		// A disk barely larger than the inputs: the partition spills cannot
		// fit their growth chunks.
		hdd := &memory.Node{Name: "hdd", Kind: memory.HDD, Size: 512 << 10,
			PageSize: 4 * memory.KiB, InitComUp: memory.HDDSeek, InitComDown: memory.HDDSeek,
			UnitTrUp: memory.HDDUnitTr, UnitTrDown: memory.HDDUnitTr}
		h, err := memory.New(&memory.Node{Name: "ram", Kind: memory.RAM, Size: 1 << 20,
			PageSize: 1, Children: []*memory.Node{hdd}})
		if err != nil {
			t.Fatal(err)
		}
		sim := storage.NewSim(h)
		tables := map[string]*Table{
			"R": loadTableSim(sim, "hdd", 2, rrows),
			"S": loadTableSim(sim, "hdd", 2, srows),
		}
		scratch, _ := sim.Device("hdd")
		p, err := Lower(prog, LowerOpts{Sim: sim, Inputs: tables,
			Params:  map[string]int64{"k1": 64, "k2": 64, "s": 4},
			Scratch: scratch, Sink: &Sink{Sim: sim}, RAMBytes: 1 << 20,
			ExecWorkers: workers})
		if err != nil {
			t.Fatal(err)
		}
		err = p.Run()
		if err == nil || !strings.Contains(err.Error(), "storage:") {
			t.Fatalf("workers %d: want a storage exhaustion error, got %v", workers, err)
		}
		if got := p.Pool().Stats().UsedBytes; got != 0 {
			t.Errorf("workers %d: %d pool bytes still pinned after failure", workers, got)
		}
	}
}
