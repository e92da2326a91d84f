package exec

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ocas/internal/catalog"
	"ocas/internal/interp"
	"ocas/internal/memory"
	"ocas/internal/ocal"
	"ocas/internal/storage"
)

// This file is the columnar-layout differential suite: the struct-of-arrays
// batch protocol (column vectors plus optional selection vectors) must be
// invisible to every observable of a run. For representative shapes — a
// pure filter (the sel-passthrough path), a computed projection, a GRACE
// hash join (Exchange/Gather spill columns) and an external sort — it
// sweeps batch sizes {1,7,64} × exec workers {1,2,4,8} × EXPLAIN on/off,
// over generated (Preload) and durable (catalog segments behind
// BackedTable) inputs, asserting the repo's determinism
// contract: the order-independent output digest, row count and integer
// device ledgers identical across every cell; the exact virtual clock
// identical across every cell of one worker count; single-worker row order
// identical across batch sizes and instrumentation (concurrent partition
// emission makes multi-worker order bag-equal only, and the cross-worker
// clock equal up to float summation rounding — exactly the parallel
// sweep's contract); and the integer EXPLAIN counters identical across
// worker counts per batch size.

// layoutWorkerCounts is the exec-worker sweep of the layout suite.
var layoutWorkerCounts = []int{1, 2, 4, 8}

// layoutShape is one program of the layout differential suite.
type layoutShape struct {
	name    string
	src     string
	params  map[string]int64
	inputs  map[string]diffTable
	arities map[string]int
}

// layoutShapes generates the suite's program corpus with fixed seeds, big
// enough that morsel partitioning (Gather over section scans) engages.
func layoutShapes() []layoutShape {
	r := rand.New(rand.NewSource(7))
	scanIn := randTable(r, 2, 2000, 100)
	joinR := randTable(r, 2, 300, 40)
	joinS := randTable(r, 2, 900, 40)
	sortIn := randTable(r, 1, 800, 1<<16)
	for i, v := range sortIn.value {
		// The OCAL sorting convention: the input is a list of singleton runs.
		sortIn.value[i] = ocal.List{v}
	}
	return []layoutShape{
		{
			name:    "purefilter",
			src:     "for (xB [k1] <- R) for (x <- xB) if x.1 < 50 then [x] else []",
			params:  map[string]int64{"k1": 16},
			inputs:  map[string]diffTable{"R": scanIn},
			arities: map[string]int{"R": 2},
		},
		{
			name:    "scanproject",
			src:     "for (xB [k1] <- R) for (x <- xB) if x.1 < 20 then [<x.1, (x.2 + x.1)>] else []",
			params:  map[string]int64{"k1": 16},
			inputs:  map[string]diffTable{"R": scanIn},
			arities: map[string]int{"R": 2},
		},
		{
			name: "hashjoin",
			src: "flatMap(\\<p1, p2> -> for (xB [k1] <- p1) for (yB [k2] <- p2) " +
				"for (x <- xB) for (y <- yB) if x.1 == y.1 then [<x, y>] else [])" +
				"(zip[2](partition[s](R), partition[s](S)))",
			params:  map[string]int64{"k1": 8, "k2": 8, "s": 4},
			inputs:  map[string]diffTable{"R": joinR, "S": joinS},
			arities: map[string]int{"R": 2, "S": 2},
		},
		{
			name:    "extsort",
			src:     "treeFold[2][bout]([], unfoldR[bin](funcPow[1](mrg)))(for (xB [k1] <- R) xB)",
			params:  map[string]int64{"bin": 4, "bout": 4, "k1": 8},
			inputs:  map[string]diffTable{"R": sortIn},
			arities: map[string]int{"R": 1},
		},
	}
}

// layoutRun is the observable outcome of one configuration.
type layoutRun struct {
	bagDigest   uint64 // order-independent: per-row FNV-1a hashes summed
	orderDigest uint64 // order-sensitive: row hashes folded into a chain
	rows        int64
	clock       float64
	ledgers     map[string]storage.Ledger
	explainInts string // EXPLAIN tree's integer counters ("" unless instrumented)
}

// tableOpener binds the shape's inputs on a fresh simulator device —
// Preload for generated mode, catalog-backed for durable mode.
type tableOpener func(t *testing.T, dev *storage.Device) map[string]*Table

// preloadOpener preloads the generated rows directly.
func preloadOpener(sh layoutShape) tableOpener {
	return func(t *testing.T, dev *storage.Device) map[string]*Table {
		t.Helper()
		tables := map[string]*Table{}
		for name, dt := range sh.inputs {
			arity := sh.arities[name]
			tb, err := NewTable(dev, arity, int64(len(dt.rows)/arity)+8)
			if err != nil {
				t.Fatal(err)
			}
			if err := tb.Preload(dt.rows); err != nil {
				t.Fatal(err)
			}
			tables[name] = tb
		}
		return tables
	}
}

// durableOpener ingests the generated rows into a catalog once (small
// FlushRows so real PAX segments are cut) and binds each run to backed
// tables over shared read snapshots.
func durableOpener(t *testing.T, sh layoutShape) tableOpener {
	t.Helper()
	cat, err := catalog.Open(t.TempDir(), catalog.Options{FlushRows: 256})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cat.Close() })
	handles := map[string]*catalog.Handle{}
	for name, dt := range sh.inputs {
		arity := sh.arities[name]
		cols := make([]catalog.Column, arity)
		for i := range cols {
			cols[i] = catalog.Column{Name: fmt.Sprintf("c%d", i+1)}
		}
		if err := cat.Create(name, catalog.Schema{Columns: cols}); err != nil {
			t.Fatal(err)
		}
		if _, err := cat.Append(name, dt.rows); err != nil {
			t.Fatal(err)
		}
		if err := cat.Flush(name); err != nil {
			t.Fatal(err)
		}
		h, err := cat.OpenTable(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { h.Close() })
		handles[name] = h
	}
	return func(t *testing.T, dev *storage.Device) map[string]*Table {
		t.Helper()
		tables := map[string]*Table{}
		for name, h := range handles {
			tb, err := NewBackedTable(dev, sh.arities[name], h.Rows(), h)
			if err != nil {
				t.Fatal(err)
			}
			tables[name] = tb
		}
		return tables
	}
}

// rowHash is the FNV-1a hash of one row, the unit of the layout digests.
func rowHash(row []int32) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range row {
		h = (h ^ uint64(byte(v))) * 1099511628211
		h = (h ^ uint64(byte(v>>8))) * 1099511628211
		h = (h ^ uint64(byte(v>>16))) * 1099511628211
		h = (h ^ uint64(byte(v>>24))) * 1099511628211
	}
	return h
}

// runLayoutConfig executes one configuration and captures its observables.
func runLayoutConfig(t *testing.T, sh layoutShape, open tableOpener, workers int, batch int64, explain bool) layoutRun {
	t.Helper()
	prog := ocal.MustParse(sh.src)
	sim := storage.NewSim(memory.HDDRAM(64 * memory.MiB))
	scratch, err := sim.Device("hdd")
	if err != nil {
		t.Fatal(err)
	}
	run := layoutRun{}
	sink := &Sink{Sim: sim, Tap: tapRows(func(row []int32) {
		h := rowHash(row)
		run.bagDigest += h
		run.orderDigest = run.orderDigest*1099511628211 + h
		run.rows++
	})}
	p, err := Lower(prog, LowerOpts{
		Sim: sim, Inputs: open(t, scratch), Params: sh.params,
		Scratch: scratch, Sink: sink, RAMBytes: 1 << 20,
		BatchRows: batch, ExecWorkers: workers, Explain: explain,
	})
	if err != nil {
		t.Fatalf("lower (%s): %v", sh.name, err)
	}
	if err := p.Run(); err != nil {
		t.Fatalf("run (%s, batch %d, workers %d): %v", sh.name, batch, workers, err)
	}
	if p.Scalar {
		// Fold shapes digest the scalar result instead of sink rows.
		d := uint64(len(fmt.Sprint(p.Result)))
		run.bagDigest, run.orderDigest = d, d
	}
	run.clock = sim.Clock.Seconds()
	run.ledgers = map[string]storage.Ledger{}
	for name, d := range sim.Devices {
		run.ledgers[name] = d.Led
	}
	if explain {
		tree := p.ExplainTree()
		if tree == nil {
			t.Fatalf("explain run (%s) produced no tree", sh.name)
		}
		run.explainInts = marshalExplain(t, tree, true)
	}
	return run
}

// marshalExplain renders the tree with host wall-clock zeroed (the only
// per-run nondeterministic field); stripFloats additionally zeroes the
// simulated-seconds windows, leaving the integer counters that must be
// invariant even across worker counts.
func marshalExplain(t *testing.T, tree *ExplainNode, stripFloats bool) string {
	t.Helper()
	var walk func(n *ExplainNode) *ExplainNode
	walk = func(n *ExplainNode) *ExplainNode {
		c := *n
		c.WallNanos = 0
		if stripFloats {
			c.SimSeconds = 0
		}
		c.Children = nil
		for _, kid := range n.Children {
			c.Children = append(c.Children, walk(kid))
		}
		return &c
	}
	b, err := json.Marshal(walk(tree))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// describeCfg renders one configuration for failure messages.
func describeCfg(batch int64, workers int, explain bool) string {
	return fmt.Sprintf("batch %d, workers %d, explain %v", batch, workers, explain)
}

// sameClock is the parallel sweep's cross-worker clock contract: equal up
// to float summation rounding.
func sameClock(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(a, b))
}

// TestColumnarLayoutDifferential sweeps the full configuration matrix per
// shape and input mode.
func TestColumnarLayoutDifferential(t *testing.T) {
	for _, sh := range layoutShapes() {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			for _, mode := range []string{"generated", "durable"} {
				mode := mode
				t.Run(mode, func(t *testing.T) {
					open := preloadOpener(sh)
					if mode == "durable" {
						open = durableOpener(t, sh)
					}
					var ref *layoutRun
					var refCfg string
					orderByWorkers := map[int]uint64{}
					clockByWorkers := map[int]float64{}
					explainIntsByBatch := map[int64]string{}
					for _, batch := range diffBatchSizes {
						for _, workers := range layoutWorkerCounts {
							for _, explain := range []bool{false, true} {
								cfg := describeCfg(batch, workers, explain)
								run := runLayoutConfig(t, sh, open, workers, batch, explain)
								if ref == nil {
									r := run
									ref, refCfg = &r, cfg
								} else {
									if run.bagDigest != ref.bagDigest || run.rows != ref.rows {
										t.Fatalf("digest %d over %d rows (%s) != %d over %d rows (%s)",
											run.bagDigest, run.rows, cfg, ref.bagDigest, ref.rows, refCfg)
									}
									if !sameClock(run.clock, ref.clock) {
										t.Errorf("clock %v (%s) != %v (%s)", run.clock, cfg, ref.clock, refCfg)
									}
									for dev, led := range ref.ledgers {
										if run.ledgers[dev] != led {
											t.Errorf("device %s ledger %+v (%s) != %+v (%s)",
												dev, run.ledgers[dev], cfg, led, refCfg)
										}
									}
								}
								// Single-worker row order is invariant across batch
								// sizes and instrumentation (multi-worker
								// order is bag-equal only: partitions emit
								// concurrently). The exact clock is invariant within
								// every worker count.
								if workers == 1 {
									if prev, ok := orderByWorkers[workers]; !ok {
										orderByWorkers[workers] = run.orderDigest
									} else if prev != run.orderDigest {
										t.Errorf("row order at workers %d differs (%s): digest %d, first saw %d",
											workers, cfg, run.orderDigest, prev)
									}
								}
								if prev, ok := clockByWorkers[workers]; !ok {
									clockByWorkers[workers] = run.clock
								} else if prev != run.clock {
									t.Errorf("clock at workers %d differs (%s): %v, first saw %v",
										workers, cfg, run.clock, prev)
								}
								if explain {
									if prev, ok := explainIntsByBatch[batch]; !ok {
										explainIntsByBatch[batch] = run.explainInts
									} else if prev != run.explainInts {
										t.Errorf("EXPLAIN counters at batch %d differ across worker counts (%s):\n%s\nvs\n%s",
											batch, cfg, run.explainInts, prev)
									}
								}
							}
						}
					}
				})
			}
		})
	}
}

// FuzzColumnarVsRow drives randomized scan/filter/project and join shapes
// through an arbitrary configuration (batch size, worker count). The result
// must be the bag internal/interp evaluates for the same program — the
// row-semantics reference every columnar batch stream must collapse to —
// and the accounting must be the canonical single-worker configuration's:
// identical integer ledgers, clock within summation rounding, and exact
// row order plus bit-identical clock when the worker count matches.
func FuzzColumnarVsRow(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0))
	f.Add(int64(7), uint8(1), uint8(2))
	f.Add(int64(42), uint8(2), uint8(3))
	f.Add(int64(99), uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, batchSel, workerSel uint8) {
		r := rand.New(rand.NewSource(seed))
		in := randTable(r, 2, 60, 12)
		var sh layoutShape
		switch r.Intn(3) {
		case 0:
			sh = layoutShape{
				name:    "fuzzfilter",
				src:     fmt.Sprintf("for (xB [k1] <- R) for (x <- xB) if x.1 < %d then [x] else []", r.Intn(12)),
				params:  map[string]int64{"k1": kp(r)},
				inputs:  map[string]diffTable{"R": in},
				arities: map[string]int{"R": 2},
			}
		case 1:
			sh = layoutShape{
				name:    "fuzzproject",
				src:     "for (xB [k1] <- R) for (x <- xB) [<x.2, (x.1 + x.2)>]",
				params:  map[string]int64{"k1": kp(r)},
				inputs:  map[string]diffTable{"R": in},
				arities: map[string]int{"R": 2},
			}
		default:
			S := randTable(r, 2, 30, 12)
			sh = layoutShape{
				name: "fuzzjoin",
				src: "for (xB [k1] <- R) for (yB [k2] <- S) for (x <- xB) for (y <- yB) " +
					"if x.1 == y.1 then [<x, y>] else []",
				params:  map[string]int64{"k1": kp(r), "k2": kp(r)},
				inputs:  map[string]diffTable{"R": in, "S": S},
				arities: map[string]int{"R": 2, "S": 2},
			}
		}
		values := map[string]ocal.Value{}
		for name, dt := range sh.inputs {
			values[name] = append(ocal.List{}, dt.value...)
		}
		want, err := interp.Eval(ocal.MustParse(sh.src), values, sh.params)
		if err != nil {
			t.Fatalf("interp: %v\n%s", err, sh.src)
		}
		var wantDigest uint64
		wantRows := valueRows(t, want)
		for _, row := range wantRows {
			wantDigest += rowHash(row)
		}
		open := preloadOpener(sh)
		ref := runLayoutConfig(t, sh, open, 1, 64, false)
		batch := diffBatchSizes[int(batchSel)%len(diffBatchSizes)]
		workers := layoutWorkerCounts[int(workerSel)%len(layoutWorkerCounts)]
		got := runLayoutConfig(t, sh, open, workers, batch, false)
		cfg := describeCfg(batch, workers, false)
		if got.bagDigest != wantDigest || got.rows != int64(len(wantRows)) {
			t.Fatalf("%s: digest %d over %d rows, interp %d over %d rows\n%s",
				cfg, got.bagDigest, got.rows, wantDigest, len(wantRows), sh.src)
		}
		if workers == 1 && got.orderDigest != ref.orderDigest {
			t.Fatalf("%s: row order digest %d, reference %d\n%s",
				cfg, got.orderDigest, ref.orderDigest, sh.src)
		}
		if workers == 1 && got.clock != ref.clock {
			t.Fatalf("%s: clock %v, reference %v\n%s", cfg, got.clock, ref.clock, sh.src)
		}
		if !sameClock(got.clock, ref.clock) {
			t.Fatalf("%s: clock %v outside rounding of reference %v\n%s", cfg, got.clock, ref.clock, sh.src)
		}
		for dev, led := range ref.ledgers {
			if got.ledgers[dev] != led {
				t.Fatalf("%s: device %s ledger %+v, reference %+v\n%s",
					cfg, dev, got.ledgers[dev], led, sh.src)
			}
		}
	})
}
