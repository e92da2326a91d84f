package exec

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"ocas/internal/interp"
	"ocas/internal/memory"
	"ocas/internal/ocal"
	"ocas/internal/storage"
)

// This file is the differential test harness: it generates randomized small
// OCAL programs in the shapes the rule library produces (blocked scans,
// nested-loop joins, GRACE hash joins, external sorts, streaming folds) and
// in composed shapes only the compositional lowerer accepts, together with
// random tables, lowers each program to an operator tree, and checks that
// execution computes the same result bag as the internal/interp reference
// interpreter run on the same program and parameters — swept over operator
// batch sizes and buffer-pool budgets small enough to force frame shrinking
// and spilling. Order is compared only where the physical operator
// guarantees it (sorting).

// defaultStride is the readers' stride outside the tests that move it.
var defaultStride = physStride

// diffBatchSizes are the operator exchange granularities every case runs at.
var diffBatchSizes = []int64{1, 7, 64}

// diffPoolBudgets are the buffer-pool budgets every case runs at: the
// default (RAMBytes) and a budget far below the inputs, forcing block
// shrinking and real spilling.
var diffPoolBudgets = []int64{0, 1 << 10}

// diffTable is one randomly generated relation in both representations.
type diffTable struct {
	rows  []int32
	value ocal.List
}

// randTable draws up to maxRows random tuples with keys in [0, keyRange).
func randTable(r *rand.Rand, arity int, maxRows, keyRange int) diffTable {
	n := r.Intn(maxRows + 1)
	var dt diffTable
	for i := 0; i < n; i++ {
		if arity == 1 {
			v := int32(r.Intn(keyRange))
			dt.rows = append(dt.rows, v)
			dt.value = append(dt.value, ocal.Int(int64(v)))
			continue
		}
		tup := make(ocal.Tuple, arity)
		for j := 0; j < arity; j++ {
			v := int32(r.Intn(keyRange))
			dt.rows = append(dt.rows, v)
			tup[j] = ocal.Int(int64(v))
		}
		dt.value = append(dt.value, tup)
	}
	return dt
}

// flattenValue turns a (possibly nested) tuple value into one flat row, the
// physical layout exec.Table uses.
func flattenValue(t *testing.T, v ocal.Value) []int32 {
	t.Helper()
	switch x := v.(type) {
	case ocal.Int:
		return []int32{int32(x)}
	case ocal.Bool:
		if x {
			return []int32{1}
		}
		return []int32{0}
	case ocal.Tuple:
		var out []int32
		for _, e := range x {
			out = append(out, flattenValue(t, e)...)
		}
		return out
	}
	t.Fatalf("cannot flatten %T (%s) into a row", v, v)
	return nil
}

// valueRows flattens an interpreter result list into rows.
func valueRows(t *testing.T, v ocal.Value) [][]int32 {
	t.Helper()
	l, ok := v.(ocal.List)
	if !ok {
		t.Fatalf("interpreter returned %T, want a list", v)
	}
	out := make([][]int32, len(l))
	for i, e := range l {
		out[i] = flattenValue(t, e)
	}
	return out
}

// tableRows splits a table's flat data into rows.
func tableRows(data []int32, arity int) [][]int32 {
	var out [][]int32
	for i := 0; i+arity <= len(data); i += arity {
		row := make([]int32, arity)
		copy(row, data[i:i+arity])
		out = append(out, row)
	}
	return out
}

func rowLess(a, b []int32) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// sameBag asserts two row sets are equal as multisets.
func sameBag(t *testing.T, what string, got, want [][]int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, interpreter says %d", what, len(got), len(want))
	}
	g := append([][]int32(nil), got...)
	w := append([][]int32(nil), want...)
	sort.Slice(g, func(i, j int) bool { return rowLess(g[i], g[j]) })
	sort.Slice(w, func(i, j int) bool { return rowLess(w[i], w[j]) })
	for i := range g {
		if fmt.Sprint(g[i]) != fmt.Sprint(w[i]) {
			t.Fatalf("%s: row %d differs: plan %v, interpreter %v", what, i, g[i], w[i])
		}
	}
}

// diffCase is one generated program instance.
type diffCase struct {
	src      string
	params   map[string]int64
	inputs   map[string]diffTable
	arities  map[string]int
	outArity int
	// sortedOut asserts the physical output is additionally sorted.
	sortedOut bool
	// scalar compares the program's scalar result instead of a row bag.
	scalar bool
}

// execDiff lowers and executes one configuration of the case, returning the
// produced rows (or the scalar result) and what the run charged: the clock's
// bits, the device ledger and the pool's counters.
func execDiff(t *testing.T, c diffCase, prog ocal.Expr, batchRows, poolBytes int64) ([][]int32, ocal.Value, string) {
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
	out, err := NewTable(scratch, c.outArity, 4<<10)
	if err != nil {
		t.Fatal(err)
	}
	sink := &Sink{Out: out, Bout: 8, Sim: sim}
	p, err := Lower(prog, LowerOpts{Sim: sim, Inputs: tables, Params: c.params,
		Scratch: scratch, Sink: sink, RAMBytes: 1 << 20,
		PoolBytes: poolBytes, BatchRows: batchRows})
	if err != nil {
		t.Fatalf("lower: %v\n%s", err, c.src)
	}
	if err := p.Run(); err != nil {
		t.Fatalf("run (batch %d, pool %d): %v\n%s", batchRows, poolBytes, err, c.src)
	}
	charges := fmt.Sprintf("clock %016x, ledger %+v, pool %+v",
		math.Float64bits(sim.Clock.Seconds()), scratch.Led, p.Pool().Stats())
	if c.scalar {
		if !p.Scalar {
			t.Fatalf("expected a scalar program, got %T\n%s", p.Root, c.src)
		}
		return nil, p.Result, charges
	}
	return tableRows(out.Flat(), c.outArity), nil, charges
}

// runDiff executes the case at every batch size and pool budget, comparing
// each run against the reference interpreter.
func runDiff(t *testing.T, c diffCase) {
	t.Helper()
	prog, err := ocal.Parse(c.src)
	if err != nil {
		t.Fatalf("generated program does not parse: %v\n%s", err, c.src)
	}
	values := map[string]ocal.Value{}
	for name, dt := range c.inputs {
		v := dt.value
		if v == nil {
			v = ocal.List{}
		}
		values[name] = v
	}
	want, err := interp.Eval(prog, values, c.params)
	if err != nil {
		t.Fatalf("interp: %v\n%s", err, c.src)
	}

	for _, batch := range diffBatchSizes {
		for _, pool := range diffPoolBudgets {
			rows, scalar, charges := execDiff(t, c, prog, batch, pool)
			// The charges are the modelled blocks', whatever the readers'
			// host stride: a row at a time, or a count no block size divides.
			for _, stride := range []int64{1, 7} {
				physStride = stride
				_, _, got := execDiff(t, c, prog, batch, pool)
				physStride = defaultStride
				if got != charges {
					t.Fatalf("%s (batch %d, pool %d) charges at stride %d\n%s, at the default stride\n%s",
						c.src, batch, pool, stride, got, charges)
				}
			}
			if c.scalar {
				if !ocal.ValueEq(scalar, want) {
					t.Fatalf("fold (batch %d, pool %d): plan %s, interpreter %s\n%s",
						batch, pool, scalar, want, c.src)
				}
			} else {
				what := fmt.Sprintf("%s (batch %d, pool %d)", c.src, batch, pool)
				sameBag(t, what, rows, valueRows(t, want))
				if c.sortedOut {
					for i := 1; i < len(rows); i++ {
						if rowLess(rows[i], rows[i-1]) {
							t.Fatalf("output not sorted at row %d: %v > %v\n%s", i, rows[i-1], rows[i], what)
						}
					}
				}
			}
		}
	}
}

func kp(r *rand.Rand) int64 { return int64(r.Intn(7) + 1) }

// TestDifferentialScan: randomized blocked projection/filter scans.
func TestDifferentialScan(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		in := randTable(r, 2, 40, 12)
		var body string
		outArity := 2
		switch r.Intn(4) {
		case 0:
			body = "[x]"
		case 1:
			body = "[<x.2, x.1>]"
		case 2:
			body = fmt.Sprintf("if x.1 == %d then [x] else []", r.Intn(12))
		default:
			body = "[<x.1, (x.2 + x.1)>]"
		}
		runDiff(t, diffCase{
			src:      fmt.Sprintf("for (xB [k1] <- R) for (x <- xB) %s", body),
			params:   map[string]int64{"k1": kp(r)},
			inputs:   map[string]diffTable{"R": in},
			arities:  map[string]int{"R": 2},
			outArity: outArity,
		})
	}
}

// TestDifferentialBNLJoin: randomized blocked nested-loop equi-joins and
// products.
func TestDifferentialBNLJoin(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(100 + seed))
		R := randTable(r, 2, 16, 6)
		S := randTable(r, 2, 16, 6)
		kx, ky := r.Intn(2)+1, r.Intn(2)+1
		var body string
		if r.Intn(4) == 0 {
			body = "[<x, y>]" // product
		} else {
			body = fmt.Sprintf("if x.%d == y.%d then [<x, y>] else []", kx, ky)
		}
		src := fmt.Sprintf(
			"for (xB [k1] <- R) for (yB [k2] <- S) for (x <- xB) for (y <- yB) %s", body)
		runDiff(t, diffCase{
			src:      src,
			params:   map[string]int64{"k1": kp(r), "k2": kp(r)},
			inputs:   map[string]diffTable{"R": R, "S": S},
			arities:  map[string]int{"R": 2, "S": 2},
			outArity: 4,
		})
	}
}

// TestDifferentialHashJoin: randomized GRACE hash joins.
func TestDifferentialHashJoin(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(200 + seed))
		R := randTable(r, 2, 24, 8)
		S := randTable(r, 2, 24, 8)
		src := "flatMap(\\<p1, p2> -> for (xB [k1] <- p1) for (yB [k2] <- p2) " +
			"for (x <- xB) for (y <- yB) if x.1 == y.1 then [<x, y>] else [])" +
			"(zip[2](partition[s](R), partition[s](S)))"
		runDiff(t, diffCase{
			src:      src,
			params:   map[string]int64{"k1": kp(r), "k2": kp(r), "s": int64(r.Intn(6) + 2)},
			inputs:   map[string]diffTable{"R": R, "S": S},
			arities:  map[string]int{"R": 2, "S": 2},
			outArity: 4,
		})
	}
}

// TestDifferentialExtSort: randomized external merge sorts. The operator
// must produce the sorted permutation; the interpreter run is compared as a
// bag (the OCAL merge applied to unsorted runs preserves the multiset,
// which is the equivalence the rule library's oracle checks).
func TestDifferentialExtSort(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(300 + seed))
		in := randTable(r, 1, 48, 1<<16)
		// The OCAL sorting convention (see the rule tests and bench_test):
		// the input is a list of singleton runs, so the identity scan feeds
		// mrg sorted lists. The physical table stays a flat int column.
		for i, v := range in.value {
			in.value[i] = ocal.List{v}
		}
		way := []int{2, 4, 8}[r.Intn(3)]
		pow := map[int]int{2: 1, 4: 2, 8: 3}[way]
		src := fmt.Sprintf(
			"treeFold[%d][bout]([], unfoldR[bin](funcPow[%d](mrg)))(for (xB [k1] <- R) xB)",
			way, pow)
		runDiff(t, diffCase{
			src: src,
			// k1 >= 2: a k=1 block loop yields elements instead of runs
			// (a shape the synthesizer's apply-block never produces).
			params:    map[string]int64{"bin": kp(r), "bout": kp(r), "k1": int64(r.Intn(6) + 2)},
			inputs:    map[string]diffTable{"R": in},
			arities:   map[string]int{"R": 1},
			outArity:  1,
			sortedOut: true,
		})
	}
}

// TestDifferentialFold: randomized streaming aggregations (scan + foldL).
func TestDifferentialFold(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(400 + seed))
		in := randTable(r, 2, 40, 20)
		var fold string
		switch r.Intn(3) {
		case 0:
			fold = "foldL(0, \\<a, x> -> (a + x.2))"
		case 1:
			fold = "foldL(<0, 0>, \\<a, x> -> <(a.1 + x.1), (a.2 + 1)>)"
		default:
			fold = "foldL(0, \\<a, x> -> (a + 1))"
		}
		runDiff(t, diffCase{
			src:      fmt.Sprintf("%s(for (xB [k1] <- R) xB)", fold),
			params:   map[string]int64{"k1": kp(r)},
			inputs:   map[string]diffTable{"R": in},
			arities:  map[string]int{"R": 2},
			outArity: 1,
			scalar:   true,
		})
	}
}

// TestDifferentialComposed: randomized programs whose operator inputs are
// themselves lowered subexpressions — the compositions the whole-program
// matcher rejected outright.
func TestDifferentialComposed(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		r := rand.New(rand.NewSource(500 + seed))
		R := randTable(r, 2, 20, 6)
		S := randTable(r, 2, 20, 6)
		// The join bodies build flat tuples (<x.1, x.2, y.1, y.2>) so the
		// interpreter's value and the flat physical row layout coincide for
		// the downstream consumer.
		flatJoin := "for (xB [k1] <- R) for (yB [k2] <- S) " +
			"for (x <- xB) for (y <- yB) if x.1 == y.1 then [<x.1, x.2, y.1, y.2>] else []"
		switch seed % 3 {
		case 0:
			// Fold over a nested-loop join.
			runDiff(t, diffCase{
				src:      "foldL(0, \\<a, x> -> (a + x.2))(" + flatJoin + ")",
				params:   map[string]int64{"k1": kp(r), "k2": kp(r)},
				inputs:   map[string]diffTable{"R": R, "S": S},
				arities:  map[string]int{"R": 2, "S": 2},
				outArity: 1,
				scalar:   true,
			})
		case 1:
			// Projection over a join: the join output streams into the scan.
			runDiff(t, diffCase{
				src:      "for (wB [k3] <- " + flatJoin + ") for (w <- wB) [<w.2, w.4>]",
				params:   map[string]int64{"k1": kp(r), "k2": kp(r), "k3": kp(r)},
				inputs:   map[string]diffTable{"R": R, "S": S},
				arities:  map[string]int{"R": 2, "S": 2},
				outArity: 2,
			})
		default:
			// Three-way join: a join whose outer side is another join
			// (the inner side materializes to a scratch spill for rescans).
			T := randTable(r, 2, 12, 6)
			runDiff(t, diffCase{
				src: "for (pB [k3] <- " + flatJoin + ") " +
					"for (tB [k4] <- T) for (p <- pB) for (tt <- tB) " +
					"if p.3 == tt.1 then [<p.1, p.2, p.3, p.4, tt.1, tt.2>] else []",
				params: map[string]int64{"k1": kp(r), "k2": kp(r), "k3": kp(r), "k4": kp(r)},
				inputs: map[string]diffTable{"R": R, "S": S, "T": T},
				arities: map[string]int{
					"R": 2, "S": 2, "T": 2,
				},
				outArity: 6,
			})
		}
	}
}

// TestConcurrentPrograms executes the same program concurrently on separate
// simulators and pools; under -race this proves lowered programs share no
// mutable state.
func TestConcurrentPrograms(t *testing.T) {
	src := "flatMap(\\<p1, p2> -> for (xB [k1] <- p1) for (yB [k2] <- p2) " +
		"for (x <- xB) for (y <- yB) if x.1 == y.1 then [<x, y>] else [])" +
		"(zip[2](partition[s](R), partition[s](S)))"
	prog := ocal.MustParse(src)
	r := rand.New(rand.NewSource(77))
	R := randTable(r, 2, 32, 8)
	S := randTable(r, 2, 32, 8)
	params := map[string]int64{"k1": 4, "k2": 4, "s": 4}

	want, err := interp.Eval(prog, map[string]ocal.Value{"R": R.value, "S": S.value}, params)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rows, _, _ := execDiff(t, diffCase{
				src:     src,
				inputs:  map[string]diffTable{"R": R, "S": S},
				arities: map[string]int{"R": 2, "S": 2}, outArity: 4,
				params: params,
			}, prog, 7, 1<<10)
			sameBag(t, "concurrent "+src, rows, valueRows(t, want))
		}()
	}
	wg.Wait()
}
