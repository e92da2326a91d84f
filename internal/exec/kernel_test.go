package exec

import (
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

// kernelRun is one lowered execution of a case, with the error kept
// instead of failing the test — error parity with the interpreter is part
// of the kernel contract.
type kernelRun struct {
	rows   [][]int32
	scalar ocal.Value
	err    error
	prog   *Program
}

// runKernelCase lowers and runs one case.
func runKernelCase(t *testing.T, c diffCase, prog ocal.Expr, batch, pool int64) kernelRun {
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
	// The output table takes the first batch's arity: a body that fails on a
	// late row has emitted rows by then, as wide as it makes them.
	sink := &Sink{Bout: 8, Sim: sim, Alloc: func(arity int) (*Table, error) {
		return NewTable(scratch, arity, 4<<10)
	}}
	p, err := Lower(prog, LowerOpts{Sim: sim, Inputs: tables, Params: c.params,
		Scratch: scratch, Sink: sink, RAMBytes: 1 << 20,
		PoolBytes: pool, BatchRows: batch})
	if err != nil {
		t.Fatalf("lower: %v\n%s", err, c.src)
	}
	run := kernelRun{prog: p}
	run.err = p.Run()
	if run.err == nil && p.Scalar {
		run.scalar = p.Result
	} else if run.err == nil && sink.Out != nil {
		run.rows = tableRows(sink.Out.Flat(), sink.Out.Arity)
	}
	return run
}

// inputValues are a case's inputs as interp takes them.
func inputValues(c diffCase) map[string]ocal.Value {
	values := map[string]ocal.Value{}
	for name, dt := range c.inputs {
		values[name] = append(ocal.List{}, dt.value...)
	}
	return values
}

// assertMatchesInterp runs a case and requires the outcome internal/interp
// evaluates for the same program: the same row bag (or scalar), or the
// exact same error text.
func assertMatchesInterp(t *testing.T, c diffCase, batch, pool int64) kernelRun {
	t.Helper()
	prog, err := ocal.Parse(c.src)
	if err != nil {
		t.Fatalf("program does not parse: %v\n%s", err, c.src)
	}
	want, wantErr := interp.Eval(prog, inputValues(c), c.params)
	got := runKernelCase(t, c, prog, batch, pool)
	what := fmt.Sprintf("%s (batch %d, pool %d)", c.src, batch, pool)
	switch {
	case wantErr != nil || got.err != nil:
		if wantErr == nil || got.err == nil || wantErr.Error() != got.err.Error() {
			t.Fatalf("%s: interp error %v, plan error %v", what, wantErr, got.err)
		}
	case c.scalar:
		if !ocal.ValueEq(got.scalar, want) {
			t.Fatalf("%s: plan scalar %s, interp %s", what, got.scalar, want)
		}
	default:
		sameBag(t, what, got.rows, valueRows(t, want))
	}
	return got
}

// twoColTable builds a deterministic arity-2 table.
func twoColTable(n int, f func(i int) (int32, int32)) diffTable {
	var dt diffTable
	for i := 0; i < n; i++ {
		a, b := f(i)
		dt.rows = append(dt.rows, a, b)
		dt.value = append(dt.value, ocal.Tuple{ocal.Int(int64(a)), ocal.Int(int64(b))})
	}
	return dt
}

// TestScanTreeShapes: bodies beyond one row under one condition — nested
// conditionals, a row in the else branch, concatenations — walk their
// decision tree per row and produce interp's result.
func TestScanTreeShapes(t *testing.T) {
	in := twoColTable(50, func(i int) (int32, int32) { return int32(i % 7), int32(i) })
	cases := []string{
		// Nested if: Then is not a Single.
		"for (xB [k1] <- R) for (x <- xB) if x.1 < 3 then (if x.2 < 25 then [x] else []) else []",
		// Non-empty else branch.
		"for (xB [k1] <- R) for (x <- xB) if x.1 < 3 then [x] else [<x.2, x.1>]",
		// Two-row output.
		"for (xB [k1] <- R) for (x <- xB) ([x] ++ [<x.2, x.1>])",
		// A concatenation of conditionals, a row only in the else branch, no row at all.
		"for (xB [k1] <- R) for (x <- xB) ((if x.1 < 3 then [x] else []) ++ (if x.2 % 2 == 0 then [] else [<x.2, 0>]))",
		"for (xB [k1] <- R) for (x <- xB) if x.1 < 3 then [] else [x]",
		"for (xB [k1] <- R) for (x <- xB) []",
		// A conditional scalar inside the row.
		"for (xB [k1] <- R) for (x <- xB) [<x.1, (if x.1 < x.2 then x.2 else x.1)>]",
	}
	for _, src := range cases {
		for _, batch := range []int64{1, 7, 64} {
			c := diffCase{src: src, params: map[string]int64{"k1": 4},
				inputs: map[string]diffTable{"R": in}, arities: map[string]int{"R": 2}}
			if run := assertMatchesInterp(t, c, batch, 0); run.err != nil {
				t.Fatalf("%s: run failed: %v", src, run.err)
			}
		}
	}
}

// TestScanTreeLazyBranches: a branch the condition does not select never
// evaluates, so its division by zero never fails — in a body and in a
// conditional scalar — and one that is selected fails with interp's text.
func TestScanTreeLazyBranches(t *testing.T) {
	in := twoColTable(30, func(i int) (int32, int32) { return int32(i), int32(i % 5) })
	for _, src := range []string{
		"for (xB [k1] <- R) for (x <- xB) if x.2 == 0 then [] else (if (x.1 / x.2) < 3 then [x] else [<x.2, x.1>])",
		"for (xB [k1] <- R) for (x <- xB) [<x.1, (if x.2 == 0 then 0 else (x.1 / x.2))>]",
		"for (xB [k1] <- R) for (x <- xB) if x.1 < 7 then [x] else [<(x.1 % x.2), 1>]",
		"foldL(0, \\<a, x> -> if x.2 == 0 then a else (a + (x.1 / x.2)))(for (xB [k1] <- R) xB)",
		"foldL(0, \\<a, x> -> if x.1 < 7 then a else (a + (x.1 / x.2)))(for (xB [k1] <- R) xB)",
	} {
		assertMatchesInterp(t, diffCase{
			src: src, params: map[string]int64{"k1": 4},
			inputs: map[string]diffTable{"R": in}, arities: map[string]int{"R": 2},
			scalar: strings.HasPrefix(src, "foldL"),
		}, 7, 0)
	}
}

// TestKernelArityErrors: a body that parses but references what the input
// arity does not have (an out-of-range column, a projection of a scalar row,
// a whole row in arithmetic) fails with interp's runtime error, on the row
// where interp evaluates the reference — and not at all on an empty input or
// behind a condition that never selects it.
func TestKernelArityErrors(t *testing.T) {
	in := twoColTable(20, func(i int) (int32, int32) { return int32(i), int32(i * 2) })
	var col diffTable
	for i := 0; i < 20; i++ {
		col.rows = append(col.rows, int32(i))
		col.value = append(col.value, ocal.Int(int64(i)))
	}
	pairs := func(src string, dt diffTable, scalar bool) {
		t.Helper()
		assertMatchesInterp(t, diffCase{
			src: src, params: map[string]int64{"k1": 4},
			inputs: map[string]diffTable{"R": dt}, arities: map[string]int{"R": 2}, scalar: scalar,
		}, 7, 0)
	}
	ints := func(src string) {
		t.Helper()
		assertMatchesInterp(t, diffCase{
			src: src, params: map[string]int64{"k1": 4},
			inputs: map[string]diffTable{"L": col}, arities: map[string]int{"L": 1},
		}, 7, 0)
	}
	// Column out of range at arity 2: never a silent read of a wrong column.
	pairs("for (xB [k1] <- R) for (x <- xB) [x.3]", in, false)
	// Projection of an arity-1 row (a bare Int to interp).
	ints("for (xB [k1] <- L) for (x <- xB) [x.1]")
	// Whole-element arithmetic works at arity 1 and fails at arity 2, after
	// both operands evaluated.
	ints("for (xB [k1] <- L) for (x <- xB) [(x + 1)]")
	pairs("for (xB [k1] <- R) for (x <- xB) [(x + 1)]", in, false)
	pairs("for (xB [k1] <- R) for (x <- xB) [((x.2 / x.1) + x)]", in, false)
	pairs("foldL(0, \\<a, x> -> (a + x))(for (xB [k1] <- R) xB)", in, true)
	// The failing leaf only fails where it evaluates.
	pairs("for (xB [k1] <- R) for (x <- xB) if x.1 < 12 then [x] else [<x.3, 1>]", in, false)
	pairs("for (xB [k1] <- R) for (x <- xB) if x.1 < 100 then [x] else [<x.3, 1>]", in, false)
	pairs("for (xB [k1] <- R) for (x <- xB) [x.3]", diffTable{}, false)
	pairs("foldL(7, \\<a, x> -> (a + x.3))(for (xB [k1] <- R) xB)", diffTable{}, true)
	// Compared as an integer, a whole row has no interp error to reproduce
	// (== answers false, an order panics): the executor's own.
	c := diffCase{src: "for (xB [k1] <- R) for (x <- xB) if x == 3 then [x] else []", params: map[string]int64{"k1": 4},
		inputs: map[string]diffTable{"R": in}, arities: map[string]int{"R": 2}}
	if run := runKernelCase(t, c, ocal.MustParse(c.src), 7, 0); run.err == nil ||
		run.err.Error() != "exec: a row of 2 attributes used as an integer" {
		t.Errorf("%s: error %v", c.src, run.err)
	}
}

// requireLowering lowers src over one two-column table R and requires
// success (want empty), or an error saying want and printing the grammar.
func requireLowering(t *testing.T, src, want, grammar string) {
	t.Helper()
	sim, scratch, tb := allocTable(t)
	_, err := Lower(ocal.MustParse(src), LowerOpts{Sim: sim, Inputs: map[string]*Table{"R": tb},
		Scratch: scratch, Sink: &Sink{Sim: sim}})
	switch {
	case want == "" && err != nil:
		t.Errorf("%s: %v", src, err)
	case want != "" && (err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), grammar)):
		t.Errorf("%s: error %v, want %q and the grammar", src, err, want)
	}
}

// TestScanGrammarRejects: a scan body outside the grammar does not lower,
// and the error prints the grammar. A ragged body is inside it: widths only
// show with the arity (see plan's TestRaggedBodyFails).
func TestScanGrammarRejects(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{`for (x <- R) if x.1 < 3 then [x] else [<x.2>]`, ""},
		{`for (x <- R) ([] ++ (if true then [<x, 1>] else []))`, ""},
		{`for (x <- R) [head([x.1])]`, "unsupported row head([x.1])"},
		{`for (x <- R) [<x.1, [x.2]>]`, "unsupported row "},
		{`for (x <- R) [<x.1, y>]`, "unsupported row "},
		{`for (x <- R) if length([x]) == 1 then [x] else []`, "unsupported condition "},
		{`for (x <- R) if x.1 then [x] else []`, "unsupported condition x.1"},
		{`for (x <- R) <x.2, x.1>`, "is not a list of rows"},
		{`for (x <- R) ([x] ++ R)`, "R is not a list of rows"},
		{`for (x <- R) if x.1 < 3 then [x] else tail([x])`, "tail([x]) is not a list of rows"},
	} {
		requireLowering(t, tc.src, tc.want, bodyGrammar)
	}
}

// TestFoldGrammarRejects is the fold counterpart: init, step and final
// lambda outside the grammar.
func TestFoldGrammarRejects(t *testing.T) {
	const avg = `(foldL(<0, 0>, \<a, x> -> <a.1 + x.1, a.2 + 1>)(R))`
	for _, tc := range []struct{ src, want string }{
		{`foldL(7 - 8, \<a, x> -> if a < x.1 then x.1 else a)(R)`, ""},
		{`(\a -> <a.2, (if a.2 == 0 then 0 else a.1 / a.2)>)` + avg, ""},
		// The insertion sort of Table 1: a merge over lists, which only runs
		// as the treeFold the rules make of it.
		{`foldL([], unfoldR(mrg))(R)`, "unfoldR(mrg) is not a step"},
		{`foldL(0, \<a, x> -> a.1 + x.1)(R)`, "unsupported scalar a.1 + x.1"},
		{`foldL(<0, 0>, \<a, x> -> <a + x.1, 1>)(R)`, "unsupported scalar a + x.1"},
		{`foldL(<0, 0>, \<a, x> -> a.1 + x.1)(R)`, "the step builds 1 components, init has 2"},
		{`foldL(0, \<a, x> -> a + length([x]))(R)`, "unsupported scalar "},
		{`foldL(R, \<a, x> -> a)(R)`, "init: unsupported scalar R"},
		{`foldL(1 / 0, \<a, x> -> a)(R)`, "init: interp: division by zero"},
		{`(\a -> a.3)` + avg, "unsupported scalar a.3"},
		{`(\a -> [<a.1, <a.2, 1>>])` + avg, "unsupported scalar <a.2, 1>"},
		{`(\a -> [a.1] ++ [a.2])` + avg, "unsupported scalar "},
	} {
		requireLowering(t, tc.src, tc.want, bodyGrammar)
	}
}

// TestKernelErrorParity: Div/Mod by zero must fail with the interpreter's
// exact error, on the same row — in output position and in the filter.
func TestKernelErrorParity(t *testing.T) {
	in := twoColTable(30, func(i int) (int32, int32) { return int32(i), int32(i % 5) }) // some zeros in col 2
	for _, src := range []string{
		"for (xB [k1] <- R) for (x <- xB) [(x.1 / x.2)]",
		"for (xB [k1] <- R) for (x <- xB) [(x.1 % x.2)]",
		"for (xB [k1] <- R) for (x <- xB) if (x.1 / x.2) < 2 then [x] else []",
		// The error hides behind a condition that is already decided: interp
		// evaluates both comparison operands eagerly, so must the kernel.
		"for (xB [k1] <- R) for (x <- xB) if x.1 < 0 and (x.1 / x.2) < 2 then [x] else []",
	} {
		for _, batch := range []int64{1, 7, 64} {
			assertMatchesInterp(t, diffCase{
				src:    src,
				params: map[string]int64{"k1": 4},
				inputs: map[string]diffTable{"R": in}, arities: map[string]int{"R": 2},
			}, batch, 0)
		}
	}
	// A fold step that divides by a column with zeros.
	assertMatchesInterp(t, diffCase{
		src:    "foldL(0, \\<a, x> -> (a + (x.1 / x.2)))(for (xB [k1] <- R) xB)",
		params: map[string]int64{"k1": 4},
		inputs: map[string]diffTable{"R": in}, arities: map[string]int{"R": 2},
		scalar: true,
	}, 7, 0)
}

// TestProjKernelModes: a body runs as the selection-vector kernel only when
// it is one row under at most one condition and nothing in it can fail;
// everything else walks its tree.
func TestProjKernelModes(t *testing.T) {
	for _, tc := range []struct {
		body string
		tree bool
	}{
		{"[x]", false},
		{"if x.1 < 3 then [x] else []", false},
		{"if x.1 == x.2 then [<x, x.1>] else []", false},
		{"if x.1 < 3 then [<x.1, (x.2 + 1)>] else []", false},
		{"[<(x.1 * x.2)>]", false},
		{"if x.1 < 3 then [<x.1, (x.2 / 2)>] else []", true},
		{"if (x.1 % 2) == 0 then [x] else []", true},
		{"[x.3]", true}, // binds to a failing leaf at arity 2
		{"if x.1 < 3 then [] else [x]", true},
		{"[x] ++ [x]", true},
	} {
		body, err := parseScanBody(ocal.MustParse(tc.body), kvars{elem: "x"})
		if err != nil {
			t.Fatalf("%s: %v", tc.body, err)
		}
		k, err := newProjKernel(body, 2)
		if err != nil {
			t.Fatalf("%s: %v", tc.body, err)
		}
		if tree := k.tree != nil; tree != tc.tree {
			t.Errorf("%s walks its tree: %v, want %v", tc.body, tree, tc.tree)
		}
	}
}

// TestSelRangeMatchesCompare: the selection pass's range test agrees with
// the comparison it stands for, for every operator, literals far outside the
// int32 range and values at its ends.
func TestSelRangeMatchesCompare(t *testing.T) {
	vals := []int32{math.MinInt32, math.MinInt32 + 1, -7, -1, 0, 1, 7, math.MaxInt32 - 1, math.MaxInt32}
	lits := []int64{math.MinInt64, math.MinInt64 + 1, math.MinInt32 - 2, math.MinInt32 - 1, math.MinInt32,
		-7, -1, 0, 1, 7, math.MaxInt32, math.MaxInt32 + 1, math.MaxInt32 + 2, math.MaxInt64 - 1, math.MaxInt64}
	k := &projKernel{}
	for _, op := range []ocal.PrimOp{ocal.OpEq, ocal.OpNe, ocal.OpLt, ocal.OpLe, ocal.OpGt, ocal.OpGe} {
		for _, lit := range lits {
			k.cond = &kexpr{kind: kCmp, op: op, l: &kexpr{kind: kCol}, r: &kexpr{kind: kLit, lit: lit}}
			var want []int32
			for i, v := range vals {
				if cmpHolds(op, int64(v), lit) {
					want = append(want, int32(i))
				}
			}
			if got := k.buildSel([][]int32{vals}, len(vals)); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("op %v, literal %d: selected %v, want %v", op, lit, got, want)
			}
		}
	}
}

// TestKernelShapes sweeps the kernel grammar's corners — predicate shapes,
// projection modes, whole-row splices, fold accumulators — against interp.
func TestKernelShapes(t *testing.T) {
	r := rand.New(rand.NewSource(4242))
	in := randTable(r, 3, 60, 9)
	srcs := []string{
		"for (xB [k1] <- R) for (x <- xB) [x]",                            // identity
		"for (xB [k1] <- R) for (x <- xB) [<x.3, x.1>]",                   // gather
		"for (xB [k1] <- R) for (x <- xB) [<x.1, (x.2 * x.3), 7>]",        // general scalars
		"for (xB [k1] <- R) for (x <- xB) [<x, x.1>]",                     // whole-row splice
		"for (xB [k1] <- R) for (x <- xB) if x.2 < 5 then [x] else []",    // col < lit
		"for (xB [k1] <- R) for (x <- xB) if x.1 == x.3 then [x] else []", // col == col
		"for (xB [k1] <- R) for (x <- xB) if 3 <= x.2 then [x] else []",   // lit on the left
		"for (xB [k1] <- R) for (x <- xB) if true then [<x.2>] else []",   // const cond
		"for (xB [k1] <- R) for (x <- xB) if not (x.1 == 2) then [x] else []",
		"for (xB [k1] <- R) for (x <- xB) if x.1 < 4 and x.2 < 6 then [<x.1, x.2>] else []",
		"for (xB [k1] <- R) for (x <- xB) if x.1 == 1 or x.3 == 2 then [x] else []",
		"for (xB [k1] <- R) for (x <- xB) if (x.1 + x.2) < (x.3 * 2) then [x] else []",
		"foldL(0, \\<a, x> -> (a + x.2))(for (xB [k1] <- R) xB)",
		"foldL(<0, 0>, \\<a, x> -> <(a.1 + x.1), (a.2 + 1)>)(for (xB [k1] <- R) xB)",
		"foldL(<1, 0>, \\<a, x> -> <(a.2 + x.3), a.1>)(for (xB [k1] <- R) xB)", // components read old acc
	}
	for _, src := range srcs {
		scalar := strings.HasPrefix(src, "foldL")
		for _, batch := range []int64{1, 7, 64} {
			for _, pool := range diffPoolBudgets {
				assertMatchesInterp(t, diffCase{
					src:    src,
					params: map[string]int64{"k1": 5},
					inputs: map[string]diffTable{"R": in}, arities: map[string]int{"R": 3},
					scalar: scalar,
				}, batch, pool)
			}
		}
	}
}

// The zero-alloc suites' bodies: a filter+projection, which runs as the
// selection-vector kernel, a nested conditional, which walks its tree, and a
// filter+projection that can fail, which walks its tree too.
const (
	allocKernelBody  = "if x.1 < 50 then [<x.1, (x.2 + x.1)>] else []"
	allocTreeBody    = "if x.1 < 50 then (if x.2 % 2 == 0 then [x] else [<x.2, x.1>]) else []"
	allocCheckedBody = "if x.1 < 50 then [<x.1, (x.2 / (x.1 + 1))>] else []"
)

// allocBodies names the zero-alloc suites' bodies.
var allocBodies = map[string]string{"fused": allocKernelBody, "tree": allocTreeBody, "checked": allocCheckedBody}

// TestStepZeroAllocs: a Project allocates nothing per Next in steady state,
// whichever way its body runs.
func TestStepZeroAllocs(t *testing.T) {
	for name, body := range allocBodies {
		p := buildProject(t, body)
		if allocs := steadyAllocs(t, p); allocs > 0 {
			t.Errorf("%s Project.Next allocates %.1f times per call in steady state", name, allocs)
		}
		p.Close()
	}
}

// allocProject parses body into a Project over in.
func allocProject(t testing.TB, in Input, body string) *Project {
	p, err := project(in, 64, ocal.MustParse(body), "x")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// buildProject assembles body over the alloc table, opened and ready to Next.
func buildProject(t testing.TB, body string) *Project {
	sim, scratch, tb := allocTable(t)
	p := allocProject(t, TableInput(tb), body)
	if err := p.Open(&Ctx{Sim: sim, Pool: storage.NewBufferPool(0), Scratch: scratch}); err != nil {
		t.Fatal(err)
	}
	return p
}

// steadyAllocs warms the operator up (the first Next pins the frame, grows
// the emitter and builds the kernel) and measures steady-state allocations
// per Next call.
func steadyAllocs(t *testing.T, p *Project) float64 {
	t.Helper()
	var b Batch
	for i := 0; i < 4; i++ {
		if ok, err := p.Next(&b); err != nil || !ok {
			t.Fatalf("warm-up Next: ok=%v err=%v", ok, err)
		}
	}
	return testing.AllocsPerRun(200, func() {
		if ok, err := p.Next(&b); err != nil || !ok {
			t.Fatalf("Next: ok=%v err=%v", ok, err)
		}
	})
}

// allocTable preloads the shared two-column test table for the zero-alloc
// suites: column 1 cycles 0..99 (5% survive "< 5", 50% survive "< 50"),
// column 2 is the row number.
func allocTable(t testing.TB) (*storage.Sim, *storage.Device, *Table) {
	sim := storage.NewSim(memory.HDDRAM(64 * memory.MiB))
	scratch, err := sim.Device("hdd")
	if err != nil {
		t.Fatal(err)
	}
	const rows = 1 << 16
	data := make([]int32, 0, rows*2)
	for i := 0; i < rows; i++ {
		data = append(data, int32(i%100), int32(i))
	}
	tb, err := NewTable(scratch, 2, rows+8)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Preload(data); err != nil {
		t.Fatal(err)
	}
	return sim, scratch, tb
}

// TestChainStepZeroAllocs: the opReader re-batching path — an outer
// Project consuming an inner Project through OpInput — allocates nothing
// per Next in steady state, whether the outer body runs as a fused kernel
// or walks its tree. fill appends into reused carry vectors, pop hands out
// column views, and the outer body appends into the reused emitter.
func TestChainStepZeroAllocs(t *testing.T) {
	for name, body := range allocBodies {
		t.Run(name, func(t *testing.T) {
			p := buildChain(t, body)
			defer p.Close()
			if allocs := steadyAllocs(t, p); allocs > 0 {
				t.Errorf("%s chained Project.Next allocates %.1f times per call in steady state", name, allocs)
			}
		})
	}
}

// buildChain assembles inner-pass → outer body with the outer reading
// through opReader, opened and ready to Next.
func buildChain(t testing.TB, body string) *Project {
	sim, scratch, tb := allocTable(t)
	inner := allocProject(t, TableInput(tb), "[x]")
	p := allocProject(t, OpInput(inner), body)
	if err := p.Open(&Ctx{Sim: sim, Pool: storage.NewBufferPool(0), Scratch: scratch}); err != nil {
		t.Fatal(err)
	}
	return p
}

// BenchmarkStepAllocs reports allocations per steady-state Next call of
// every Project path (the contract: 0 allocs/op).
func BenchmarkStepAllocs(b *testing.B) {
	for _, bc := range []struct {
		name  string
		build func() *Project
	}{
		{"kernel", func() *Project { return buildProject(b, allocKernelBody) }},
		{"tree", func() *Project { return buildProject(b, allocTreeBody) }},
		{"checked", func() *Project { return buildProject(b, allocCheckedBody) }},
		{"chain", func() *Project { return buildChain(b, allocKernelBody) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			p := bc.build()
			defer func() { p.Close() }()
			var bt Batch
			for i := 0; i < 4; i++ {
				if ok, err := p.Next(&bt); err != nil || !ok {
					b.Fatalf("warm-up Next: ok=%v err=%v", ok, err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ok, err := p.Next(&bt)
				if err != nil {
					b.Fatal(err)
				}
				if !ok { // input exhausted: rewind by rebuilding
					b.StopTimer()
					p.Close()
					p = bc.build()
					b.StartTimer()
				}
			}
		})
	}
}

// FuzzKernelVsInterp feeds generated scan/filter/project, fold and unfoldR
// step shapes to the executor and requires internal/interp's outcome: a
// bag-equal result, or the same error text.
func FuzzKernelVsInterp(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(2), uint8(3))
	f.Add(int64(3), uint8(7))
	f.Add(int64(4), uint8(12))
	for seed := int64(5); seed < 25; seed++ {
		f.Add(seed, uint8(6+seed%4)) // the step shapes
	}
	f.Add(int64(1124), uint8(6)) // a running sum past int32 decides a later branch
	for seed := int64(30); seed < 60; seed++ {
		f.Add(seed, uint8(12+seed%6)) // body trees, conditional scalars, final lambdas
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		c, batch := kernelCase(seed, shape)
		if _, err := ocal.Parse(c.src); err != nil {
			t.Skipf("%v: %s", err, c.src) // the generator hit a non-parsing corner (e.g. bare x in arith)
		}
		// Some generated shapes are not valid interp programs at all (x as
		// an arithmetic operand, x.3 on arity 2 …): then the executor must
		// fail identically, which assertMatchesInterp covers.
		assertMatchesInterp(t, c, batch, 0)
	})
}

// kernelCase draws FuzzKernelVsInterp's case for (seed, shape) and the batch
// size to run it at. Of eighteen shapes, 0-5 are the one-row scan bodies and
// arithmetic folds below, 6-11 the four kinds of unfoldR step (the generated
// lambdas twice) and 12-17 body trees, conditional scalars and final
// lambdas.
func kernelCase(seed int64, shape uint8) (diffCase, int64) {
	r := rand.New(rand.NewSource(seed))
	shape %= 18
	if shape >= 6 && shape < 12 {
		c := stepCase(r, int(shape-6)%4)
		return c, int64(r.Intn(8) + 1)
	}
	in := randTable(r, 2, 24, 6)
	cols := []string{"x.1", "x.2", "x", "x.3", fmt.Sprint(r.Intn(5))}
	scalar := func() string { return cols[r.Intn(len(cols))] }
	// Comparisons never take the whole element: on an Int-vs-Tuple
	// comparison the reference interpreter panics (ocal.ValueCompare) or
	// answers false (==), where the executor fails with an error of its
	// own ("a row of 2 attributes used as an integer") — outside this
	// fuzzer's contract (parity with interp on well-typed comparisons).
	cmpable := []string{"x.1", "x.2", "x.3", fmt.Sprint(r.Intn(5))}
	cmpScalar := func() string { return cmpable[r.Intn(len(cmpable))] }
	arith := func() string {
		ops := []string{"+", "-", "*", "/", "%"}
		return fmt.Sprintf("(%s %s %s)", scalar(), ops[r.Intn(len(ops))], scalar())
	}
	cmp := func() string {
		ops := []string{"==", "!=", "<", "<=", ">", ">="}
		l, rr := cmpScalar(), cmpScalar()
		if r.Intn(3) == 0 {
			l = arith()
		}
		return fmt.Sprintf("%s %s %s", l, ops[r.Intn(len(ops))], rr)
	}
	// The widened grammar. Every row is two attributes wide: interp would
	// run a ragged body, the executor refuses it when it binds the arity.
	condScalar := func() string {
		return fmt.Sprintf("(if %s then %s else %s)", cmp(), arith(), cmpScalar())
	}
	rowLit := func() string {
		switch r.Intn(4) {
		case 0:
			return "[x]"
		case 1:
			return "[<x.2, x.1>]"
		case 2:
			return fmt.Sprintf("[<%s, %s>]", cmpScalar(), condScalar())
		}
		return fmt.Sprintf("[<%s, %s>]", arith(), cmpScalar())
	}
	var body func(depth, kind int) string
	body = func(depth, kind int) string {
		switch {
		case depth == 0 || kind == 0:
			return rowLit()
		case kind == 1:
			return "[]"
		case kind == 2:
			return fmt.Sprintf("(%s ++ %s)", body(depth-1, r.Intn(5)), body(depth-1, r.Intn(5)))
		}
		return fmt.Sprintf("(if %s then %s else %s)", cmp(), body(depth-1, r.Intn(5)), body(depth-1, r.Intn(5)))
	}
	var src string
	isScalar := false
	switch shape {
	case 12: // nested conditionals
		src = fmt.Sprintf("for (xB [k1] <- R) for (x <- xB) if %s then %s else %s", cmp(), body(2, 3), body(1, r.Intn(5)))
	case 13: // a row in the else branch
		src = fmt.Sprintf("for (xB [k1] <- R) for (x <- xB) if %s then %s else %s", cmp(), rowLit(), rowLit())
	case 14: // concatenations
		src = "for (xB [k1] <- R) for (x <- xB) " + body(3, 2)
	case 15: // a conditional scalar in the filter and in the row
		src = fmt.Sprintf("for (xB [k1] <- R) for (x <- xB) if %s < %s then [<%s, %s>] else []",
			condScalar(), cmpScalar(), condScalar(), cmpScalar())
	case 16: // max/min-style folds: the accumulator decides
		ops := []string{"<", "<=", ">", ">=", "==", "!="}
		src = fmt.Sprintf("foldL(%d, \\<a, x> -> if a %s %s then %s else a)(for (xB [k1] <- R) xB)",
			r.Intn(4), ops[r.Intn(len(ops))], cmpScalar(), arith())
		isScalar = true
	case 17: // a final lambda over the accumulator
		finals := []string{"[(a.1 / (a.2 + %d))]", "(a.1 %% (a.2 + %d))", "<a.2, (a.1 - %d)>", "[<(if a.1 < a.2 then a.1 else a.2), %d>]"}
		src = fmt.Sprintf("(\\a -> "+finals[r.Intn(len(finals))]+")(foldL(<0, %d>, \\<a, x> -> <(a.1 + %s), (a.2 + 1)>)(for (xB [k1] <- R) xB))",
			r.Intn(2), r.Intn(2), cmpScalar())
		isScalar = true
	case 0:
		src = fmt.Sprintf("for (xB [k1] <- R) for (x <- xB) [<%s, %s>]", scalar(), arith())
	case 1:
		src = fmt.Sprintf("for (xB [k1] <- R) for (x <- xB) if %s then [x] else []", cmp())
	case 2:
		src = fmt.Sprintf("for (xB [k1] <- R) for (x <- xB) if %s and %s then [<x.2, x.1>] else []", cmp(), cmp())
	case 3:
		src = fmt.Sprintf("for (xB [k1] <- R) for (x <- xB) if not (%s) or %s then [<%s>] else []",
			cmp(), cmp(), arith())
	case 4:
		src = fmt.Sprintf("foldL(0, \\<a, x> -> (a + %s))(for (xB [k1] <- R) xB)", arith())
		isScalar = true
	default:
		src = fmt.Sprintf("foldL(<0, 1>, \\<a, x> -> <(a.1 + %s), (a.2 + a.1)>)(for (xB [k1] <- R) xB)", scalar())
		isScalar = true
	}
	c := diffCase{src: src, params: map[string]int64{"k1": int64(r.Intn(6) + 1)},
		inputs: map[string]diffTable{"R": in}, arities: map[string]int{"R": 2}, scalar: isScalar}
	return c, int64(r.Intn(8) + 1)
}
