package exec

import (
	"fmt"
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
	out, err := NewTable(scratch, c.outArity, 4<<10)
	if err != nil {
		t.Fatal(err)
	}
	sink := &Sink{Out: out, Bout: 8, Sim: sim}
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
	} else if run.err == nil {
		run.rows = tableRows(out.Flat(), c.outArity)
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

// TestKernelFallbackUnfusable: a body outside the kernel grammar lowers
// without a kernel — the interp-compiled closure, the fallback leaf, runs
// and produces interp's result.
func TestKernelFallbackUnfusable(t *testing.T) {
	in := twoColTable(50, func(i int) (int32, int32) { return int32(i % 7), int32(i) })
	cases := []string{
		// Nested if: Then is not a Single.
		"for (xB [k1] <- R) for (x <- xB) if x.1 < 3 then (if x.2 < 25 then [x] else []) else []",
		// Non-empty else branch.
		"for (xB [k1] <- R) for (x <- xB) if x.1 < 3 then [x] else [<x.2, x.1>]",
		// Two-row output (list concatenation is outside the grammar).
		"for (xB [k1] <- R) for (x <- xB) ([x] ++ [<x.2, x.1>])",
	}
	for _, src := range cases {
		c := diffCase{src: src, params: map[string]int64{"k1": 4},
			inputs: map[string]diffTable{"R": in}, arities: map[string]int{"R": 2}, outArity: 2}
		run := assertMatchesInterp(t, c, 7, 0)
		if run.err != nil {
			t.Fatalf("%s: run failed: %v", src, run.err)
		}
		if pj, ok := run.prog.Root.(*Project); !ok || pj.kern != nil {
			t.Errorf("%s: want a kernel-less Project at the root, got %T", src, run.prog.Root)
		}
	}
}

// TestKernelFallbackArity: a spec that parses but cannot bind the input
// arity (out-of-range column, projection of a scalar row) falls back to
// the interp closure — including its runtime error.
func TestKernelFallbackArity(t *testing.T) {
	in := twoColTable(20, func(i int) (int32, int32) { return int32(i), int32(i * 2) })
	var col diffTable
	for i := 0; i < 20; i++ {
		col.rows = append(col.rows, int32(i))
		col.value = append(col.value, ocal.Int(int64(i)))
	}
	// Column out of range at arity 2: the interp step errors; the kernel
	// must not silently read a wrong column.
	assertMatchesInterp(t, diffCase{
		src:    "for (xB [k1] <- R) for (x <- xB) [x.3]",
		params: map[string]int64{"k1": 4},
		inputs: map[string]diffTable{"R": in}, arities: map[string]int{"R": 2}, outArity: 1,
	}, 7, 0)
	// Projection of an arity-1 row (a bare Int in the interp pipeline).
	assertMatchesInterp(t, diffCase{
		src:    "for (xB [k1] <- L) for (x <- xB) [x.1]",
		params: map[string]int64{"k1": 4},
		inputs: map[string]diffTable{"L": col}, arities: map[string]int{"L": 1}, outArity: 1,
	}, 7, 0)
	// Whole-element arithmetic works at arity 1 and falls back at arity 2.
	assertMatchesInterp(t, diffCase{
		src:    "for (xB [k1] <- L) for (x <- xB) [(x + 1)]",
		params: map[string]int64{"k1": 4},
		inputs: map[string]diffTable{"L": col}, arities: map[string]int{"L": 1}, outArity: 1,
	}, 7, 0)
	assertMatchesInterp(t, diffCase{
		src:    "for (xB [k1] <- R) for (x <- xB) [(x + 1)]",
		params: map[string]int64{"k1": 4},
		inputs: map[string]diffTable{"R": in}, arities: map[string]int{"R": 2}, outArity: 1,
	}, 7, 0)
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
				inputs: map[string]diffTable{"R": in}, arities: map[string]int{"R": 2}, outArity: 2,
			}, batch, 0)
		}
	}
	// A fold step that divides by a column with zeros.
	assertMatchesInterp(t, diffCase{
		src:    "foldL(0, \\<a, x> -> (a + (x.1 / x.2)))(for (xB [k1] <- R) xB)",
		params: map[string]int64{"k1": 4},
		inputs: map[string]diffTable{"R": in}, arities: map[string]int{"R": 2},
		outArity: 1, scalar: true,
	}, 7, 0)
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
		// outArity per case: run through the interp reference to size it.
		outArity := probeOutArity(t, src, in, scalar)
		for _, batch := range []int64{1, 7, 64} {
			for _, pool := range diffPoolBudgets {
				assertMatchesInterp(t, diffCase{
					src:    src,
					params: map[string]int64{"k1": 5},
					inputs: map[string]diffTable{"R": in}, arities: map[string]int{"R": 3},
					outArity: outArity, scalar: scalar,
				}, batch, pool)
			}
		}
	}
}

// probeOutArity evaluates the program on the interpreter to size the output
// table.
func probeOutArity(t *testing.T, src string, in diffTable, scalar bool) int {
	t.Helper()
	if scalar {
		return 1
	}
	prog, err := ocal.Parse(src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	v, err := interp.Eval(prog, map[string]ocal.Value{"R": in.value}, map[string]int64{"k1": 5})
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	rows := valueRows(t, v)
	if len(rows) == 0 {
		return 1
	}
	return len(rows[0])
}

// TestStepZeroAllocs: the fallback-leaf Project hot path (hoisted emit
// binding) and the kernels allocate nothing per block in steady state.
func TestStepZeroAllocs(t *testing.T) {
	if allocs := stepAllocsPerNext(t, false); allocs > 0 {
		t.Errorf("fallback-leaf Project.Next allocates %.1f times per call in steady state", allocs)
	}
	if allocs := stepAllocsPerNext(t, true); allocs > 0 {
		t.Errorf("kernel Project.Next allocates %.1f times per call in steady state", allocs)
	}
}

// allocKernel parses the zero-alloc suites' filter+project body.
func allocKernel(t testing.TB) *scanKernelSpec {
	spec := parseScanKernel(ocal.MustParse("if x.1 < 50 then [<x.1, (x.2 + x.1)>] else []"), "x")
	if spec == nil {
		t.Fatal("bench body did not parse as a kernel")
	}
	return spec
}

// filterStep is the hand-built zero-alloc fallback leaf of the alloc
// suites: it emits the row as-is, the baseline cost of the Step plumbing
// without interp boxing.
func filterStep(row []int32, emit func([]int32)) error {
	if row[0] < 50 {
		emit(row)
	}
	return nil
}

// buildProject assembles a filter+project over the alloc table — through
// the kernel, or through the fallback leaf alone — opened and ready to Next.
func buildProject(t testing.TB, withKernel bool) *Project {
	sim, scratch, tb := allocTable(t)
	p := &Project{In: TableInput(tb), K: 64, Step: filterStep}
	if withKernel {
		p.kern = allocKernel(t)
	}
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

func stepAllocsPerNext(t *testing.T, withKernel bool) float64 {
	p := buildProject(t, withKernel)
	defer p.Close()
	return steadyAllocs(t, p)
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
// or through the Step closure (the interp-compiled fallback leaf's slot).
// fill appends into reused carry vectors, pop hands out column views, and
// the outer kernel appends into the reused emitter.
func TestChainStepZeroAllocs(t *testing.T) {
	for _, withKernel := range []bool{false, true} {
		name := "interpreted"
		if withKernel {
			name = "fused"
		}
		t.Run(name, func(t *testing.T) {
			p := buildChain(t, withKernel)
			defer p.Close()
			if allocs := steadyAllocs(t, p); allocs > 0 {
				t.Errorf("%s chained Project.Next allocates %.1f times per call in steady state", name, allocs)
			}
		})
	}
}

// buildChain assembles inner-pass → outer-filter with the outer reading
// through opReader, opened and ready to Next.
func buildChain(t testing.TB, withKernel bool) *Project {
	sim, scratch, tb := allocTable(t)
	passStep := func(row []int32, emit func([]int32)) error {
		emit(row)
		return nil
	}
	inner := &Project{In: TableInput(tb), K: 64, Step: passStep}
	p := &Project{In: OpInput(inner), K: 64, Step: filterStep}
	if withKernel {
		p.kern = allocKernel(t)
	}
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
		{"fallback", func() *Project { return buildProject(b, false) }},
		{"kernel", func() *Project { return buildProject(b, true) }},
		{"chain", func() *Project { return buildChain(b, true) }},
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
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		r := rand.New(rand.NewSource(seed))
		// Of twelve shapes, 0-5 are the scan and fold bodies below and 6-11
		// the four kinds of unfoldR step (the generated lambdas twice).
		if shape%12 >= 6 {
			c := stepCase(r, int(shape%12-6)%4)
			prog, err := ocal.Parse(c.src)
			if err != nil {
				t.Fatalf("generated step does not parse: %v\n%s", err, c.src)
			}
			if v, err := interp.Eval(prog, inputValues(c), c.params); err == nil {
				if rows := valueRows(t, v); len(rows) > 0 {
					c.outArity = len(rows[0])
				}
			}
			assertMatchesInterp(t, c, int64(r.Intn(8)+1), 0)
			return
		}
		in := randTable(r, 2, 24, 6)
		cols := []string{"x.1", "x.2", "x", "x.3", fmt.Sprint(r.Intn(5))}
		scalar := func() string { return cols[r.Intn(len(cols))] }
		// Ordered comparisons never take the whole element: ocal.ValueCompare
		// panics on an Int-vs-Tuple comparison in the reference interpreter
		// and the executor's fallback leaf alike, which is outside this
		// fuzzer's contract (parity with interp, not interpreter robustness).
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
		var src string
		outArity := 2
		isScalar := false
		switch shape % 12 {
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
			outArity = 1
		default:
			src = fmt.Sprintf("foldL(<0, 1>, \\<a, x> -> <(a.1 + %s), (a.2 + a.1)>)(for (xB [k1] <- R) xB)", scalar())
			isScalar = true
			outArity = 1
		}
		prog, err := ocal.Parse(src)
		if err != nil {
			t.Skip() // the generator hit a non-parsing corner (e.g. bare x in arith)
		}
		// Some generated shapes are not valid interp programs at all (x as
		// an arithmetic operand, x.3 on arity 2 …): then the executor must
		// fail identically, which assertMatchesInterp covers. But the output
		// table width must match any successful run, so probe first.
		c := diffCase{src: src, params: map[string]int64{"k1": int64(r.Intn(6) + 1)},
			inputs: map[string]diffTable{"R": in}, arities: map[string]int{"R": 2},
			outArity: outArity, scalar: isScalar}
		if !isScalar {
			v, err := interp.Eval(prog, map[string]ocal.Value{"R": in.value}, c.params)
			if err == nil {
				if rows := valueRows(t, v); len(rows) > 0 {
					c.outArity = len(rows[0])
				}
			}
		}
		assertMatchesInterp(t, c, int64(r.Intn(8)+1), 0)
	})
}
