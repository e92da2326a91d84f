package plan

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"ocas/internal/interp"
	"ocas/internal/ocal"
)

// scaleRequest shrinks a corpus request so synthesis and execution stay
// test-sized while the size *ratios* (relation vs RAM) that drive plan
// shape survive.
func scaleRequest(req *Request, maxRows int64) {
	var biggest int64
	for _, in := range req.Inputs {
		if in.Rows > biggest {
			biggest = in.Rows
		}
	}
	f := int64(1)
	for biggest/f > maxRows {
		f *= 2
	}
	if f == 1 {
		return
	}
	for name, in := range req.Inputs {
		in.Rows /= f
		if in.Rows < 64 {
			in.Rows = 64
		}
		req.Inputs[name] = in
	}
	if req.RAM > 0 {
		req.RAM /= f
		if req.RAM < 4096 {
			req.RAM = 4096
		}
	}
}

// valuesFor converts generated input rows into interpreter values.
func valuesFor(t *testing.T, c *Compiled, opt ExecOptions) map[string]ocal.Value {
	t.Helper()
	vals := map[string]ocal.Value{}
	for i, in := range c.Task.Spec.Inputs {
		cols, err := inputData(in, c.Task, opt, i)
		if err != nil {
			t.Fatal(err)
		}
		l := make(ocal.List, len(cols[0]))
		for r := range l {
			if in.Arity == 1 {
				l[r] = ocal.Int(int64(cols[0][r]))
				continue
			}
			tup := make(ocal.Tuple, in.Arity)
			for j, col := range cols {
				tup[j] = ocal.Int(int64(col[r]))
			}
			l[r] = tup
		}
		vals[in.Name] = l
	}
	return vals
}

// flatten converts one interpreter output value into a flat physical row.
func flatten(t *testing.T, v ocal.Value) []int32 {
	t.Helper()
	switch x := v.(type) {
	case ocal.Int:
		return []int32{int32(x)}
	case ocal.Tuple:
		var out []int32
		for _, e := range x {
			out = append(out, flatten(t, e)...)
		}
		return out
	}
	t.Fatalf("cannot flatten %T into a row", v)
	return nil
}

// TestExamplesDifferential is the end-to-end differential suite of the
// executor: every examples/ corpus request is synthesized (at test scale)
// and its winning program executed through the compositional lowerer at
// batch sizes {1, 7, 64} under a buffer budget smaller than the largest
// input, comparing the output bag against the reference interpreter run of
// the *specification* on identical inputs.
func TestExamplesDifferential(t *testing.T) {
	dirs, err := filepath.Glob("../../examples/*/request.json")
	if err != nil || len(dirs) == 0 {
		t.Fatalf("no example requests found: %v", err)
	}
	spilled := false
	for _, reqPath := range dirs {
		name := filepath.Base(filepath.Dir(reqPath))
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile(reqPath)
			if err != nil {
				t.Fatal(err)
			}
			var req Request
			if err := json.Unmarshal(data, &req); err != nil {
				t.Fatal(err)
			}
			scaleRequest(&req, 2048)
			c, err := Compile(req)
			if err != nil {
				t.Fatal(err)
			}
			p, err := c.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}

			opt := ExecOptions{Seed: 42}
			want, err := interp.Eval(c.Prog, valuesFor(t, c, opt), nil)
			if err != nil {
				t.Fatalf("interp on spec: %v", err)
			}
			wl, ok := want.(ocal.List)
			if !ok {
				t.Fatalf("spec evaluated to %T, want a list", want)
			}
			wantRows := make([][]int32, len(wl))
			for i, v := range wl {
				wantRows[i] = flatten(t, v)
			}
			wantDigest := digestRows(wantRows)

			// Budget below the largest input: blocks shrink and scratch
			// traffic spills for plans that re-read intermediates.
			var biggest int64
			for _, in := range c.Task.Spec.Inputs {
				b := c.Task.InputRows[in.Name] * int64(in.Arity) * 4
				if b > biggest {
					biggest = b
				}
			}
			pool := biggest / 2
			if pool < 512 {
				pool = 512
			}
			for _, batch := range []int64{1, 7, 64} {
				opt := ExecOptions{Seed: 42, BatchRows: batch, PoolBytes: pool}
				rep, err := ExecutePlan(context.Background(), c, p, opt)
				if err != nil {
					t.Fatalf("execute (batch %d): %v", batch, err)
				}
				if rep.OutRows != int64(len(wantRows)) {
					t.Fatalf("batch %d: %d output rows, interpreter says %d\nprogram: %s",
						batch, rep.OutRows, len(wantRows), p.Program)
				}
				if rep.OutDigest != wantDigest {
					t.Fatalf("batch %d: output bag differs from the interpreter\nprogram: %s",
						batch, p.Program)
				}
				if rep.Pool.Budget != pool {
					t.Errorf("pool budget %d not enforced (got %d)", pool, rep.Pool.Budget)
				}
				if rep.Pool.Spills > 0 {
					spilled = true
				}
				if rep.VirtualSeconds <= 0 {
					t.Errorf("batch %d: no virtual time charged", batch)
				}
			}
		})
	}
	if !spilled {
		// At test scale the synthesizer may legitimately pick non-spilling
		// plans for every corpus request; TestExecuteGraceSpills pins the
		// spilling path down explicitly.
		t.Log("note: no corpus plan spilled at this scale")
	}
}

// TestExecuteGraceSpills executes a GRACE hash join under a buffer budget
// far below the inputs: the partitions must go through scratch spill
// files, and the output must stay bag-equal to the interpreter.
func TestExecuteGraceSpills(t *testing.T) {
	req := Request{
		Program: "flatMap(\\<p1, p2> -> for (xB [k1] <- p1) for (yB [k2] <- p2) " +
			"for (x <- xB) for (y <- yB) if x.1 == y.1 then [<x, y>] else [])" +
			"(zip[2](partition[s](R), partition[s](S)))",
		Inputs: map[string]Input{
			"R": {Node: "hdd", Rows: 1024},
			"S": {Node: "hdd", Rows: 2048},
		},
		RAM:   64 << 10,
		Depth: 2, Space: 200,
	}
	c, err := Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	opt := ExecOptions{Seed: 3, PoolBytes: 2048} // far below the 8/16 KiB inputs
	want, err := interp.Eval(c.Prog, valuesFor(t, c, opt), p.Params)
	if err != nil {
		t.Fatal(err)
	}
	wl := want.(ocal.List)
	wantRows := make([][]int32, len(wl))
	for i, v := range wl {
		wantRows[i] = flatten(t, v)
	}
	rep, err := ExecutePlan(context.Background(), c, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OutDigest != digestRows(wantRows) {
		t.Fatalf("grace join bag differs from interpreter (%d vs %d rows)", rep.OutRows, len(wantRows))
	}
	if rep.Pool.Spills == 0 {
		t.Error("grace partitions must spill to scratch")
	}
	if rep.Pool.PeakBytes > 2048 {
		t.Errorf("pool peak %d exceeds the %d budget", rep.Pool.PeakBytes, 2048)
	}
}

// TestSpillsGoWhereTheModelPricesThem: with no intermediate device named, a
// run spills to the device cost.Intermediate prices the spills on — the
// output's, ahead of the inputs'. A GRACE join over inputs on hdd with its
// output on hdd2 writes its partitions to hdd2 and reads them back from
// there, and writes nothing to hdd.
func TestSpillsGoWhereTheModelPricesThem(t *testing.T) {
	req := graceJoin(1024, 2048, 64<<10)
	req.Hier, req.Output = "two-hdd", "hdd2"
	c, err := Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]int64{"k1": 64, "k2": 64, "s": 8}
	rep, err := RunProgram(context.Background(), c.H, c.Prog, params, c.Task, ExecOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	in, out := rep.Devices["hdd"], rep.Devices["hdd2"]
	if rep.Pool.Spills == 0 || out.BytesRead == 0 || in.BytesWrite != 0 {
		t.Errorf("%d spills, hdd %+v, hdd2 %+v: want the partitions written to and read from hdd2 only",
			rep.Pool.Spills, in, out)
	}
	if want := rep.Pool.SpillBytes + rep.OutRows*16; out.BytesWrite != want {
		t.Errorf("hdd2 wrote %d B, want the %d B of spills and output", out.BytesWrite, want)
	}
}

// TestRunSortsEachPart: a sort of each part of a partitioned input runs,
// reading a part as its input, and the worker count changes neither the
// rows nor the charges.
func TestRunSortsEachPart(t *testing.T) {
	c, err := Compile(Request{Program: "for (x <- R) [x]",
		Inputs: map[string]Input{"R": {Node: "hdd", Rows: 4096, Arity: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	prog := ocal.MustParse(`flatMap(\p -> treeFold[2][bout]([], unfoldR[bin](funcPow[1](mrg)))(for (xB [k1] <- p) xB))(partition[4](R))`)
	params := map[string]int64{"k1": 64, "bin": 64, "bout": 64}
	var reps []*ExecReport
	for _, workers := range []int{1, 4} {
		rep, err := RunProgram(context.Background(), c.H, prog, params, c.Task, ExecOptions{Seed: 1, ExecWorkers: workers})
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		reps = append(reps, rep)
	}
	if r1, r4 := reps[0], reps[1]; r1.OutRows != 4096 || r4.OutDigest != r1.OutDigest || r4.Devices["hdd"] != r1.Devices["hdd"] {
		t.Errorf("workers 1: %d rows, digest %s, hdd %+v; workers 4: digest %s, hdd %+v; want 4096 rows and equal runs",
			r1.OutRows, r1.OutDigest, r1.Devices["hdd"], r4.OutDigest, r4.Devices["hdd"])
	}
}

// TestRunRetainsNoOutput: the output is charged and claimed on its device,
// never stored, so a product of two 2048-row inputs emits 64 MiB of rows to
// hdd2 while the run allocates a small fraction of that.
func TestRunRetainsNoOutput(t *testing.T) {
	c, err := Compile(Request{
		Program: "for (x <- R) for (y <- S) [<x, y>]",
		Hier:    "two-hdd",
		Inputs:  map[string]Input{"R": {Node: "hdd", Rows: 2048}, "S": {Node: "hdd", Rows: 2048}},
		Output:  "hdd2",
		Depth:   4, Space: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ocal.ParseFile(p.Program)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := RunProgram(context.Background(), c.H, prog, p.Params, c.Task, ExecOptions{Seed: 1})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OutRows != 2048*2048 {
		t.Fatalf("product emitted %d rows, want %d", rep.OutRows, 2048*2048)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 4<<20 {
		t.Errorf("the run allocated %.1f MiB for %d MiB of output, want under 4 MiB",
			float64(alloc)/(1<<20), rep.OutRows*16>>20)
	}
}

// TestExecutePlanExplicitInputs runs a cached plan against request-supplied
// rows and checks determinism of the digest across batch sizes.
func TestExecutePlanExplicitInputs(t *testing.T) {
	req := Request{
		Program: "for (x <- R) for (y <- S) if x.1 == y.1 then [<x, y>] else []",
		Inputs: map[string]Input{
			"R": {Node: "hdd", Rows: 1024},
			"S": {Node: "hdd", Rows: 1024},
		},
		Depth: 4, Space: 500,
	}
	c, err := Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	opt := ExecOptions{Inputs: map[string][][]int64{
		"R": {{1, 10}, {2, 20}, {3, 30}},
		"S": {{1, 100}, {3, 300}, {1, 101}},
	}}
	rep1, err := ExecutePlan(context.Background(), c, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.OutRows != 3 {
		t.Fatalf("join of supplied rows produced %d rows, want 3", rep1.OutRows)
	}
	opt.BatchRows = 1
	rep2, err := ExecutePlan(context.Background(), c, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.OutDigest != rep2.OutDigest {
		t.Error("digest must be independent of the batch size")
	}
	if rep1.Fingerprint != c.Fingerprint {
		t.Error("report must carry the plan fingerprint")
	}
	if len(rep1.Devices) == 0 || rep1.Devices["hdd"].BytesRead == 0 {
		t.Errorf("device ledger missing: %+v", rep1.Devices)
	}

	// Malformed rows are rejected.
	bad := ExecOptions{Inputs: map[string][][]int64{"R": {{1}}}}
	if _, err := ExecutePlan(context.Background(), c, p, bad); err == nil {
		t.Error("arity-mismatched rows must be rejected")
	}
}

// TestExecOptionsThatCannotApply: a Rows or Inputs entry naming no declared
// input, or a row count below 1, fails the execution with the offending name
// instead of being dropped (the input then ran at its nominal size).
func TestExecOptionsThatCannotApply(t *testing.T) {
	c, err := Compile(Request{
		Program: "foldL(0, \\<a, x> -> (a + x.2))(R)",
		Inputs:  map[string]Input{"R": {Node: "hdd", Rows: 512}},
		Depth:   3, Space: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		opt  ExecOptions
		want string
	}{
		"rows for an undeclared input":   {ExecOptions{Rows: map[string]int64{"r": 64}}, `exec.rows names "r"`},
		"zero rows":                      {ExecOptions{Rows: map[string]int64{"R": 0}}, `input "R" 0 rows`},
		"negative rows":                  {ExecOptions{Rows: map[string]int64{"R": -1}}, `input "R" -1 rows`},
		"inputs for an undeclared input": {ExecOptions{Inputs: map[string][][]int64{"S": {{1, 2}}}}, `exec.inputs names "S"`},
	} {
		if _, err := ExecutePlan(context.Background(), c, p, tc.opt); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one saying %s", name, err, tc.want)
		}
	}
	rep, err := ExecutePlan(context.Background(), c, p, ExecOptions{Rows: map[string]int64{"R": 64}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.InputRows["R"] != 64 {
		t.Errorf("override of 64 rows executed %d", rep.InputRows["R"])
	}
}

// TestRaggedBodyFails: a scan body whose branches emit rows of different
// widths fails the execution with an ordinary error when the body binds its
// input's arity — before any row is emitted, whichever branch the rows would
// take — and never panics. A body outside the grammar fails at lowering.
func TestRaggedBodyFails(t *testing.T) {
	for prog, want := range map[string]string{
		"for (x <- R) if x.1 < 3 then [x] else [<x.2>]":  "plan: execute: exec: scan body emits rows of 2 and of 1 attributes",
		"for (x <- R) if x.1 < 3 then [<x.2>] else [x]":  "plan: execute: exec: scan body emits rows of 1 and of 2 attributes",
		"for (x <- R) if x.1 < 0 then [<x, 1>] else [x]": "plan: execute: exec: scan body emits rows of 3 and of 2 attributes",
		"for (x <- R) [x] ++ [<x.1, x.2, x.1>]":          "plan: execute: exec: scan body emits rows of 2 and of 3 attributes",
		"for (x <- R) [head([x.1])]":                     "plan: lower: exec: cannot lower scan body: unsupported row head([x.1])",
		"foldL(0, \\<a, x> -> head([a + x.1]))(R)":       "plan: lower: exec: cannot lower fold: unsupported scalar head([a + x.1])",
	} {
		c, err := Compile(Request{Program: prog, Inputs: map[string]Input{"R": {Node: "hdd", Rows: 512}}, Depth: 3, Space: 200})
		if err != nil {
			t.Fatalf("%s: %v", prog, err)
		}
		p, err := c.Run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", prog, err)
		}
		for _, workers := range []int{1, 4} {
			_, err := ExecutePlan(context.Background(), c, p, ExecOptions{ExecWorkers: workers})
			if err == nil || !strings.HasPrefix(err.Error(), want) {
				t.Errorf("%s (workers %d): error %v, want %s", prog, workers, err, want)
			}
		}
	}
}

// TestExecutePlanCancellation: a cancelled context must stop execution
// even when all the work happens inside an operator's Open phase (a fold
// root never yields a batch to Program.Run's per-batch check).
func TestExecutePlanCancellation(t *testing.T) {
	req := Request{
		Program: "foldL(0, \\<a, x> -> (a + x.2))(R)",
		Inputs:  map[string]Input{"R": {Node: "hdd", Rows: 1 << 18}},
		Depth:   3, Space: 200,
	}
	c, err := Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = ExecutePlan(ctx, c, p, ExecOptions{Seed: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled execution returned %v, want context.Canceled", err)
	}
}

// TestExecutePlanConcurrent executes one compiled plan from many goroutines
// (the service does this under load); -race guards shared state.
func TestExecutePlanConcurrent(t *testing.T) {
	req := Request{
		Program: "foldL(0, \\<a, x> -> (a + x.2))(R)",
		Inputs:  map[string]Input{"R": {Node: "hdd", Rows: 512}},
		Depth:   3, Space: 200,
	}
	c, err := Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	digests := make([]string, 8)
	for i := range digests {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep, err := ExecutePlan(context.Background(), c, p, ExecOptions{Seed: 9, BatchRows: int64(i%3)*31 + 1})
			if err != nil {
				t.Error(err)
				return
			}
			digests[i] = rep.OutDigest
		}(i)
	}
	wg.Wait()
	sort.Strings(digests)
	if digests[0] != digests[len(digests)-1] {
		t.Errorf("concurrent executions disagree: %v", digests)
	}
}

// TestUnfoldLinearInRows executes examples/groupby at N and at 4N rows under
// the plan tuned for its nominal 4M (one window holds either run whole) and
// requires the wall-clock to grow like the rows. A step that rebuilds its
// window per row — the interpreted step this plan used to run on — is
// quadratic, 16x; the bound of 8x leaves a loaded machine 2x of room.
func TestUnfoldLinearInRows(t *testing.T) {
	data, err := os.ReadFile("../../examples/groupby/request.json")
	if err != nil {
		t.Fatal(err)
	}
	var req Request
	if err := json.Unmarshal(data, &req); err != nil {
		t.Fatal(err)
	}
	c, err := Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	elapsed := func(rows int64) time.Duration {
		best := time.Duration(math.MaxInt64)
		for i := 0; i < 3; i++ {
			start := time.Now()
			if _, err := ExecutePlan(context.Background(), c, p, ExecOptions{Seed: 1, Rows: map[string]int64{"R": rows}}); err != nil {
				t.Fatal(err)
			}
			best = min(best, time.Since(start))
		}
		return best
	}
	const n = 1 << 14
	if small, large := elapsed(n), elapsed(4*n); large > 8*small {
		t.Errorf("group-by over %d rows took %v, over %d rows %v: more than 8x for 4x the rows", n, small, 4*n, large)
	}
}
