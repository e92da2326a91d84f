package exec

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ocas/internal/ocal"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/kernel.golden.json")

const kernelGoldenPath = "testdata/kernel.golden.json"

// kernelGoldenSeeds is how many seeds of each of FuzzKernelVsInterp's
// eighteen shapes the golden holds.
const kernelGoldenSeeds = 24

// kernelGoldenCases are the hand-written cases beside the generated ones:
// the executor's own errors, which interp has no text for, and bodies over
// inputs long enough to fill several selection vectors.
func kernelGoldenCases() []namedCase {
	in := twoColTable(20, func(i int) (int32, int32) { return int32(i), int32(i * 2) })
	long := twoColTable(300, func(i int) (int32, int32) { return int32(i % 100), int32(i) })
	one := func(src string, dt diffTable) diffCase {
		return diffCase{src: src, params: map[string]int64{"k1": 4},
			inputs: map[string]diffTable{"R": dt}, arities: map[string]int{"R": 2}}
	}
	agg := one("foldL(0, \\<a, x> -> (a + x.2))(for (xB [k1] <- R) xB)", long)
	agg.scalar = true
	return []namedCase{
		{"row-as-int", one("for (xB [k1] <- R) for (x <- xB) if x == 3 then [x] else []", in)},
		{"ragged", one("for (xB [k1] <- R) for (x <- xB) if x.1 < 3 then [x] else [<x.2>]", in)},
		{"ragged-late", one("for (xB [k1] <- R) for (x <- xB) if x.1 < 30 then [x] else [<x.2>]", in)},
		{"alloc-kernel", one("for (xB [k1] <- R) for (x <- xB) "+allocKernelBody, long)},
		{"alloc-tree", one("for (xB [k1] <- R) for (x <- xB) "+allocTreeBody, long)},
		{"filter", one("for (xB [k1] <- R) for (x <- xB) if x.2 < 30 then [<x.1, (x.2 + 1)>] else []", long)},
		{"late-div", one("for (xB [k1] <- R) for (x <- xB) if x.1 < 90 then [<x.1, (x.2 / (x.1 - 87))>] else []", long)},
		{"late-filter", one("for (xB [k1] <- R) for (x <- xB) if (x.2 / (x.1 - 97)) < 3 then [<(x.2 / (x.1 - 99)), 1>] else []", long)},
		// The row fails before the condition would: the first failure is the
		// row's modulo, not the condition's division.
		{"row-first", one("for (xB [k1] <- R) for (x <- xB) if (x.2 / (x.1 - 60)) < 1000 then [<(x.2 % (x.1 - 50)), 1>] else []", long)},
		{"agg", agg},
	}
}

type namedCase struct {
	name string
	c    diffCase
}

// kernelOutcome runs a case and describes what came out: the rows in the
// order the sink received them, the scalar, or the error text.
func kernelOutcome(t *testing.T, c diffCase, batch int64) string {
	t.Helper()
	run := runKernelCase(t, c, ocal.MustParse(c.src), batch, 0)
	switch {
	case run.err != nil:
		return "error " + run.err.Error()
	case c.scalar:
		return "scalar " + run.scalar.String()
	}
	h := sha256.New()
	for _, row := range run.rows {
		fmt.Fprintln(h, row)
	}
	return fmt.Sprintf("%d rows %x", len(run.rows), h.Sum(nil)[:8])
}

type kernelGoldenRecord struct {
	Case    string `json:"case"`
	Src     string `json:"src"`
	Outcome string `json:"outcome"`
}

// TestKernelGolden pins what the kernels make of FuzzKernelVsInterp's first
// seeds of every shape and of the hand-written cases: rows in emission order
// (the differential suites compare bags), scalars, and error texts, the
// executor's own included. Every case must give the same outcome at batch
// sizes 1, 7 and 64. -update-golden rewrites the file, only when what a kernel
// computes is meant to change.
func TestKernelGolden(t *testing.T) {
	var got []kernelGoldenRecord
	add := func(name string, c diffCase) {
		if _, err := ocal.Parse(c.src); err != nil {
			return // the generator's non-parsing corners, skipped by the fuzzer too
		}
		out := kernelOutcome(t, c, 7)
		for _, batch := range []int64{1, 64} {
			if o := kernelOutcome(t, c, batch); o != out {
				t.Errorf("%s at batch %d: %s, at batch 7: %s", name, batch, o, out)
			}
		}
		got = append(got, kernelGoldenRecord{Case: name, Src: c.src, Outcome: out})
	}
	for shape := uint8(0); shape < 18; shape++ {
		for seed := int64(0); seed < kernelGoldenSeeds; seed++ {
			c, _ := kernelCase(seed, shape)
			add(fmt.Sprintf("fuzz/%d/%d", shape, seed), c)
		}
	}
	for _, nc := range kernelGoldenCases() {
		add(nc.name, nc.c)
	}
	if *updateGolden {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(kernelGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(kernelGoldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(kernelGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	var want []kernelGoldenRecord
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d cases, golden has %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i] != w {
			t.Errorf("%s: %s\n  outcome %s\n  golden  %s (%s)", w.Case, got[i].Src, got[i].Outcome, w.Outcome, w.Src)
		}
	}
}
