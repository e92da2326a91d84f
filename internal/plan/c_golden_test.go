package plan_test

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"testing"

	"ocas/internal/codegen"
	"ocas/internal/plan"
)

const cGoldenPath = "testdata/c.golden.json"

// goldenC is the C rendered from one plan of plans.golden.json.
type goldenC struct {
	Name string           `json:"name"`
	Rows map[string]int64 `json:"rows"`
	C    string           `json:"c"`
}

// TestCGolden pins codegen.Render on the 36 plans of plans.golden.json (that
// synthesis produces those plans is TestPlanBytesGolden's half). The
// committed file holds the C those plans carried while a plan still embedded
// it: plans.golden.json's "c" keys at that commit. -update-golden rewrites
// it, only when a change to the generated C is intended.
func TestCGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/plans.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var plans []struct {
		Name string           `json:"name"`
		Rows map[string]int64 `json:"rows"`
		Cold json.RawMessage  `json:"cold"`
	}
	if err := json.Unmarshal(data, &plans); err != nil {
		t.Fatal(err)
	}
	names, reqs := plan.GoldenRequests(t)
	if len(plans) != len(reqs) {
		t.Fatalf("plans.golden.json has %d entries, the corpus %d", len(plans), len(reqs))
	}
	var got []goldenC
	for i, e := range plans {
		if e.Name != names[i] {
			t.Fatalf("plan %d is %s, the corpus has %s", i, e.Name, names[i])
		}
		// Compile only validates: the request supplies the input arities and
		// the output placement, the golden file the plan.
		c, err := plan.Compile(reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		p, err := plan.Decode(e.Cold)
		if err != nil {
			t.Fatal(err)
		}
		src, err := codegen.Render(c, p)
		if err != nil {
			t.Fatalf("%s %v: %v", e.Name, e.Rows, err)
		}
		got = append(got, goldenC{Name: e.Name, Rows: e.Rows, C: src})
	}

	if *plan.UpdateGolden {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false) // C is full of & and <
		enc.SetIndent("", "  ")
		if err := enc.Encode(got); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(cGoldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err = os.ReadFile(cGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	var want []goldenC
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt %s: %v", cGoldenPath, err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s has %d entries, plans.golden.json %d", cGoldenPath, len(want), len(got))
	}
	for i, w := range want {
		g := got[i]
		if w.Name != g.Name || !maps.Equal(w.Rows, g.Rows) {
			t.Fatalf("entry %d is %s %v, plans.golden.json has %s %v", i, w.Name, w.Rows, g.Name, g.Rows)
		}
		if g.C != w.C {
			t.Errorf("%s %v: C differs\ngot:\n%s\nwant:\n%s", w.Name, w.Rows, g.C, w.C)
		}
	}
}
