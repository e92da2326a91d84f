package plan_test

import (
	"context"
	"encoding/json"
	"os"
	"testing"

	"ocas/internal/codegen"
	"ocas/internal/plan"
)

// TestCGolden pins codegen.Render on the 36 golden plans. The file holds the
// C those plans carried while a plan still embedded it (plans.golden.json's
// "c" keys at that commit) and has no regeneration path.
func TestCGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/c.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var want []struct {
		Name string           `json:"name"`
		Rows map[string]int64 `json:"rows"`
		C    string           `json:"c"`
	}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	names, reqs := plan.GoldenRequests(t)
	if len(want) != len(reqs) {
		t.Fatalf("c.golden.json has %d entries, the corpus %d", len(want), len(reqs))
	}
	for i, w := range want {
		if w.Name != names[i] {
			t.Fatalf("entry %d is %s, the corpus has %s", i, w.Name, names[i])
		}
		c, err := plan.Compile(reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		p, err := c.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		got, err := codegen.Render(c, p)
		if err != nil {
			t.Errorf("%s %v: %v", w.Name, w.Rows, err)
		} else if got != w.C {
			t.Errorf("%s %v: C differs\ngot:\n%s\nwant:\n%s", w.Name, w.Rows, got, w.C)
		}
	}
}
