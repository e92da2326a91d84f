package plan

import (
	"context"
	"encoding/json"
	"os"
	"testing"
)

// goldenC is one entry of testdata/c.golden.json: the C text the plan of a
// golden request carried while plans still embedded it.
type goldenC struct {
	Name string           `json:"name"`
	Rows map[string]int64 `json:"rows"`
	C    string           `json:"c"`
}

// TestCGolden pins the generated C of the 36 golden plans. The file has no
// regeneration path: it was extracted from plans.golden.json's "c" keys.
func TestCGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/c.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenC
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	i := 0
	for _, s := range planGoldenShapes(t) {
		for _, rows := range s.points() {
			if i >= len(want) {
				t.Fatalf("c.golden.json has %d entries, the corpus more", len(want))
			}
			w := want[i]
			i++
			if w.Name != s.name {
				t.Fatalf("entry %d is %s, the corpus has %s", i-1, w.Name, s.name)
			}
			c, err := Compile(s.withRows(rows))
			if err != nil {
				t.Fatal(err)
			}
			p, err := c.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if p.C != w.C {
				t.Errorf("%s %v: C differs\ngot:\n%s\nwant:\n%s", s.name, rows, p.C, w.C)
			}
		}
	}
	if i != len(want) {
		t.Errorf("c.golden.json has %d entries, the corpus %d", len(want), i)
	}
}
