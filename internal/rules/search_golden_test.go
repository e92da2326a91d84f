package rules_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ocas/internal/cost"
	"ocas/internal/experiments"
	"ocas/internal/memory"
	"ocas/internal/ocal"
	"ocas/internal/plan"
	"ocas/internal/rules"
)

const searchGoldenPath = "testdata/search.golden.json"

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/search.golden.json from the current search (only when the search space is meant to change)")

// searchShape is one search the golden pins, set up the way
// core.Synthesizer sets it up (same defaults, same context fields).
type searchShape struct {
	name     string
	prog     ocal.Expr
	h        *memory.Hierarchy
	rules    []rules.Rule // nil: rules.AllRules()
	inputLoc map[string]string
	output   string
	// intermediate is filled the way core fills rules.Context.Intermediate.
	intermediate string
	commutative  bool
	depth        int // <= 0: 6
	space        int // <= 0: 20000
}

// setup returns a fresh search context and the rule set.
func (s searchShape) setup() (*rules.Context, []rules.Rule) {
	rls := s.rules
	if rls == nil {
		rls = rules.AllRules()
	}
	return &rules.Context{H: s.h, InputLoc: s.inputLoc, Output: s.output,
		Intermediate: s.intermediate, Commutative: s.commutative}, rls
}

func (s searchShape) search(workers int) ([]rules.Derivation, rules.SearchStats) {
	depth, space := s.depth, s.space
	if depth <= 0 {
		depth = 6
	}
	if space <= 0 {
		space = 20000
	}
	c, rls := s.setup()
	return rules.Search(context.Background(), s.prog, rls, c, depth, space, workers)
}

// searchGoldenShapes is the corpus: the six examples, the seven searched
// shapes the repo benchmark posts (copied from benchmark/corpus.go, which a
// product package may not import) and the sixteen Table 1 experiments at
// shrink 8.
func searchGoldenShapes(t *testing.T) []searchShape {
	t.Helper()
	fromRequest := func(name string, req plan.Request) searchShape {
		c, err := plan.Compile(req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s := searchShape{name: name, prog: c.Task.Spec.Prog, h: c.Synth.H, rules: c.Synth.Rules,
			inputLoc: map[string]string{}, output: c.Task.Output, commutative: c.Task.Spec.Commutative,
			depth: c.Synth.MaxDepth, space: c.Synth.MaxSpace}
		for _, in := range c.Task.Spec.Inputs {
			s.inputLoc[in.Name] = c.Task.InputLoc[in.Name]
		}
		s.intermediate = cost.Intermediate(c.Synth.TaskPlacement(c.Task))
		return s
	}

	var shapes []searchShape
	paths, err := filepath.Glob("../../examples/*/request.json")
	if err != nil || len(paths) != 6 {
		t.Fatalf("want 6 example requests, found %d (%v)", len(paths), err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var req plan.Request
		if err := json.Unmarshal(data, &req); err != nil {
			t.Fatal(err)
		}
		shapes = append(shapes, fromRequest("example-"+filepath.Base(filepath.Dir(p)), req))
	}

	const (
		join    = "for (x <- R) for (y <- S) if x.1 == y.1 then [<x, y>] else []"
		product = "for (x <- R) for (y <- S) [<x, y>]"
	)
	rs := func(r, s int64) map[string]plan.Input {
		return map[string]plan.Input{"R": {Node: "hdd", Rows: r, Arity: 2}, "S": {Node: "hdd", Rows: s, Arity: 2}}
	}
	for _, r := range []struct {
		name string
		req  plan.Request
	}{
		{"bench-bnl", plan.Request{Program: join, Hier: "hdd-ram", RAM: 8 << 20,
			Inputs: rs(4<<20, 256<<10), Depth: 6, Space: 2000}},
		{"bench-bnl-cache", plan.Request{Program: join, Hier: "hdd-ram-cache", RAM: 8 << 20,
			Inputs: rs(4<<20, 256<<10), Depth: 7, Space: 2500}},
		{"bench-grace", plan.Request{Program: join, Hier: "hdd-ram", RAM: 2 << 20,
			Inputs: rs(4<<20, 8<<20), Depth: 6, Space: 1500}},
		{"bench-write-same", plan.Request{Program: product, Hier: "hdd-ram", RAM: 1 << 20,
			Inputs: rs(1024, 16384), Output: "hdd", Depth: 6, Space: 1200}},
		{"bench-write-other", plan.Request{Program: product, Hier: "two-hdd", RAM: 1 << 20,
			Inputs: rs(1024, 16384), Output: "hdd2", Depth: 6, Space: 1200}},
		{"bench-write-flash", plan.Request{Program: product, Hier: "hdd-flash", RAM: 1 << 20,
			Inputs: rs(1024, 16384), Output: "ssd", Depth: 6, Space: 1500}},
		{"bench-bnl-beam", plan.Request{Program: join, Hier: "hdd-ram", RAM: 8 << 20,
			Inputs: rs(4<<20, 256<<10), Strategy: "beam", Beam: 64, Depth: 6, Space: 2000}},
	} {
		shapes = append(shapes, fromRequest(r.name, r.req))
	}

	exps := experiments.Table1(experiments.Config{Shrink: 8})
	for _, e := range exps {
		shapes = append(shapes, searchShape{name: "table1-" + e.Name, prog: e.Spec.Prog, h: e.Hier,
			rules: e.Rules, inputLoc: e.InputLoc, output: e.Output, commutative: e.Spec.Commutative,
			intermediate: cost.Intermediate(cost.Placement{InputLoc: e.InputLoc, Output: e.Output}),
			depth:        e.MaxDepth, space: e.MaxSpace})
	}
	return shapes
}

// searchRecord is what the golden pins per shape: the search statistics,
// the per-level counts as "expanded/deduped/kept" from depth 1 on, and a
// SHA-256 over the space in discovery order, one "alpha key<TAB>steps" line
// per member.
type searchRecord struct {
	SpaceSize int    `json:"spaceSize"`
	Truncated bool   `json:"truncated"`
	MaxDepth  int    `json:"maxDepth"`
	Levels    string `json:"levels"`
	Space     string `json:"space"`
}

func recordSearch(ds []rules.Derivation, st rules.SearchStats) searchRecord {
	h := sha256.New()
	for _, d := range ds {
		h.Write([]byte(rules.OneShotAlphaKey(d.Expr)))
		h.Write([]byte{'\t'})
		h.Write([]byte(strings.Join(d.Steps, ",")))
		h.Write([]byte{'\n'})
	}
	levels := make([]string, len(st.Levels))
	for i, lv := range st.Levels {
		levels[i] = fmt.Sprintf("%d/%d/%d", lv.Expanded, lv.Deduped, lv.Kept)
	}
	return searchRecord{SpaceSize: st.SpaceSize, Truncated: st.Truncated, MaxDepth: st.MaxDepth,
		Levels: strings.Join(levels, " "), Space: hex.EncodeToString(h.Sum(nil))}
}

// TestSearchGolden pins the search itself — which programs it finds, in
// which order, by which derivations, and how many rewrites each level
// produced and discarded — over the shipped corpus at one, two and eight
// workers. The dedup key may change how it is computed; it may not change
// one member of any space.
func TestSearchGolden(t *testing.T) {
	shapes := searchGoldenShapes(t)
	got := map[string]searchRecord{}
	for _, workers := range []int{1, 2, 8} {
		for _, s := range shapes {
			rec := recordSearch(s.search(workers))
			if workers == 1 {
				got[s.name] = rec
				continue
			}
			if rec != got[s.name] {
				t.Errorf("%s: workers=%d searched %+v, workers=1 %+v", s.name, workers, rec, got[s.name])
			}
		}
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(searchGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(searchGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]searchRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("golden has %d shapes, the run %d", len(want), len(got))
	}
	for name, w := range want {
		if g, ok := got[name]; !ok {
			t.Errorf("%s: in the golden, not in the corpus", name)
		} else if g != w {
			t.Errorf("%s: searched %+v, golden %+v", name, g, w)
		}
	}
}

// TestAlphaKeyExactOnSearchedRewrites runs the key exactness check (equal
// keys ⇔ equal one-shot alpha keys, each key the post-order encoding of the
// normal form) over every rewrite the search of the golden corpus produces:
// the programs the dedup set actually compares.
func TestAlphaKeyExactOnSearchedRewrites(t *testing.T) {
	o := rules.NewKeyOracle()
	for _, s := range searchGoldenShapes(t) {
		ds, st := s.search(1)
		c, rls := s.setup()
		for _, d := range ds {
			o.Check(t, d.Expr)
			if len(d.Steps) == st.MaxDepth {
				continue // the search stopped here: it never expanded these
			}
			for _, rw := range rules.Step(d.Expr, rls, c) {
				o.Check(t, rw.Expr)
			}
		}
	}
	t.Logf("%d programs, %d classes", o.Seen(), o.Classes())
}
