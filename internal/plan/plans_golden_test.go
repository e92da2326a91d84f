package plan

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

const plansGoldenPath = "testdata/plans.golden.json"

// goldenPlan is one request served both ways: Cold is the plan.Encode bytes
// of a cold Compiled.Run, and Instantiated says what binding a template
// captured at the entry's other cardinality point produced: "equal", the
// same bytes as Cold, asserted. (The file was written while a pruning search
// could also make a template "stale"; no entry ever was.)
type goldenPlan struct {
	Name         string           `json:"name"`
	Rows         map[string]int64 `json:"rows"`
	Cold         json.RawMessage  `json:"cold"`
	Instantiated string           `json:"instantiated"`
}

// planShape is one golden request plus the second cardinality point.
type planShape struct {
	name string
	req  Request
}

// withRows returns the shape's request at the given cardinalities.
func (s planShape) withRows(rows map[string]int64) Request {
	req := s.req
	req.Inputs = map[string]Input{}
	for name, in := range s.req.Inputs {
		in.Rows = rows[name]
		req.Inputs[name] = in
	}
	return req
}

// points are the two cardinality points of a shape: the request's own rows,
// and a second point that shrinks every even-numbered input (in name order)
// eightfold and doubles the odd-numbered ones, so relative sizes flip.
func (s planShape) points() [2]map[string]int64 {
	own, alt := map[string]int64{}, map[string]int64{}
	for i, name := range sortedInputNames(s.req.Inputs) {
		rows := s.req.Inputs[name].Rows
		own[name] = rows
		if i%2 == 0 {
			alt[name] = rows/8 + 1
		} else {
			alt[name] = rows * 2
		}
	}
	return [2]map[string]int64{own, alt}
}

// planGoldenShapes is the corpus: the six examples, the seven searched
// join/product shapes the repo benchmark posts and its five search-free
// shapes (copied from benchmark/corpus.go, which a product package may not
// import).
func planGoldenShapes(t *testing.T) []planShape {
	t.Helper()
	paths, err := filepath.Glob("../../examples/*/request.json")
	if err != nil || len(paths) != 6 {
		t.Fatalf("want 6 example requests, found %d (%v)", len(paths), err)
	}
	var shapes []planShape
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var req Request
		if err := json.Unmarshal(data, &req); err != nil {
			t.Fatal(err)
		}
		req.Description = ""
		shapes = append(shapes, planShape{name: "example-" + filepath.Base(filepath.Dir(p)), req: req})
	}

	const (
		joinProg    = "for (x <- R) for (y <- S) if x.1 == y.1 then [<x, y>] else []"
		productProg = "for (x <- R) for (y <- S) [<x, y>]"
		dedupProg   = "unfoldR(\\<seen, rest> -> if length(rest) == 0 then <[], <[], []>> " +
			"else if length(seen) == 0 then <[head(rest)], <[head(rest)], tail(rest)>> " +
			"else if head(seen) == head(rest) then <[], <seen, tail(rest)>> " +
			"else <[head(rest)], <[head(rest)], tail(rest)>>)([], L)"
		n = 1 << 20
	)
	no := false
	pairs := func(rows int64) Input { return Input{Node: "hdd", Rows: rows, Arity: 2} }
	ints := func(rows int64) Input { return Input{Node: "hdd", Rows: rows, Arity: 1} }
	rs := func(r, s int64) map[string]Input { return map[string]Input{"R": pairs(r), "S": pairs(s)} }
	return append(shapes,
		planShape{"bnl", Request{Program: joinProg, Hier: "hdd-ram", RAM: 8 << 20,
			Inputs: rs(4<<20, 256<<10), Depth: 6, Space: 2000}},
		planShape{"bnl-cache", Request{Program: joinProg, Hier: "hdd-ram-cache", RAM: 8 << 20,
			Inputs: rs(4<<20, 256<<10), Depth: 7, Space: 2500}},
		planShape{"grace", Request{Program: joinProg, Hier: "hdd-ram", RAM: 2 << 20,
			Inputs: rs(4<<20, 8<<20), Depth: 6, Space: 1500}},
		planShape{"write-same", Request{Program: productProg, Hier: "hdd-ram", RAM: 1 << 20,
			Inputs: rs(1024, 16384), Output: "hdd", Depth: 6, Space: 1200}},
		planShape{"write-other", Request{Program: productProg, Hier: "two-hdd", RAM: 1 << 20,
			Inputs: rs(1024, 16384), Output: "hdd2", Depth: 6, Space: 1200}},
		planShape{"write-flash", Request{Program: productProg, Hier: "hdd-flash", RAM: 1 << 20,
			Inputs: rs(1024, 16384), Output: "ssd", Depth: 6, Space: 1500}},
		planShape{"bnl-beam", Request{Program: joinProg, Hier: "hdd-ram", RAM: 8 << 20,
			Inputs: rs(4<<20, 256<<10), Strategy: "beam", Beam: 64, Depth: 6, Space: 2000}},

		planShape{"merge", Request{Program: "unfoldR(mrg)(L1, L2)", Hier: "two-hdd", RAM: 1 << 20,
			Inputs: map[string]Input{"L1": ints(n / 2), "L2": ints(n / 2)},
			Output: "hdd2", Commutative: &no, Depth: 6, Space: 1500}},
		planShape{"agg", Request{Program: "foldL(0, \\<a, x> -> (a + x.2))(R)", Hier: "hdd-ram", RAM: 8 << 20,
			Inputs: map[string]Input{"R": pairs(n)}, Depth: 4, Space: 500}},
		planShape{"dedup", Request{Program: dedupProg, Hier: "two-hdd", RAM: 1 << 20,
			Inputs: map[string]Input{"L": ints(n)}, Output: "hdd2", Depth: 3, Space: 300}},
		planShape{"zip", Request{Program: "unfoldR(z[2])(C1, C2)", Hier: "hdd-ram", RAM: 4 << 20,
			Inputs:      map[string]Input{"C1": ints(n), "C2": ints(n)},
			Commutative: &no, Depth: 2, Space: 200}},
		planShape{"filter", Request{
			Program: "for (x <- R) if x.2 < 104857 then [<x.1, x.2 + 1>] else []",
			Hier:    "hdd-ram", RAM: 8 << 20,
			Inputs: map[string]Input{"R": pairs(n)}, Depth: 4, Space: 500}},
	)
}

// GoldenRequests lists the corpus's requests, one per cardinality point, in
// the golden files' order. It and UpdateGolden are exported for the external
// test package: the C renderer imports this package, so its golden test
// cannot sit inside it.
func GoldenRequests(t *testing.T) (names []string, reqs []Request) {
	for _, s := range planGoldenShapes(t) {
		for _, rows := range s.points() {
			names = append(names, s.name)
			reqs = append(reqs, s.withRows(rows))
		}
	}
	return names, reqs
}

// UpdateGolden is the -update-golden flag.
var UpdateGolden = updateGolden

// TestPlanBytesGolden pins the plan bytes of the request → plan pipeline.
// The committed file was produced by the code that still had two copies of
// the screening and optimization phases — a cold search running its own, and
// template instantiation running Replay's — with both asserted, entry by
// entry, to produce the same bytes; it is the oracle the deleted copy used
// to be. -update-golden rewrites it, only when a change to the plans
// themselves is intended.
func TestPlanBytesGolden(t *testing.T) {
	ctx := context.Background()
	var got []goldenPlan
	for _, s := range planGoldenShapes(t) {
		pts := s.points()
		for i, rows := range pts {
			cold, err := Compile(s.withRows(rows))
			if err != nil {
				t.Fatalf("%s: compile: %v", s.name, err)
			}
			coldPlan, err := cold.Run(ctx)
			if err != nil {
				t.Fatalf("%s %v: cold run: %v", s.name, rows, err)
			}
			entry := goldenPlan{Name: s.name, Rows: rows, Cold: Encode(coldPlan), Instantiated: "equal"}

			// The other door: capture at the other point, instantiate here.
			other, err := Compile(s.withRows(pts[1-i]))
			if err != nil {
				t.Fatal(err)
			}
			_, tmpl, err := other.RunCapture(ctx)
			if err != nil || tmpl == nil {
				t.Fatalf("%s %v: capture: template %v, err %v", s.name, pts[1-i], tmpl, err)
			}
			here, err := Compile(s.withRows(rows))
			if err != nil {
				t.Fatal(err)
			}
			warm, err := here.Instantiate(ctx, tmpl)
			if err != nil {
				t.Fatalf("%s %v: instantiate: %v", s.name, rows, err)
			}
			if !bytes.Equal(Encode(warm), Encode(coldPlan)) {
				t.Errorf("%s %v: instantiated plan differs from the cold plan\nwarm: %s\ncold: %s",
					s.name, rows, Encode(warm), Encode(coldPlan))
			}
			got = append(got, entry)
		}
	}

	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if *updateGolden {
		if err := os.WriteFile(plansGoldenPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(plansGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	if bytes.Equal(data, want) {
		return
	}
	var wantPlans []goldenPlan
	if err := json.Unmarshal(want, &wantPlans); err != nil {
		t.Fatalf("corrupt %s: %v", plansGoldenPath, err)
	}
	if len(wantPlans) != len(got) {
		t.Fatalf("%s has %d entries, this tree produces %d", plansGoldenPath, len(wantPlans), len(got))
	}
	for i, w := range wantPlans {
		g, _ := json.Marshal(got[i])
		ww, _ := json.Marshal(w)
		if !bytes.Equal(g, ww) {
			t.Errorf("%s %v differs from %s\ngot:  %s\nwant: %s", got[i].Name, got[i].Rows, plansGoldenPath, g, ww)
		}
	}
	if !t.Failed() {
		t.Errorf("%s differs in formatting only; regenerate with -update-golden", plansGoldenPath)
	}
}

// TestShippedCorpusNotTruncated checks that the exhaustive search is
// exhaustive on everything the repo ships: no space pinned by the search
// golden (examples, benchmark shapes, Table 1) and no plan pinned here
// stopped at its space bound. Both goldens are compared with live runs by
// their own tests, so a shape that starts truncating fails there first and
// cannot be regenerated past this one.
func TestShippedCorpusNotTruncated(t *testing.T) {
	data, err := os.ReadFile("../rules/testdata/search.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var spaces map[string]struct {
		SpaceSize int  `json:"spaceSize"`
		Truncated bool `json:"truncated"`
	}
	if err := json.Unmarshal(data, &spaces); err != nil {
		t.Fatal(err)
	}
	for name, sp := range spaces {
		if sp.Truncated || sp.SpaceSize == 0 {
			t.Errorf("search golden %s: truncated %v, space %d", name, sp.Truncated, sp.SpaceSize)
		}
	}

	data, err = os.ReadFile(plansGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var plans []goldenPlan
	if err := json.Unmarshal(data, &plans); err != nil {
		t.Fatal(err)
	}
	for _, gp := range plans {
		p, err := Decode(gp.Cold)
		if err != nil {
			t.Fatalf("%s: %v", gp.Name, err)
		}
		if p.Truncated || p.SearchSpace == 0 {
			t.Errorf("plans golden %s %v: truncated %v, space %d", gp.Name, gp.Rows, p.Truncated, p.SearchSpace)
		}
	}
	if len(spaces) == 0 || len(plans) == 0 {
		t.Fatalf("empty corpus: %d spaces, %d plans", len(spaces), len(plans))
	}
	t.Logf("%d searched shapes, %d plans checked", len(spaces), len(plans))
}
