package main

import (
	"crypto/sha256"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"ocas/internal/plan"
)

// benchmarkJSON is the contract file at the root of the checkout.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestBenchmarkJSONMatchesCode holds BENCHMARK.json to the contract's limits
// and to the declarations the code reports from.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	doc := readBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}

	if n := len(doc.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the code, 2..8 allowed", n, len(workloads))
	}
	for i, w := range doc.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the code", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	if n := len(doc.EndToEnd); n < 1 || n > 16 || n != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d in the code, 1..16 allowed", n, len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		name(m.Name)
		want := endToEnd[i]
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better || m.Bound != want.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the code %+v", i, m, want)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bad unit, direction or bound", m.Name)
		}
	}
	if m := doc.EndToEnd[0]; m.Name != "setup_s" || m.Unit != "s" || m.Better != "lower" {
		t.Errorf("the contract wants a setup_s metric in s, lower is better; got %+v", m)
	}

	if n := len(doc.PerLayer); n < 1 || n > 128 || n != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d in the code, 1..128 allowed", n, len(perLayer))
	}
	for i, m := range doc.PerLayer {
		name(m.Name)
		want := perLayer[i]
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the code %+v", i, m, want)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %s: bad unit or direction", m.Name)
		}
		// What it should move is an end-to-end metric on a workload.
		moved, workload, ok := strings.Cut(want.Moves, "@")
		if !ok || findWorkload(workload) == nil ||
			!slices.ContainsFunc(endToEnd, func(e metric) bool { return e.Name == moved }) {
			t.Errorf("per-layer metric %s should move %q, which is not metric@workload", m.Name, want.Moves)
		}
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", doc.RunSeconds)
	}
	if !slices.Equal(doc.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", doc.Paths)
	}
}

// TestCorpusShapesAreDistinct: two synthesis corpus entries sharing a template
// fingerprint would evict each other's template and make every request a miss.
func TestCorpusShapesAreDistinct(t *testing.T) {
	seen := map[string]string{}
	for _, q := range synthCorpus() {
		c, err := plan.Compile(q.req)
		if err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		if other, dup := seen[c.TemplateFingerprint]; dup {
			t.Errorf("%s and %s share a template fingerprint", q.name, other)
		}
		seen[c.TemplateFingerprint] = q.name
	}
	if len(seen) != 12 {
		t.Errorf("%d corpus shapes, want 12", len(seen))
	}
}

// TestReplayCoversDeclarations replays every workload at 2^10 rows, without a
// daemon: every op must reproduce its expected cache outcome and oracle
// answer, every declared span must be recorded, and every declared per-layer
// metric must be computed by some workload and none that is not declared.
func TestReplayCoversDeclarations(t *testing.T) {
	r := &runner{root: t.TempDir(), seed: 1, scale: 1 << 10}
	spans, computed := map[string]bool{}, map[string]bool{}
	for i := range workloads {
		w := &workloads[i]
		m := map[string]float64{}
		p, err := r.replay(w, newBench(r.seed, r.scale), m)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		p.layerMetrics(m, newDriver("", &checks{}), nil)
		if _, err := report(perLayer, m); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		for name := range m {
			computed[name] = true
		}
		for _, tr := range p.traces {
			for _, sp := range tr.Spans {
				spans[sp.Name] = true
			}
		}
	}
	delete(spans, "probe")
	for _, name := range declaredSpans {
		if !spans[name] {
			t.Errorf("declared span %s was never recorded", name)
		}
		delete(spans, name)
	}
	for name := range spans {
		t.Errorf("span %s is recorded and not declared", name)
	}
	for _, m := range perLayer {
		if !computed[m.Name] {
			t.Errorf("declared per-layer metric %s is computed by no workload", m.Name)
		}
	}
}

// TestOracleDigest checks the re-implemented bag digest against its
// definition: one row <1, 2> is SHA-256 of the little-endian u32s 2, 1, 2, and
// a second copy of the row doubles the sum modulo 2^256.
func TestOracleDigest(t *testing.T) {
	var d bagDigest
	d.add([]int32{1, 2})
	first := bagDigest(sha256.Sum256([]byte{2, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0}))
	if d != first {
		t.Fatalf("digest of one row is %s, want %s", d.hex(), first.hex())
	}
	d.add([]int32{1, 2})
	carry := byte(0)
	for i := len(first) - 1; i >= 0; i-- {
		if want := first[i]<<1 | carry; d[i] != want {
			t.Fatalf("two equal rows do not sum to twice one row at byte %d", i)
		}
		carry = first[i] >> 7
	}
}
