package plancache

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ocas/internal/plan"
)

// storeReq is a small real synthesis request: store tests run actual
// captures and instantiations end to end, because the template tier's
// correctness claim (warm bytes == cold bytes) is about real plans.
func storeReq(program string, rows int64, ram int64) plan.Request {
	if ram == 0 {
		ram = 8 << 20
	}
	return plan.Request{
		Program: program,
		Hier:    "hdd-ram",
		RAM:     ram,
		Inputs: map[string]plan.Input{
			"R": {Node: "hdd", Rows: rows},
			"S": {Node: "hdd", Rows: 1 << 12},
		},
		Depth: 3,
		Space: 150,
	}
}

const storeJoin = `for (x <- R) for (y <- S) if x.1 == y.1 then [<x, y>] else []`
const storeScan = `for (x <- R) [<x.2, x.1>]`

// resolveReq compiles req and routes it through the store exactly as the
// service does. The extra hooks let tests count or gate the capture path.
func resolveReq(t *testing.T, s *Store, req plan.Request, captures *atomic.Int64, gate chan struct{}) (*plan.Plan, Outcome, error) {
	t.Helper()
	cc, f := resolveFuncs(t, req, captures, gate)
	f.Recapture = cc.Recapture
	return s.Resolve(context.Background(), cc.Fingerprint, cc.TemplateFingerprint, f)
}

// resolveFuncs is resolveReq's compiled request and entry points, without
// Recapture.
func resolveFuncs(t *testing.T, req plan.Request, captures *atomic.Int64, gate chan struct{}) (*plan.Compiled, ResolveFuncs) {
	t.Helper()
	cc, err := plan.Compile(req)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	f := ResolveFuncs{
		Capture: func(ctx context.Context) (*plan.Plan, *plan.Template, error) {
			if captures != nil {
				captures.Add(1)
			}
			if gate != nil {
				select {
				case <-gate:
				case <-ctx.Done():
					return nil, nil, ctx.Err()
				}
			}
			return cc.RunCapture(ctx)
		},
		Instantiate: cc.Instantiate,
	}
	return cc, f
}

func coldPlan(t *testing.T, req plan.Request) *plan.Plan {
	t.Helper()
	cc, err := plan.Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	p, err := cc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestStoreTemplateHitAndCounters walks the outcome ladder: cold miss,
// exact hit, template hit at new cardinalities (byte-identical to a cold
// search, instantiation counted), and a guard rejection when a hierarchy
// constant changes (a miss, counted, recaptured over the template's space
// without a capture, template replaced so the next request at the new
// constant is warm again).
func TestStoreTemplateHitAndCounters(t *testing.T) {
	s := NewStore(16, 8)

	_, out, err := resolveReq(t, s, storeReq(storeJoin, 1<<10, 0), nil, nil)
	if err != nil || out != Miss {
		t.Fatalf("cold request: outcome %v err %v", out, err)
	}
	_, out, err = resolveReq(t, s, storeReq(storeJoin, 1<<10, 0), nil, nil)
	if err != nil || out != Hit {
		t.Fatalf("repeat request: outcome %v err %v", out, err)
	}

	warmReq := storeReq(storeJoin, 1<<20, 0)
	p, out, err := resolveReq(t, s, warmReq, nil, nil)
	if err != nil || out != TemplateHit {
		t.Fatalf("same shape, new rows: outcome %v err %v", out, err)
	}
	if !bytes.Equal(plan.Encode(p), plan.Encode(coldPlan(t, warmReq))) {
		t.Fatalf("template hit served different bytes than a cold search")
	}
	if st := s.Stats(); st.Instantiations != 1 || st.GuardRejects != 0 {
		t.Fatalf("counters after template hit: %+v", st)
	}

	// Same shape, different RAM: template fingerprint matches but the
	// hierarchy-constant guard must reject, and the request is synthesized
	// over the template's space for its own hierarchy.
	bigRAM := storeReq(storeJoin, 1<<10, 16<<20)
	var captures atomic.Int64
	p, out, err = resolveReq(t, s, bigRAM, &captures, nil)
	if err != nil || out != Miss || captures.Load() != 0 {
		t.Fatalf("changed RAM: outcome %v err %v, %d captures", out, err, captures.Load())
	}
	if !bytes.Equal(plan.Encode(p), plan.Encode(coldPlan(t, bigRAM))) {
		t.Fatalf("guard-rejected request served wrong bytes")
	}
	if st := s.Stats(); st.Instantiations != 1 || st.GuardRejects != 1 {
		t.Fatalf("counters after guard rejection: %+v", st)
	}

	// The fresh capture replaced the stale template: the new constant's
	// shape is warm again.
	_, out, err = resolveReq(t, s, storeReq(storeJoin, 1<<21, 16<<20), nil, nil)
	if err != nil || out != TemplateHit {
		t.Fatalf("after replacement: outcome %v err %v", out, err)
	}
}

// TestStoreGuardRejectWithoutRecaptureSearches: a caller that sets no
// Recapture gets a guard-rejected request's plan from Capture, and its
// template replaces the rejected one.
func TestStoreGuardRejectWithoutRecaptureSearches(t *testing.T) {
	s := NewStore(16, 8)
	if _, out, err := resolveReq(t, s, storeReq(storeJoin, 1<<10, 0), nil, nil); err != nil || out != Miss {
		t.Fatalf("cold request: outcome %v err %v", out, err)
	}
	bigRAM := storeReq(storeJoin, 1<<10, 16<<20)
	var captures atomic.Int64
	cc, f := resolveFuncs(t, bigRAM, &captures, nil)
	p, out, err := s.Resolve(context.Background(), cc.Fingerprint, cc.TemplateFingerprint, f)
	if err != nil || out != Miss || captures.Load() != 1 {
		t.Fatalf("changed RAM: outcome %v err %v, %d captures", out, err, captures.Load())
	}
	if !bytes.Equal(plan.Encode(p), plan.Encode(coldPlan(t, bigRAM))) {
		t.Fatalf("guard-rejected request served wrong bytes")
	}
	if st := s.Stats(); st.GuardRejects != 1 {
		t.Fatalf("counters after guard rejection: %+v", st)
	}
	if _, out, err := resolveReq(t, s, storeReq(storeJoin, 1<<21, 16<<20), nil, nil); err != nil || out != TemplateHit {
		t.Fatalf("after replacement: outcome %v err %v", out, err)
	}
}

// TestStoreTierEvictionIndependence pins that the two LRUs evict
// independently: plans churning out of a small plan tier do not take their
// shape's template with them, and templates churning out of a small
// template tier do not invalidate cached plans.
func TestStoreTierEvictionIndependence(t *testing.T) {
	// Plan tier of 2, template tier of 8: three cardinalities of one shape
	// evict the first plan, but the template keeps serving.
	s := NewStore(2, 8)
	first := storeReq(storeJoin, 1<<10, 0)
	if _, out, err := resolveReq(t, s, first, nil, nil); err != nil || out != Miss {
		t.Fatalf("cold: %v %v", out, err)
	}
	for i, rows := range []int64{1 << 14, 1 << 18, 1 << 21} {
		if _, out, err := resolveReq(t, s, storeReq(storeJoin, rows, 0), nil, nil); err != nil || out != TemplateHit {
			t.Fatalf("sweep %d: outcome %v err %v", i, out, err)
		}
	}
	if st := s.plans.Stats(); st.Evictions == 0 {
		t.Fatalf("plan tier never evicted (capacity 2, 4 plans): %+v", st)
	}
	if st := s.templates.Stats(); st.Evictions != 0 || st.Size != 1 {
		t.Fatalf("template tier disturbed by plan churn: %+v", st)
	}
	// The evicted first plan re-resolves as a template hit, not a search.
	if _, out, err := resolveReq(t, s, first, nil, nil); err != nil || out != TemplateHit {
		t.Fatalf("evicted plan: outcome %v err %v", out, err)
	}

	// Template tier of 1 (the minimum: capacity 0 clamps to it), plan tier
	// of 8: a second shape evicts the first template, but the first shape's
	// exact plan still hits.
	s2 := NewStore(8, 0)
	if _, out, err := resolveReq(t, s2, storeReq(storeJoin, 1<<10, 0), nil, nil); err != nil || out != Miss {
		t.Fatalf("shape 1 cold: %v %v", out, err)
	}
	if _, out, err := resolveReq(t, s2, storeReq(storeScan, 1<<10, 0), nil, nil); err != nil || out != Miss {
		t.Fatalf("shape 2 cold: %v %v", out, err)
	}
	if st := s2.templates.Stats(); st.Evictions != 1 || st.Size != 1 {
		t.Fatalf("template tier should hold one of two shapes: %+v", st)
	}
	if _, out, err := resolveReq(t, s2, storeReq(storeJoin, 1<<10, 0), nil, nil); err != nil || out != Hit {
		t.Fatalf("plan tier lost an entry to template eviction: %v %v", out, err)
	}
	// The evicted shape re-captures (Miss), it does not error.
	if _, out, err := resolveReq(t, s2, storeReq(storeJoin, 1<<19, 0), nil, nil); err != nil || out != Miss {
		t.Fatalf("evicted template shape: outcome %v err %v", out, err)
	}
}

// TestStoreSingleflightTemplateCapture pins the N→1 collapse on a cold
// shape: N concurrent requests at different cardinalities run exactly one
// capture; the leader's request is a miss and every other request
// instantiates the shared template.
func TestStoreSingleflightTemplateCapture(t *testing.T) {
	const n = 4
	s := NewStore(16, 8)
	var captures atomic.Int64
	gate := make(chan struct{})

	var wg sync.WaitGroup
	outcomes := make([]Outcome, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, outcomes[i], errs[i] = resolveReq(t, s, storeReq(storeJoin, 1<<(10+i), 0), &captures, gate)
		}()
	}
	// The capture is gated: wait until one leader holds the template flight
	// and the other n-1 requests have joined it as waiters, then release.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := s.templates.Stats()
		if st.Misses == 1 && st.Shared == n-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("waiters never converged: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if got := captures.Load(); got != 1 {
		t.Fatalf("want exactly 1 capture for %d concurrent requests, got %d", n, got)
	}
	misses, templateHits := 0, 0
	for _, out := range outcomes {
		switch out {
		case Miss:
			misses++
		case TemplateHit:
			templateHits++
		default:
			t.Fatalf("unexpected outcome %v (all: %v)", out, outcomes)
		}
	}
	if misses != 1 || templateHits != n-1 {
		t.Fatalf("want 1 miss + %d template hits, got %v", n-1, outcomes)
	}
	if st := s.Stats(); st.Instantiations != n-1 {
		t.Fatalf("instantiations: %+v", st)
	}
}

// restartSequence drives a freshly loaded store through what a restarted
// daemon sees: the identical request is a hit with the saved bytes and no
// search; a new cardinality of the same shape is a miss — one search, the
// cold run's bytes — that seeds the template; the next cardinality is a
// template hit, cold bytes again.
func restartSequence(t *testing.T, s *Store, req func(rows int64) plan.Request, savedRows int64, saved []byte, newRows [2]int64) {
	t.Helper()
	if st := s.Stats(); st.Templates.Size != 0 {
		t.Fatalf("a loaded store holds templates: %+v", st)
	}
	var captures atomic.Int64
	p, out, err := resolveReq(t, s, req(savedRows), &captures, nil)
	if err != nil || out != Hit || captures.Load() != 0 {
		t.Fatalf("identical request: outcome %v err %v captures %d", out, err, captures.Load())
	}
	if !bytes.Equal(plan.Encode(p), saved) {
		t.Fatalf("plan changed across persistence:\n%s\n%s", plan.Encode(p), saved)
	}
	for i, want := range []Outcome{Miss, TemplateHit} {
		r := req(newRows[i])
		p, out, err = resolveReq(t, s, r, &captures, nil)
		if err != nil || out != want {
			t.Fatalf("cardinality %d after the restart: outcome %v (want %v) err %v", i, out, want, err)
		}
		if !bytes.Equal(plan.Encode(p), plan.Encode(coldPlan(t, r))) {
			t.Fatalf("cardinality %d after the restart: bytes differ from a cold run:\n%s", i, plan.Encode(p))
		}
	}
	if captures.Load() != 1 {
		t.Fatalf("want one search after the restart, got %d", captures.Load())
	}
}

// TestStorePersistenceRoundTrip saves a populated store and reloads it: the
// plan tier keeps its contents and its LRU order, the template tier starts
// empty, and the reloaded store walks the restart sequence.
func TestStorePersistenceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.json")
	s := NewStore(4, 4)
	saved, _, _ := resolveReq(t, s, storeReq(storeJoin, 1<<10, 0), nil, nil)
	resolveReq(t, s, storeReq(storeScan, 1<<10, 0), nil, nil)
	resolveReq(t, s, storeReq(storeJoin, 1<<18, 0), nil, nil)
	// Touch the scan shape last so the plan tier ends with scan most recent.
	resolveReq(t, s, storeReq(storeScan, 1<<15, 0), nil, nil)
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(path); err != nil || bytes.Contains(data, []byte(`"templates"`)) {
		t.Fatalf("snapshot carries templates (read error %v)", err)
	}

	s2 := NewStore(4, 4)
	if err := s2.Load(path); err != nil {
		t.Fatal(err)
	}
	wantPlans, gotPlans := s.plans.snapshot(), s2.plans.snapshot()
	if len(gotPlans) != len(wantPlans) {
		t.Fatalf("plan tier: want %d entries, got %d", len(wantPlans), len(gotPlans))
	}
	for i := range wantPlans {
		if gotPlans[i].key != wantPlans[i].key {
			t.Fatalf("plan tier LRU order changed at %d: %s vs %s", i, gotPlans[i].key, wantPlans[i].key)
		}
	}
	restartSequence(t, s2, func(rows int64) plan.Request { return storeReq(storeJoin, rows, 0) },
		1<<10, plan.Encode(saved), [2]int64{1 << 20, 1 << 21})
}

// filterReq is the `filter` request of benchmark/corpus.go (depth 4, space
// 500: a search space of three programs) at the given cardinality.
func filterReq(rows int64) plan.Request {
	return plan.Request{
		Program: "for (x <- R) if x.2 < 104857 then [<x.1, x.2 + 1>] else []",
		Hier:    "hdd-ram",
		RAM:     8 << 20,
		Inputs:  map[string]plan.Input{"R": {Node: "hdd", Rows: rows, Arity: 2}},
		Depth:   4,
		Space:   500,
	}
}

// TestLoadIgnoresPersistedTemplates loads testdata/snapshot_v2_templates.json,
// a Store.Save of filterReq(1<<20) written by the tree that still persisted
// templates (it carries a "templates" key) and whose plans printed the
// hierarchy's constants in costFormula as numbers. The plan loads and the
// templates do not. The stale plan is never served: it is filed under an
// ocas-plan-v1 fingerprint, so the same request is a miss that searches and
// answers a cold run's bytes, and the next cardinality is a template hit.
func TestLoadIgnoresPersistedTemplates(t *testing.T) {
	path := filepath.Join("testdata", "snapshot_v2_templates.json")
	data, err := os.ReadFile(path)
	if err != nil || !bytes.Contains(data, []byte(`"templates"`)) {
		t.Fatalf("the checked-in snapshot has no templates key (read error %v)", err)
	}
	s := NewStore(4, 4)
	if err := s.Load(path); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Plans.Size != 1 || st.Templates.Size != 0 {
		t.Fatalf("want the snapshot's one plan and no template, got %+v", st)
	}
	var captures atomic.Int64
	for _, c := range []struct {
		rows int64
		want Outcome
	}{{1 << 20, Miss}, {1 << 19, TemplateHit}} {
		r := filterReq(c.rows)
		p, out, err := resolveReq(t, s, r, &captures, nil)
		if err != nil || out != c.want {
			t.Fatalf("rows %d after loading: outcome %v (want %v) err %v", c.rows, out, c.want, err)
		}
		if got := plan.Encode(p); !bytes.Equal(got, plan.Encode(coldPlan(t, r))) {
			t.Fatalf("rows %d after loading: bytes differ from a cold run:\n%s", c.rows, got)
		}
	}
	if captures.Load() != 1 {
		t.Fatalf("want one search after loading, got %d", captures.Load())
	}
}

// loadRejected writes a snapshot holding a good entry followed by bad and
// checks that Load fails naming want and installs nothing, the good entry
// included.
func loadRejected(t *testing.T, bad, want string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bad.json")
	snap := `{"version": 2, "plans": [{"key": "fp-a", "plan": ` + string(plan.Encode(mkPlan("fp-a"))) + `}, ` + bad + `]}`
	if err := os.WriteFile(path, []byte(snap), 0o644); err != nil {
		t.Fatal(err)
	}
	s := NewStore(4, 4)
	err := s.Load(path)
	if st := s.Stats(); st.Plans.Size != 0 {
		t.Fatalf("a bad snapshot was half-installed (Load returned %v): %+v", err, st)
	}
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("want an error containing %q, got %v", want, err)
	}
}

// TestLoadInstallsNothingFromBadSnapshot: an entry that fails validation
// refuses the whole file, the valid entries before it included — ocasd then
// says "starting with a cold cache", and means it.
func TestLoadInstallsNothingFromBadSnapshot(t *testing.T) {
	loadRejected(t, `{"key": "fp-b", "plan": null}`, "plan entry 1 is empty")
	loadRejected(t, `{"key": "", "plan": `+string(plan.Encode(mkPlan("fp-b")))+`}`, "plan entry 1 is empty")
}

// TestLoadRejectsKeyFingerprintMismatch: an entry filed under a key other
// than its plan's fingerprint would be served for the wrong request.
func TestLoadRejectsKeyFingerprintMismatch(t *testing.T) {
	loadRejected(t, `{"key": "fp-b", "plan": `+string(plan.Encode(mkPlan("fp-c")))+`}`,
		"has key fp-b but fingerprint fp-c")
}

// TestStoreRejectsV1Snapshot: a version-1 file (plan tier only, the format
// before templates) is refused whole, so ocasd logs it and starts cold.
func TestStoreRejectsV1Snapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v1.json")
	v1 := `{"version": 1, "entries": [{"key": "fp-a", "plan": ` + string(plan.Encode(mkPlan("fp-a"))) + `}]}`
	if err := os.WriteFile(path, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	s := NewStore(4, 4)
	if err := s.Load(path); err == nil || !strings.Contains(err.Error(), "unsupported snapshot version 1") {
		t.Fatalf("want an unsupported-version error, got %v", err)
	}
	if st := s.Stats(); st.Plans.Size != 0 {
		t.Fatalf("a refused snapshot populated the store: %+v", st)
	}
}

// TestLoadDropsEmbeddedC: snapshots written while a plan still embedded its
// generated C carry a "c" key per plan entry. Such a file loads, serves a hit
// with today's bytes, and is rewritten without the key.
func TestLoadDropsEmbeddedC(t *testing.T) {
	path := filepath.Join(t.TempDir(), "with-c.json")
	want := mkPlan("fp-a")
	enc := strings.TrimSuffix(strings.TrimSpace(string(plan.Encode(want))), "}")
	old := `{"version": 2, "plans": [{"key": "fp-a", "plan": ` + enc + `, "c": "void ocas_query(ocas_ctx *ctx) {}\n"}}]}`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	s := NewStore(4, 4)
	if err := s.Load(path); err != nil {
		t.Fatal(err)
	}
	p, out, err := s.Resolve(context.Background(), "fp-a", "tfp-a", ResolveFuncs{})
	if err != nil || out != Hit {
		t.Fatalf("loaded plan: outcome %v err %v", out, err)
	}
	if !bytes.Equal(plan.Encode(p), plan.Encode(want)) {
		t.Fatalf("loaded plan encodes as\n%s", plan.Encode(p))
	}
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte(`"c"`)) || bytes.Contains(data, []byte("ocas_query")) {
		t.Fatalf("the rewritten snapshot still carries C:\n%s", data)
	}
}

func TestLoadMissingFileIsFine(t *testing.T) {
	if err := NewStore(2, 2).Load(filepath.Join(t.TempDir(), "absent.json")); err != nil {
		t.Fatal(err)
	}
}

func TestLoadCorruptFileFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := NewStore(2, 2).Load(path); err == nil {
		t.Fatal("corrupt snapshot loaded without error")
	}
}

// TestPersistencePreservesLRUOrder: reloading a snapshot keeps the eviction
// order, so a restarted daemon evicts the same victims.
func TestPersistencePreservesLRUOrder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plans.json")
	c := NewStore(3, 1)
	for _, k := range []string{"a", "b", "c"} {
		c.plans.Put(k, mkPlan(k))
	}
	c.Get("a") // order now (LRU->MRU): b, c, a
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}
	d := NewStore(3, 1)
	if err := d.Load(path); err != nil {
		t.Fatal(err)
	}
	d.plans.Put("x", mkPlan("x")) // should evict b
	if _, ok := d.Get("b"); ok {
		t.Fatal("b survived; LRU order was lost across persistence")
	}
	for _, k := range []string{"a", "c", "x"} {
		if _, ok := d.Get(k); !ok {
			t.Fatalf("%s should still be cached", k)
		}
	}
}

// TestStoreHit: Encoded with hit set is a plan-tier hit without a compute.
// It counts one hit, makes the plan the most recently used and returns its
// canonical bytes; a key the tier lacks counts nothing.
func TestStoreHit(t *testing.T) {
	s := NewStore(2, 1)
	a := &plan.Plan{Fingerprint: "a"}
	s.plans.Put("a", a)
	s.plans.Put("b", &plan.Plan{Fingerprint: "b"})
	if p, b, ok := s.Encoded("a", true); !ok || p != a || !bytes.Equal(b, plan.Encode(a)) {
		t.Fatalf("Encoded(a, true) = %p, %q, %v; want %p and its bytes", p, b, ok, a)
	}
	if _, _, ok := s.Encoded("c", true); ok {
		t.Fatal("Encoded found a key the tier lacks")
	}
	s.plans.Put("c", &plan.Plan{Fingerprint: "c"})
	if _, ok := s.Get("b"); ok {
		t.Fatal("b outlived the plan Hit made most recently used")
	}
	if st := s.Stats().Plans; st.Hits != 1 || st.Misses != 0 || st.Evictions != 1 {
		t.Fatalf("stats %+v, want 1 hit, 0 misses, 1 eviction", st)
	}
}

// TestStoreEncodesAtFirstEncoded: a cached plan holds no bytes until it is
// first served through Encoded, which keeps them with it; a plan put again
// under its key drops the old plan's bytes.
func TestStoreEncodesAtFirstEncoded(t *testing.T) {
	s := NewStore(2, 1)
	held := func() []byte { return s.plans.entries["a"].Value.(*entry[*plan.Plan]).bytes }
	s.plans.Put("a", &plan.Plan{Fingerprint: "a", Program: "old"})
	if held() != nil {
		t.Fatal("a plan holds bytes before it was served")
	}
	_, first, _ := s.Encoded("a", false)
	if _, again, _ := s.Encoded("a", true); &again[0] != &first[0] || !bytes.Equal(held(), first) {
		t.Fatal("a second Encoded did not serve the bytes the first kept")
	}
	fresh := &plan.Plan{Fingerprint: "a", Program: "new"}
	s.plans.Put("a", fresh)
	if _, b, _ := s.Encoded("a", false); !bytes.Equal(b, plan.Encode(fresh)) {
		t.Fatalf("the replaced plan's bytes %q outlived it", b)
	}
}
