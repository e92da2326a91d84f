package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"ocas/internal/plan"
	"ocas/internal/plancache"
)

const joinSrc = `for (x <- R) for (y <- S) if x.1 == y.1 then [<x, y>] else []`

// fastBody is a small join request (tens of milliseconds to synthesize).
func fastBody() string {
	return `{
		"program": "for (x <- R) for (y <- S) if x.1 == y.1 then [<x, y>] else []",
		"hier": "hdd-ram", "ram": 8388608,
		"inputs": {"R": {"node": "hdd", "rows": 1048576}, "S": {"node": "hdd", "rows": 65536}},
		"depth": 4, "space": 500
	}`
}

// slowBody is the same join on the three-level hierarchy at depth 12 —
// hundreds of milliseconds of search.
func slowBody() string {
	return `{
		"program": "for (x <- R) for (y <- S) if x.1 == y.1 then [<x, y>] else []",
		"hier": "hdd-ram-cache", "ram": 33554432,
		"inputs": {"R": {"node": "hdd", "rows": 4194304}, "S": {"node": "hdd", "rows": 262144}},
		"depth": 12, "space": 200000
	}`
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// isolatedPlan is the plan bytes of a request body run outside any server:
// compile, search, encode — what cmd/ocas -json prints.
func isolatedPlan(t *testing.T, body []byte) []byte {
	t.Helper()
	var req plan.Request
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	c, err := plan.Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Run(t.Context())
	if err != nil {
		t.Fatalf("isolated run: %v", err)
	}
	return plan.Encode(p)
}

func post(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/synthesize", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestSynthesizeMissThenHit(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, cold := post(t, ts, fastBody())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold: status %d: %s", resp.StatusCode, cold)
	}
	if got := resp.Header.Get("X-Ocas-Cache"); got != "miss" {
		t.Fatalf("cold: X-Ocas-Cache = %q, want miss", got)
	}
	p, err := plan.Decode(cold)
	if err != nil {
		t.Fatalf("cold response is not a plan: %v", err)
	}
	if p.Fingerprint == "" || len(p.Derivation) == 0 || p.Speedup <= 1 {
		t.Fatalf("implausible plan: %+v", p)
	}

	resp, warm := post(t, ts, fastBody())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Ocas-Cache"); got != "hit" {
		t.Fatalf("warm: X-Ocas-Cache = %q, want hit", got)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatal("hit served different bytes than the miss")
	}
}

func TestFingerprintNormalizationHitsAcrossSpellings(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if resp, body := post(t, ts, fastBody()); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	// Same request, renamed binders, re-ordered JSON, comments, explicit
	// defaults: must be a cache hit.
	respelled := `{
		"inputs": {"S": {"node": "hdd", "rows": 65536, "arity": 2}, "R": {"node": "hdd", "rows": 1048576}},
		"program": "-- still the naive join\nfor (a <- R)\n  for (b <- S)\n    if a.1 == b.1 then [<a, b>] else []",
		"hier": "hdd-ram", "ram": 8388608, "strategy": "exhaustive",
		"commutative": true, "depth": 4, "space": 500
	}`
	resp, body := post(t, ts, respelled)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Ocas-Cache"); got != "hit" {
		t.Fatalf("X-Ocas-Cache = %q, want hit (fingerprint failed to normalize)", got)
	}
}

func TestPlansEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, body := post(t, ts, fastBody())
	p, err := plan.Decode(body)
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/plans/" + p.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !bytes.Equal(got, body) {
		t.Fatal("GET /plans returned different bytes than POST /synthesize")
	}

	resp, err = http.Get(ts.URL + "/plans/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown fingerprint: status %d, want 404", resp.StatusCode)
	}
}

func TestHealthzAndStats(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	post(t, ts, fastBody())
	post(t, ts, fastBody())
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Cache.Misses != 1 || stats.Cache.Hits != 1 || stats.Cache.Size != 1 {
		t.Fatalf("cache stats %+v", stats.Cache)
	}
	if stats.Service.Requests != 2 || stats.Service.SynthNanos <= 0 {
		t.Fatalf("service stats %+v", stats.Service)
	}
}

func TestValidationErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := map[string]string{
		"not json":      `{`,
		"unknown field": `{"program": "x", "inputs": {}, "frobnicate": 1}`,
		"bad program":   `{"program": "for (x <-", "inputs": {"R": {"node": "hdd", "rows": 8}}}`,
		"no inputs":     `{"program": "for (x <- R) [x]", "inputs": {}}`,
		"bad node":      `{"program": "for (x <- R) [x]", "inputs": {"R": {"node": "tape", "rows": 8}}}`,
		"bad strategy":  `{"program": "for (x <- R) [x]", "strategy": "dfs", "inputs": {"R": {"node": "hdd", "rows": 8}}}`,
		"free variable": `{"program": "for (x <- Q) [x]", "inputs": {"R": {"node": "hdd", "rows": 8}}}`,
		// Synthesis runs on GOMAXPROCS: a request names no worker count.
		"workers": strings.Replace(fastBody(), `"depth"`, `"workers": 3, "depth"`, 1),

		// A body is one request object: what follows it is not ignored.
		"trailing garbage": fastBody() + "garbage",
		"trailing object":  fastBody() + `{"program":"nonsense"}`,
	}
	for name, body := range cases {
		resp, data := post(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, resp.StatusCode, data)
			continue
		}
		var ae apiError
		if err := json.Unmarshal(data, &ae); err != nil || ae.Error == "" {
			t.Errorf("%s: error body %q not an apiError", name, data)
		}
	}
}

// TestTrailingDataRejected: /synthesize, /execute and POST /tables read one
// request object; anything after it but whitespace is a 400 naming it.
func TestTrailingDataRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, cts, _ := newCatalogServer(t, t.TempDir(), Config{})
	const want = `{"error":"bad request body: trailing data after the request object"}` + "\n"
	const table = `{"name":"t","schema":{"columns":[{"name":"k","type":"int32"}],"key":[0]}}`
	for _, tc := range []struct {
		url, body string
	}{
		{ts.URL + "/synthesize", fastBody() + "garbage"},
		{ts.URL + "/synthesize", fastBody() + "]"},
		{ts.URL + "/execute", execBody("") + `{"program":"nonsense"}`},
		{cts.URL + "/tables", table + "garbage"},
		{cts.URL + "/tables", table + `{"name":"v"}`},
	} {
		resp, err := http.Post(tc.url, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || string(data) != want {
			t.Errorf("%s with trailing data: %d %s, want 400 %s", tc.url, resp.StatusCode, data, want)
		}
	}
	if resp, data := post(t, ts, fastBody()+"\n\t \r\n"); resp.StatusCode != http.StatusOK {
		t.Errorf("trailing whitespace: %d %s, want 200", resp.StatusCode, data)
	}
	if resp, data := doReq(t, http.MethodPost, cts.URL+"/tables", "application/json", table+"\n\t \r\n"); resp.StatusCode != http.StatusCreated {
		t.Errorf("POST /tables with trailing whitespace: %d %s, want 201", resp.StatusCode, data)
	}
}

func TestPerRequestTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := strings.TrimSuffix(strings.TrimSpace(slowBody()), "}") + `, "timeoutMs": 15}`
	resp, data := post(t, ts, body)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, data)
	}
}

// TestConcurrentIdenticalRequests: N clients POST the same request while it
// is being synthesized; exactly one synthesis runs (one cache miss), and
// every client receives the identical plan bytes.
func TestConcurrentIdenticalRequests(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxInflight: 8})
	const n = 8
	bodies := make([][]byte, n)
	outcomes := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/synthesize", "application/json", strings.NewReader(slowBody()))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d", i, resp.StatusCode)
				return
			}
			outcomes[i] = resp.Header.Get("X-Ocas-Cache")
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()

	stats := srv.Store().Stats().Plans
	if stats.Misses != 1 {
		t.Fatalf("%d concurrent identical requests ran %d syntheses, want exactly 1 (outcomes %v)",
			n, stats.Misses, outcomes)
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d received different plan bytes", i)
		}
	}
}

// TestAdmissionSerializesDistinctRequests: MaxInflight=1 still completes
// distinct concurrent requests (the second waits for the slot, no deadlock,
// no rejection).
func TestAdmissionSerializesDistinctRequests(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxInflight: 1})
	reqs := []string{fastBody(), slowBody()}
	var wg sync.WaitGroup
	for i, body := range reqs {
		wg.Add(1)
		go func(i int, body string) {
			defer wg.Done()
			resp, data := post(t, ts, body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, resp.StatusCode, data)
			}
		}(i, body)
	}
	wg.Wait()
	if stats := srv.Store().Stats().Plans; stats.Misses != 2 {
		t.Fatalf("stats %+v, want 2 misses", stats)
	}
}

// TestLRUBoundThroughService: a cache of size 1 keeps only the most recent
// plan; the evicted fingerprint is recomputed (from its shape's template,
// which the plan tier's churn does not touch).
func TestLRUBoundThroughService(t *testing.T) {
	srv, ts := newTestServer(t, Config{CacheSize: 1})
	mkBody := func(rows int64) string {
		return fmt.Sprintf(`{"program": %q, "inputs": {"R": {"node": "hdd", "rows": %d}, "S": {"node": "hdd", "rows": 65536}}, "depth": 4, "space": 500}`,
			joinSrc, rows)
	}
	post(t, ts, mkBody(1<<20))
	post(t, ts, mkBody(1<<21)) // evicts the first
	resp, _ := post(t, ts, mkBody(1<<20))
	if got := resp.Header.Get("X-Ocas-Cache"); got != "template-hit" {
		t.Fatalf("evicted plan served as %q, want template-hit", got)
	}
	if stats := srv.Store().Stats().Plans; stats.Evictions != 2 || stats.Size != 1 {
		t.Fatalf("stats %+v", stats)
	}
}

// bnlBody is the benchmark corpus's bnl request; extra is spliced in after
// the program field.
func bnlBody(extra string) string {
	return `{
		"program": "for (x <- R) for (y <- S) if x.1 == y.1 then [<x, y>] else []",` + extra + `
		"hier": "hdd-ram", "ram": 8388608,
		"inputs": {"R": {"node": "hdd", "rows": 4194304}, "S": {"node": "hdd", "rows": 262144}},
		"depth": 6, "space": 2000
	}`
}

// TestBeamRequestFieldsIgnored: a request still carrying the retired beam's
// strategy/beam fields is served (200) with the exhaustive plan. Only the
// fingerprint, which hashes both fields, tells the two plans apart; a
// malformed strategy or width is still a 400.
func TestBeamRequestFieldsIgnored(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	withoutFP := func(body string) (string, []byte) {
		t.Helper()
		resp, data := post(t, ts, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
		p, err := plan.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		fp := p.Fingerprint
		p.Fingerprint = ""
		return fp, plan.Encode(p)
	}
	fp, exhaustive := withoutFP(bnlBody(""))
	beamFP, beam := withoutFP(bnlBody(`"strategy": "beam", "beam": 64,`))
	if !bytes.Equal(beam, exhaustive) {
		t.Errorf("the beam request's plan differs beyond its fingerprint:\nbeam: %s\nbnl:  %s", beam, exhaustive)
	}
	if beamFP == fp {
		t.Error("the beam request's fingerprint equals the exhaustive one")
	}
	for _, extra := range []string{`"strategy": "dfs",`, `"strategy": "beam", "beam": 4097,`} {
		if resp, data := post(t, ts, bnlBody(extra)); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", extra, resp.StatusCode, data)
		}
	}
}

// TestSearchTruncatedCounter: ocas_search_truncated_total counts the
// searches that stopped at their space bound — not complete searches, and
// not cache hits on a truncated plan.
func TestSearchTruncatedCounter(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	scrape := func() string {
		t.Helper()
		_, data := get(t, ts, "/metrics")
		m := regexp.MustCompile(`(?m)^ocas_search_truncated_total (\S+)$`).FindStringSubmatch(string(data))
		if m == nil {
			t.Fatal("scrape has no ocas_search_truncated_total sample")
		}
		return m[1]
	}
	post(t, ts, fastBody())
	if got := scrape(); got != "0" {
		t.Fatalf("after a complete search: %s, want 0", got)
	}
	tiny := strings.Replace(fastBody(), `"space": 500`, `"space": 5`, 1)
	for i := 0; i < 2; i++ { // a miss, then a hit
		resp, data := post(t, ts, tiny)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
		if p, err := plan.Decode(data); err != nil || !p.Truncated {
			t.Fatalf("space 5 did not truncate the search: %s (%v)", data, err)
		}
	}
	if got := scrape(); got != "1" {
		t.Fatalf("after one truncated search: %s, want 1", got)
	}
}

// TestSequentialRequestsFreshMemoState posts two different synthesis
// requests to one daemon and checks each plan is byte-identical to a plan
// computed by an isolated run of the same request. The synthesis memo
// tables (dedup set, cost memo, screening memo) live per request; this is
// the test that nothing the first request cached leaks into — or perturbs —
// the second.
func TestSequentialRequestsFreshMemoState(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	sortBody := `{
		"program": "treeFold[1](foldL([], \\<acc, x> -> acc ++ [x]), unfoldR(mrg))((for (x <- R) [foldL([], \\<a, y> -> if y <= x then a ++ [y] else a)(R) ++ [x]]))",
		"hier": "hdd-ram", "ram": 8388608,
		"inputs": {"R": {"node": "hdd", "rows": 262144, "arity": 1}},
		"depth": 3, "space": 200
	}`

	for name, body := range map[string]string{"join": fastBody(), "sort": sortBody} {
		resp, served := post(t, ts, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, resp.StatusCode, served)
		}
		if !bytes.Equal(served, isolatedPlan(t, []byte(body))) {
			t.Errorf("%s: daemon plan differs from an isolated run of the same request", name)
		}
	}
}

// TestFailComputeStatus: a failed synthesis or execution answers by cause —
// the request's deadline, its cancellation, a panic the plan cache caught,
// anything else.
func TestFailComputeStatus(t *testing.T) {
	s := New(Config{})
	for _, tc := range []struct {
		err  error
		code int
	}{
		{fmt.Errorf("search: %w", context.DeadlineExceeded), http.StatusGatewayTimeout},
		{context.Canceled, http.StatusServiceUnavailable},
		{fmt.Errorf("%w: boom", plancache.ErrInternal), http.StatusInternalServerError},
		{errors.New("plan: execute: exec: bad body"), http.StatusUnprocessableEntity},
	} {
		w := httptest.NewRecorder()
		s.failCompute(w, tc.err, time.Second, "synthesis")
		if w.Code != tc.code {
			t.Errorf("%v: status %d, want %d", tc.err, w.Code, tc.code)
		}
	}
}
