package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ocas/internal/plan"
)

// searchHeavyBody is a five-way join on the three-level hierarchy with the
// search space pinned near the capture limit and a single worker: seconds of
// cold search, tens of milliseconds of template instantiation. rows scales
// the outer relation so every call is a distinct cardinality point.
func searchHeavyBody(rows int64) string {
	return fmt.Sprintf(`{
		"program": "for (x <- R) for (y <- S) for (w <- T) for (v <- U) for (u <- V) if x.1 == y.1 then (if y.2 == w.1 then (if w.2 == v.1 then (if v.2 == u.1 then [<x.2, y.2, w.2, v.2, u.2>] else []) else []) else []) else []",
		"hier": "hdd-ram-cache", "ram": 33554432,
		"inputs": {
			"R": {"node": "hdd", "rows": %d},
			"S": {"node": "hdd", "rows": 65536},
			"T": {"node": "hdd", "rows": 16384},
			"U": {"node": "hdd", "rows": 4096},
			"V": {"node": "hdd", "rows": 1024}
		},
		"depth": 8, "space": 8000, "workers": 1
	}`, rows)
}

// serverElapsed reads the server-side wall time of a response.
func serverElapsed(t *testing.T, resp *http.Response) time.Duration {
	t.Helper()
	d, err := time.ParseDuration(resp.Header.Get("X-Ocas-Elapsed"))
	if err != nil {
		t.Fatalf("X-Ocas-Elapsed %q: %v", resp.Header.Get("X-Ocas-Elapsed"), err)
	}
	return d
}

// TestWarmShapeSpeedup is the template tier's economic claim: once a shape
// has been synthesized, serving it at new cardinalities must be at least
// warmSpeedupFloor times faster than the cold search: 50x, 25x under the
// race detector (norace_test.go, race_test.go). Cold is a full search; warm
// samples are template instantiations at distinct cardinalities, taken
// after one warm-up request (the first instantiation compiles the
// screening formulas that later ones reuse). Both sides are wall-clock, so
// unrelated machine load (CI runs packages concurrently) inflates them —
// the test keeps sampling the minimum warm time until the bound holds, and
// as a last resort re-measures cold on a fresh server so the two sides see
// comparable contention. With all 15 warm samples taken the ratio reads
// 113–150x alone and 37–41x under -race on a 2-core host, since the search
// keys rewrites without an interner (cold 1.1–1.3 s alone, 5.0–5.3 s under
// -race); it read 200–216x and 78–81x with the interner, and 92–123x and
// 50–60x before the optimizer's bind/point split sped the warm side up.
func TestWarmShapeSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("seconds of cold synthesis")
	}
	_, ts := newTestServer(t, Config{TemplateCacheSize: 8})

	measureCold := func(ts *httptest.Server) time.Duration {
		resp, data := post(t, ts, searchHeavyBody(1<<20))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cold: status %d: %s", resp.StatusCode, data)
		}
		if got := resp.Header.Get("X-Ocas-Cache"); got != "miss" {
			t.Fatalf("cold: X-Ocas-Cache = %q, want miss", got)
		}
		return serverElapsed(t, resp)
	}
	cold := measureCold(ts)

	// Warm-up instantiation, then sample until the bound holds.
	resp, data := post(t, ts, searchHeavyBody(1<<17))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up: status %d: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get("X-Ocas-Cache"); got != "template-hit" {
		t.Fatalf("warm-up: X-Ocas-Cache = %q, want template-hit", got)
	}
	warm := time.Duration(1<<63 - 1)
	for i := 0; i < 15 && cold.Seconds()/warm.Seconds() < warmSpeedupFloor; i++ {
		resp, data = post(t, ts, searchHeavyBody(int64(1)<<18+int64(i)*77777))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warm %d: status %d: %s", i, resp.StatusCode, data)
		}
		if got := resp.Header.Get("X-Ocas-Cache"); got != "template-hit" {
			t.Fatalf("warm %d: X-Ocas-Cache = %q, want template-hit", i, got)
		}
		if d := serverElapsed(t, resp); d < warm {
			warm = d
		}
	}
	if cold.Seconds()/warm.Seconds() < warmSpeedupFloor {
		// The warm floor would not come down: either a real regression, or
		// the cold measurement predates the machine load the warm samples
		// ran under. Re-measure cold on a fresh server for a like-for-like
		// comparison before judging.
		_, ts2 := newTestServer(t, Config{TemplateCacheSize: 8})
		if c2 := measureCold(ts2); c2 > cold {
			cold = c2
		}
	}
	if ratio := cold.Seconds() / warm.Seconds(); ratio < warmSpeedupFloor {
		t.Fatalf("warm shape only %.1fx faster than cold (cold %v, warm %v); want >= %dx",
			ratio, cold, warm, warmSpeedupFloor)
	}
}

// TestTemplateHitServesColdBytes pins the serving contract end to end: the
// template-hit response body is byte-identical to what a cold daemon would
// have synthesized for the same request, and transport-only fields
// (timeoutMs, workers) neither change the template nor the bytes.
func TestTemplateHitServesColdBytes(t *testing.T) {
	_, ts := newTestServer(t, Config{TemplateCacheSize: 8})

	resp, _ := post(t, ts, fastBody())
	if got := resp.Header.Get("X-Ocas-Cache"); got != "miss" {
		t.Fatalf("cold: X-Ocas-Cache = %q", got)
	}

	// Same shape, different rows, different transport knobs: template hit.
	warmBody := `{
		"program": "for (x <- R) for (y <- S) if x.1 == y.1 then [<x, y>] else []",
		"hier": "hdd-ram", "ram": 8388608,
		"inputs": {"R": {"node": "hdd", "rows": 2097152}, "S": {"node": "hdd", "rows": 32768}},
		"depth": 4, "space": 500, "workers": 3, "timeoutMs": 30000
	}`
	resp, warm := post(t, ts, warmBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm: status %d: %s", resp.StatusCode, warm)
	}
	if got := resp.Header.Get("X-Ocas-Cache"); got != "template-hit" {
		t.Fatalf("warm: X-Ocas-Cache = %q, want template-hit", got)
	}

	// A cold server must produce the same bytes for the warm request.
	_, tsCold := newTestServer(t, Config{})
	resp, cold := post(t, tsCold, warmBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold reference: status %d: %s", resp.StatusCode, cold)
	}
	if !bytes.Equal(warm, cold) {
		t.Fatalf("template-hit served different bytes than a cold synthesis:\nwarm: %s\ncold: %s", warm, cold)
	}
}

// TestStatsReportTemplates checks /stats gained the template tier.
func TestStatsReportTemplates(t *testing.T) {
	_, ts := newTestServer(t, Config{TemplateCacheSize: 4})
	post(t, ts, fastBody())
	warm := `{
		"program": "for (x <- R) for (y <- S) if x.1 == y.1 then [<x, y>] else []",
		"hier": "hdd-ram", "ram": 8388608,
		"inputs": {"R": {"node": "hdd", "rows": 4096}, "S": {"node": "hdd", "rows": 2048}},
		"depth": 4, "space": 500
	}`
	post(t, ts, warm)

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Templates struct {
			Size   int   `json:"size"`
			Misses int64 `json:"misses"`
			Hits   int64 `json:"hits"`
		} `json:"templates"`
		Instantiations int64 `json:"instantiations"`
		GuardRejects   int64 `json:"guardRejects"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Templates.Size != 1 || stats.Templates.Misses != 1 || stats.Templates.Hits != 1 {
		t.Fatalf("template tier stats: %+v", stats.Templates)
	}
	if stats.Instantiations != 1 || stats.GuardRejects != 0 {
		t.Fatalf("counters: %+v", stats)
	}
}

// TestTemplatesOnByDefault pins the service default: a zero Config serves
// same-shape/different-rows requests from the shape's template.
func TestTemplatesOnByDefault(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post(t, ts, fastBody())
	warm := `{
		"program": "for (x <- R) for (y <- S) if x.1 == y.1 then [<x, y>] else []",
		"hier": "hdd-ram", "ram": 8388608,
		"inputs": {"R": {"node": "hdd", "rows": 4096}, "S": {"node": "hdd", "rows": 2048}},
		"depth": 4, "space": 500
	}`
	resp, _ := post(t, ts, warm)
	if got := resp.Header.Get("X-Ocas-Cache"); got != "template-hit" {
		t.Fatalf("X-Ocas-Cache = %q, want template-hit from a default server", got)
	}
}

// TestConcurrentColdShapeSearchesOnce: N concurrent cold requests for
// different cardinalities of one shape run one search between them — the
// others wait for the leader's capture and instantiate it (or arrive after
// it and do the same).
func TestConcurrentColdShapeSearchesOnce(t *testing.T) {
	const n = 6
	_, ts := newTestServer(t, Config{MaxInflight: n})
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := strings.Replace(fastBody(), "1048576", fmt.Sprint(1<<(12+i)), 1)
			resp, err := http.Post(ts.URL+"/synthesize", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d", i, resp.StatusCode)
			}
			ids[i] = resp.Header.Get("X-Ocas-Request-Id")
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	searches := 0
	for _, id := range ids {
		spans, _ := traceSpans(t, ts, id)
		for _, sp := range spans {
			if sp.Name == "synth.search" {
				searches++
			}
		}
	}
	if searches != 1 {
		t.Fatalf("%d concurrent cold requests of one shape ran %d searches, want 1", n, searches)
	}
}

// FuzzTemplateRequest drives the warm path with arbitrary size fields: a
// server holding a template for the shape must never panic and must never
// serve a stale-regime plan — whatever it returns for a valid request must
// byte-equal that request's cold synthesis.
func FuzzTemplateRequest(f *testing.F) {
	f.Add(int64(1<<20), int64(1<<16), int64(8<<20))
	f.Add(int64(1), int64(1), int64(1<<20))
	f.Add(int64(1<<40), int64(1<<35), int64(32<<20))
	f.Add(int64(0), int64(-5), int64(8<<20))
	f.Add(int64(-1), int64(1<<62), int64(1<<62))

	cfg := Config{TemplateCacheSize: 8}
	srv := New(cfg)
	// Seed one template for the join shape at the reference constants.
	seed := plan.Request{
		Program: joinSrc,
		Hier:    "hdd-ram",
		RAM:     8 << 20,
		Inputs: map[string]plan.Input{
			"R": {Node: "hdd", Rows: 1 << 20},
			"S": {Node: "hdd", Rows: 1 << 16},
		},
		Depth: 3,
		Space: 150,
	}
	seedC, err := plan.Compile(seed)
	if err != nil {
		f.Fatal(err)
	}
	if _, _, err := srv.resolvePlan(context.Background(), seedC); err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, rRows, sRows, ram int64) {
		req := seed
		req.RAM = ram
		req.Inputs = map[string]plan.Input{
			"R": {Node: "hdd", Rows: rRows},
			"S": {Node: "hdd", Rows: sRows},
		}
		cc, err := plan.Compile(req)
		if err != nil {
			return // invalid sizes are rejected before the cache; nothing to serve
		}
		served, _, err := srv.resolvePlan(context.Background(), cc)
		if err != nil {
			// A request the warm path cannot serve must also fail cold.
			if _, cerr := cc.Run(context.Background()); cerr == nil {
				t.Fatalf("warm path failed (%v) but cold synthesis succeeds", err)
			}
			return
		}
		cold, err := plan.Compile(req)
		if err != nil {
			t.Fatal(err)
		}
		coldPlan, err := cold.Run(context.Background())
		if err != nil {
			t.Fatalf("served a plan cold synthesis cannot produce: %v", err)
		}
		if !bytes.Equal(plan.Encode(served), plan.Encode(coldPlan)) {
			t.Fatalf("stale-regime plan served for R=%d S=%d ram=%d:\nserved: %s\ncold: %s",
				rRows, sRows, ram, plan.Encode(served), plan.Encode(coldPlan))
		}
	})
}
