package service

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"ocas/internal/plan"
)

// memoLen is the number of bodies the server's hit memo holds.
func memoLen(srv *Server) int {
	srv.memo.mu.Lock()
	defer srv.memo.mu.Unlock()
	return len(srv.memo.entries)
}

// memoEntryFor is the server's memo entry for a body, if any.
func memoEntryFor(srv *Server, body string) (memoEntry, bool) {
	return srv.memo.get(sha256.Sum256([]byte(body)))
}

// TestHitMemoServesFullPathBytes: a body posted four times to a fresh
// server is a miss, a full-path hit that records it, then two memo hits;
// the memo hits carry the full-path hit's bytes and headers, and /stats and
// /metrics count every hit sent.
func TestHitMemoServesFullPathBytes(t *testing.T) {
	bodies := map[string]string{"fast": fastBody(), "bnl": bnlBody("")}
	for name, body := range loadCorpus(t) {
		bodies[name] = string(body)
	}
	for name, body := range bodies {
		srv, ts := newTestServer(t, Config{})
		resp, first := post(t, ts, body)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Ocas-Cache") != "miss" {
			t.Fatalf("%s: first POST %d %q: %s", name, resp.StatusCode, resp.Header.Get("X-Ocas-Cache"), first)
		}
		if _, ok := memoEntryFor(srv, body); ok {
			t.Fatalf("%s: a miss was memoized", name)
		}
		var full *http.Response
		for i := 2; i <= 4; i++ {
			resp, data := post(t, ts, body)
			if i == 2 {
				full = resp
				if _, ok := memoEntryFor(srv, body); !ok {
					t.Fatalf("%s: the full-path hit was not memoized", name)
				}
			}
			if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Ocas-Cache") != "hit" {
				t.Fatalf("%s: POST %d: %d %q", name, i, resp.StatusCode, resp.Header.Get("X-Ocas-Cache"))
			}
			if !bytes.Equal(data, first) {
				t.Fatalf("%s: POST %d served other bytes than the full path", name, i)
			}
			if got, want := resp.Header.Get("Content-Type"), full.Header.Get("Content-Type"); got != want {
				t.Fatalf("%s: POST %d Content-Type %q, want %q", name, i, got, want)
			}
		}
		if st := srv.Store().Stats().Plans; st.Hits != 3 || st.Misses != 1 {
			t.Fatalf("%s: plan tier counted %d hits and %d misses, sent 3 and 1", name, st.Hits, st.Misses)
		}
		if _, data := get(t, ts, "/metrics"); !strings.Contains(string(data), "ocas_plan_cache_hits_total 3\n") {
			t.Fatalf("%s: /metrics does not count 3 plan-tier hits", name)
		}
	}
}

// TestHitMemoNeverStale: at one plan per tier, A's memo entry outlives A's
// plan. Posting A, A, B, A, the last A takes the full path (a miss), and
// the next A is a hit with the new plan's bytes.
func TestHitMemoNeverStale(t *testing.T) {
	srv, ts := newTestServer(t, Config{CacheSize: 1, TemplateCacheSize: 1})
	a, b := fastBody(), bnlBody("")
	post(t, ts, a)
	post(t, ts, a)
	old, ok := memoEntryFor(srv, a)
	if !ok {
		t.Fatal("A's hit was not memoized")
	}
	post(t, ts, b) // evicts A's plan and its template
	if resp, _ := post(t, ts, a); resp.Header.Get("X-Ocas-Cache") != "miss" {
		t.Fatalf("A after its eviction: %q, want miss", resp.Header.Get("X-Ocas-Cache"))
	}
	resp, data := post(t, ts, a)
	if resp.Header.Get("X-Ocas-Cache") != "hit" {
		t.Fatalf("A after its re-synthesis: %q, want hit", resp.Header.Get("X-Ocas-Cache"))
	}
	cur, _ := srv.Store().Get(old.fp)
	if cur == old.plan {
		t.Fatal("the re-synthesized plan is the evicted pointer")
	}
	if e, _ := memoEntryFor(srv, a); e.plan != cur || !bytes.Equal(e.bytes, data) {
		t.Fatal("the memo entry does not hold the plan tier's current plan")
	}
	if !bytes.Equal(data, plan.Encode(cur)) {
		t.Fatal("the hit served other bytes than the current plan's")
	}
}

// TestHitMemoBounded: the memo never holds more bodies than the plan tier
// holds plans.
func TestHitMemoBounded(t *testing.T) {
	const size = 2
	srv, ts := newTestServer(t, Config{CacheSize: size})
	for i := range 5 {
		body := strings.Replace(fastBody(), "1048576", fmt.Sprint(1<<20+i), 1)
		for range 3 {
			post(t, ts, body)
			if n := memoLen(srv); n > size {
				t.Fatalf("memo holds %d bodies, bound %d", n, size)
			}
		}
	}
	if n := memoLen(srv); n != size {
		t.Fatalf("memo holds %d bodies after 5 repeated ones, want %d", n, size)
	}
}

// TestHitMemoSpellings: each spelling of one request is its own memo entry,
// and every entry serves the one plan's bytes.
func TestHitMemoSpellings(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	respelled := `{
		"inputs": {"S": {"node": "hdd", "rows": 65536, "arity": 2}, "R": {"node": "hdd", "rows": 1048576}},
		"program": "-- still the naive join\nfor (a <- R)\n  for (b <- S)\n    if a.1 == b.1 then [<a, b>] else []",
		"hier": "hdd-ram", "ram": 8388608, "strategy": "exhaustive",
		"commutative": true, "depth": 4, "space": 500
	}`
	_, want := post(t, ts, fastBody())
	for _, body := range []string{fastBody(), respelled, respelled, fastBody()} {
		resp, data := post(t, ts, body)
		if resp.Header.Get("X-Ocas-Cache") != "hit" || !bytes.Equal(data, want) {
			t.Fatalf("%q with other bytes than the plan's", resp.Header.Get("X-Ocas-Cache"))
		}
	}
	ea, okA := memoEntryFor(srv, fastBody())
	eb, okB := memoEntryFor(srv, respelled)
	if !okA || !okB || memoLen(srv) != 2 {
		t.Fatalf("memo holds %d bodies (fast %v, respelled %v), want both", memoLen(srv), okA, okB)
	}
	if ea.fp != eb.fp || ea.plan != eb.plan {
		t.Fatal("the two spellings' entries hold different plans")
	}
}

// TestHitMemoTrace: a memo hit's trace is one resolve span, a hit served
// by the memo, and no compile.
func TestHitMemoTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post(t, ts, fastBody())
	post(t, ts, fastBody())
	resp, _ := post(t, ts, fastBody())
	spans, names := traceSpans(t, ts, resp.Header.Get("X-Ocas-Request-Id"))
	var got []string
	for _, sp := range spans {
		got = append(got, sp.Name)
	}
	if len(spans) != 2 || spans[1].Name != "resolve" || spans[1].Parent != 0 {
		t.Fatalf("memo-hit trace spans %v, want the root and one resolve", got)
	}
	if _, ok := names["compile"]; ok {
		t.Fatal("memo-hit trace compiled the request")
	}
	if attrs := spans[1].Attrs; attrs["outcome"] != "hit" || attrs["memo"] != true {
		t.Fatalf("resolve attrs %v, want outcome hit and memo true", attrs)
	}
}

// TestHitMemoConcurrentEvictions: 8 clients post 3 bodies to a server that
// keeps 2 plans, so memo hits race plan-tier evictions and re-syntheses.
// Every response is the plan a cold run gives its body, and the plan tier
// counts one outcome per request.
func TestHitMemoConcurrentEvictions(t *testing.T) {
	srv, ts := newTestServer(t, Config{CacheSize: 2, MaxInflight: 3})
	var bodies []string
	var want [][]byte
	for i := range 3 {
		body := strings.Replace(fastBody(), "65536", fmt.Sprint(65536<<i), 1)
		bodies = append(bodies, body)
		want = append(want, isolatedPlan(t, []byte(body)))
	}
	const clients, rounds = 8, 12
	var wg sync.WaitGroup
	var mu sync.Mutex
	outcomes := map[string]int{}
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range rounds {
				k := (c + i) % len(bodies)
				resp, err := http.Post(ts.URL+"/synthesize", "application/json", strings.NewReader(bodies[k]))
				if err != nil {
					t.Error(err)
					return
				}
				data, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("body %d: %d %v %s", k, resp.StatusCode, err, data)
					return
				}
				if !bytes.Equal(data, want[k]) {
					t.Errorf("body %d served as %q with another body's plan", k, resp.Header.Get("X-Ocas-Cache"))
				}
				mu.Lock()
				outcomes[resp.Header.Get("X-Ocas-Cache")]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	st := srv.Store().Stats().Plans
	if got := st.Hits + st.Misses + st.Shared; got != clients*rounds {
		t.Fatalf("plan tier counted %d outcomes for %d requests (%+v)", got, clients*rounds, st)
	}
	if st.Hits != int64(outcomes["hit"]) {
		t.Fatalf("plan tier counted %d hits, clients saw %d", st.Hits, outcomes["hit"])
	}
	if n := memoLen(srv); n > 2 {
		t.Fatalf("memo holds %d bodies, bound 2", n)
	}
	t.Logf("outcomes %v", outcomes)
}
