package service

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ocas/internal/catalog"
)

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
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

func TestRequestIDHeader(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, _ := get(t, ts, "/healthz")
	id := resp.Header.Get("X-Ocas-Request-Id")
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(id) {
		t.Fatalf("X-Ocas-Request-Id = %q, want 16 hex chars", id)
	}
}

// TestMetricsEndpoint scrapes /metrics before and after a miss+hit pair and
// checks that the exposition parses, the latency histogram is split by cache
// outcome, the bucket counts are cumulative-monotone, and the cache counters
// move.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, before := get(t, ts, "/metrics")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	post(t, ts, fastBody()) // miss
	post(t, ts, fastBody()) // hit
	_, after := get(t, ts, "/metrics")

	for _, want := range []string{
		`ocas_request_seconds_bucket{endpoint="/synthesize",outcome="miss",le="+Inf"} 1`,
		`ocas_request_seconds_bucket{endpoint="/synthesize",outcome="hit",le="+Inf"} 1`,
		`ocas_http_requests_total{endpoint="/synthesize",outcome="miss",code="200"} 1`,
		`ocas_http_requests_total{endpoint="/synthesize",outcome="hit",code="200"} 1`,
		"ocas_plan_cache_hits_total 1",
		"ocas_plan_cache_misses_total 1",
		"ocas_plan_cache_size 1",
		"# TYPE ocas_request_seconds histogram",
		"# TYPE ocas_exec_workers_waiting gauge",
	} {
		if !strings.Contains(string(after), want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	if strings.Contains(string(before), `outcome="miss"`) {
		t.Error("fresh server already has a miss series")
	}

	// Parse every sample line; per histogram series, cumulative bucket
	// counts must be non-decreasing in exposition order.
	buckets := map[string][]int64{} // series labels minus le -> counts
	for _, line := range strings.Split(string(after), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable sample line %q", line)
		}
		if _, err := strconv.ParseFloat(line[sp+1:], 64); err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		name := line[:sp]
		if i := strings.Index(name, "_bucket{"); i >= 0 {
			key := regexp.MustCompile(`le="[^"]*",?`).ReplaceAllString(name, "")
			v, _ := strconv.ParseInt(line[sp+1:], 10, 64)
			buckets[key] = append(buckets[key], v)
		}
	}
	if len(buckets) < 2 {
		t.Fatalf("want >= 2 histogram series (miss and hit), got %d", len(buckets))
	}
	for key, cum := range buckets {
		if !sort.SliceIsSorted(cum, func(i, j int) bool { return cum[i] < cum[j] }) {
			t.Errorf("series %s bucket counts not monotone: %v", key, cum)
		}
	}
}

type traceSpan struct {
	Name     string         `json:"name"`
	Parent   int            `json:"parent"`
	DurNanos int64          `json:"durNanos"`
	Attrs    map[string]any `json:"attrs"`
}

// traceSpans fetches a finished request's trace and indexes its spans by
// name, failing the test on a span without a duration.
func traceSpans(t *testing.T, ts *httptest.Server, id string) (spans []traceSpan, names map[string]int) {
	t.Helper()
	resp, body := get(t, ts, "/traces/"+id)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /traces/%s: %d: %s", id, resp.StatusCode, body)
	}
	var tr struct {
		ID    string      `json:"id"`
		Spans []traceSpan `json:"spans"`
	}
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.ID != id {
		t.Fatalf("trace id %q, want %q", tr.ID, id)
	}
	names = map[string]int{}
	for i, sp := range tr.Spans {
		names[sp.Name] = i
		if sp.DurNanos <= 0 {
			t.Errorf("span %q has no duration", sp.Name)
		}
	}
	return tr.Spans, names
}

// TestTraceRoundTrip follows a synthesize request's ID to its trace and
// checks the span structure of the miss path.
func TestTraceRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, _ := post(t, ts, fastBody())
	spans, names := traceSpans(t, ts, resp.Header.Get("X-Ocas-Request-Id"))
	for _, want := range []string{"POST /synthesize", "compile", "resolve", "synthesize.capture",
		"synth.search", "synth.screen", "synth.capture", "synth.optimize"} {
		if _, ok := names[want]; !ok {
			t.Errorf("miss-path trace lacks span %q (have %v)", want, names)
		}
	}
	if spans[0].Name != "POST /synthesize" || spans[0].Parent != -1 {
		t.Errorf("root span %+v", spans[0])
	}
	if got := spans[names["resolve"]].Attrs["outcome"]; got != "miss" {
		t.Errorf("resolve outcome = %v, want miss", got)
	}

	// The listing endpoint includes it, newest first.
	_, body := get(t, ts, "/traces?n=5")
	var list struct {
		Total  int64             `json:"total"`
		Traces []json.RawMessage `json:"traces"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if list.Total < 1 || len(list.Traces) < 1 {
		t.Fatalf("trace listing %s", body)
	}

	// Unknown IDs 404, naming the ring's real capacity.
	resp, body = get(t, ts, "/traces/deadbeefdeadbeef")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace: status %d, want 404", resp.StatusCode)
	}
	if !strings.Contains(string(body), "the most recent 256") {
		t.Errorf("404 should name the default ring size: %s", body)
	}
}

// TestExecuteTraceRun: an /execute trace's exec.run span carries the rows it
// wrote, the time its digest tail took, which it spans, and the chunks each
// digest strand folded, at least the last one the emitter's.
func TestExecuteTraceRun(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := postExecute(t, ts, execBody(""))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("execute: %d %s", resp.StatusCode, data)
	}
	spans, names := traceSpans(t, ts, resp.Header.Get("X-Ocas-Request-Id"))
	i, ok := names["exec.run"]
	if !ok {
		t.Fatalf("execute trace lacks exec.run (have %v)", names)
	}
	run := spans[i]
	digestNs, _ := run.Attrs["digestNs"].(float64)
	if _, ok := run.Attrs["rows"]; !ok || digestNs <= 0 || digestNs > float64(run.DurNanos) {
		t.Errorf("exec.run lasted %d ns with attrs %v: want rows and 0 < digestNs <= its duration", run.DurNanos, run.Attrs)
	}
	own, _ := run.Attrs["digestOwnChunks"].(float64)
	if _, ok := run.Attrs["digestHelperChunks"].(float64); !ok || own < 1 {
		t.Errorf("exec.run attrs %v: want digestHelperChunks and digestOwnChunks >= 1", run.Attrs)
	}
}

// TestTemplateHitTracePhases: the same shape at other cardinalities replays
// screening and optimization without a search, and both phases show under
// the instantiation with the counters the cold spans carry. The optimizer's
// work counts, per formula shape — evaluations performed, distinct points
// visited, shapes pruned — are exact at one worker: evaluations equal
// points (no point is evaluated twice) and all three repeat exactly on a
// fresh daemon.
func TestTemplateHitTracePhases(t *testing.T) {
	// One synthesis worker: synthesis runs on GOMAXPROCS.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var optimize [2]map[string]any
	for run := range optimize {
		_, ts := newTestServer(t, Config{TemplateCacheSize: 8})
		post(t, ts, fastBody())
		resp, _ := post(t, ts, strings.Replace(fastBody(), "1048576", "2097152", 1))
		if got := resp.Header.Get("X-Ocas-Cache"); got != "template-hit" {
			t.Fatalf("X-Ocas-Cache = %q, want template-hit", got)
		}
		spans, names := traceSpans(t, ts, resp.Header.Get("X-Ocas-Request-Id"))
		inst, ok := names["template.instantiate"]
		if !ok {
			t.Fatalf("template-hit trace lacks template.instantiate (have %v)", names)
		}
		for phase, counters := range map[string][]string{
			"synth.screen": {"costed", "shapes"}, "synth.optimize": {"shortlist", "shapes", "evals", "points"}} {
			i, ok := names[phase]
			if !ok {
				t.Fatalf("template-hit trace lacks span %q (have %v)", phase, names)
			}
			if spans[i].Parent != inst {
				t.Errorf("%s parent = %d, want template.instantiate (%d)", phase, spans[i].Parent, inst)
			}
			for _, counter := range counters {
				if n, _ := spans[i].Attrs[counter].(float64); n < 1 {
					t.Errorf("%s %s = %v, want >= 1", phase, counter, spans[i].Attrs[counter])
				}
			}
		}
		if _, ok := names["synth.search"]; ok {
			t.Error("template-hit trace ran a search")
		}
		optimize[run] = spans[names["synth.optimize"]].Attrs
		if _, ok := optimize[run]["pruned"]; !ok {
			t.Errorf("synth.optimize lacks pruned (have %v)", optimize[run])
		}
	}
	if optimize[0]["evals"] != optimize[0]["points"] {
		t.Errorf("synth.optimize evaluated %v times for %v distinct points", optimize[0]["evals"], optimize[0]["points"])
	}
	if !reflect.DeepEqual(optimize[0], optimize[1]) {
		t.Errorf("synth.optimize counters do not repeat: %v then %v", optimize[0], optimize[1])
	}
}

// TestIngestTracePhases: a bulk load is a decode and an append under the
// request's root, each saying what it did.
func TestIngestTracePhases(t *testing.T) {
	_, ts, cat := newCatalogServer(t, t.TempDir(), Config{})
	if err := cat.Create("t", catalog.Schema{Columns: []catalog.Column{{Name: "k"}}, Key: []int{0}}); err != nil {
		t.Fatal(err)
	}
	resp, _ := doReq(t, "POST", ts.URL+"/tables/t/rows", "text/csv", strings.Repeat("2\n1\n", 64))
	spans, names := traceSpans(t, ts, resp.Header.Get("X-Ocas-Request-Id"))
	want := map[string]map[string]any{
		"ingest.decode":  {"format": "csv", "rows": 128.0},
		"catalog.append": {"rows": 128.0, "sorted": false, "flushed": 1.0},
	}
	for name, attrs := range want {
		if i, ok := names[name]; !ok || spans[i].Parent != 0 || !reflect.DeepEqual(spans[i].Attrs, attrs) {
			t.Errorf("span %s: have %v in %+v, want %v under the root", name, ok, spans, attrs)
		}
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post(t, ts, fastBody())
	resp, body := get(t, ts, "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var h healthzResponse
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.GoVersion == "" || h.GOMAXPROCS < 1 {
		t.Errorf("healthz %+v", h)
	}
	if h.Plans.Size != 1 || h.Plans.Capacity < 1 {
		t.Errorf("cache occupancy %+v", h)
	}
	if h.WorkerSlots < 1 || h.MaxInflight < 1 {
		t.Errorf("admission config %+v", h)
	}
	if _, err := time.ParseDuration(h.Uptime); err != nil {
		t.Errorf("uptime %q: %v", h.Uptime, err)
	}
}

// TestAccessLog checks the structured per-request log line and that a
// singleflight follower carries the leader's ID.
func TestAccessLog(t *testing.T) {
	var mu syncWriter
	logger := slog.New(slog.NewJSONHandler(&mu, nil))
	_, ts := newTestServer(t, Config{AccessLog: logger})
	resp, _ := post(t, ts, fastBody())
	id := resp.Header.Get("X-Ocas-Request-Id")

	line := mu.String()
	var entry map[string]any
	if err := json.Unmarshal([]byte(strings.TrimSpace(line)), &entry); err != nil {
		t.Fatalf("access log line not JSON: %v\n%s", err, line)
	}
	if entry["path"] != "/synthesize" || entry["method"] != "POST" {
		t.Errorf("log entry %v", entry)
	}
	if entry["requestId"] != id {
		t.Errorf("requestId %v, want %v", entry["requestId"], id)
	}
	if entry["outcome"] != "miss" {
		t.Errorf("outcome %v, want miss", entry["outcome"])
	}
	if entry["status"] != float64(200) {
		t.Errorf("status %v", entry["status"])
	}
}

// syncWriter is a mutex-guarded buffer for concurrent slog output.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}
