package service

import (
	"bytes"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"ocas/internal/catalog"
)

// BenchmarkServiceColdVsWarm measures the synthesize-once/serve-many win:
// "cold" pays a full synthesis per request (fresh cache every iteration),
// "warm" serves the memoized plan. Run with:
//
//	go test -bench ServiceColdVsWarm -benchtime 10x ./internal/service
func BenchmarkServiceColdVsWarm(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			srv := New(Config{})
			ts := httptest.NewServer(srv.Handler())
			b.StartTimer()
			benchPost(b, ts, slowBody())
			b.StopTimer()
			ts.Close()
		}
	})
	b.Run("warm", func(b *testing.B) {
		srv := New(Config{})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		benchPost(b, ts, slowBody()) // populate
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchPost(b, ts, slowBody())
		}
	})
}

// BenchmarkSynthesizeHit is the serve-many side alone: one keep-alive
// client posting one cached body, so parse, fingerprint, plan-tier lookup,
// encoding and the HTTP round trip are all there is. Run with:
//
//	go test -run '^$' -bench SynthesizeHit -benchmem ./internal/service
func BenchmarkSynthesizeHit(b *testing.B) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	body := fastBody()
	post := func() {
		resp, err := client.Post(ts.URL+"/synthesize", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	post() // the miss that caches the plan
	b.ReportAllocs()
	for b.Loop() {
		post()
	}
}

// BenchmarkIngestBatch is one POST /tables/{t}/rows batch below HTTP: the
// body decoded into columns, then appended to a catalog that cuts it into
// one segment. The shapes are the benchmark's ingest workload: 64k rows,
// CSV at arity 2 and JSON at arity 1, keys uniform over twice the rows. It
// reports ns/row for each half. Run with:
//
//	go test -run '^$' -bench IngestBatch -benchtime 50x ./internal/service
func BenchmarkIngestBatch(b *testing.B) {
	const rows = catalog.DefaultFlushRows
	for _, shape := range []struct {
		name  string
		arity int
		csv   bool
	}{{"csv", 2, true}, {"json", 1, false}} {
		b.Run(shape.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			var body bytes.Buffer
			if !shape.csv {
				body.WriteString(`{"rows":[`)
			}
			for r := range rows {
				k := strconv.Itoa(rng.Intn(2 * rows))
				switch {
				case shape.csv:
					body.WriteString(k + "," + strconv.Itoa(r) + "\n")
				case r > 0:
					body.WriteString(",[" + k + "]")
				default:
					body.WriteString("[" + k + "]")
				}
			}
			if !shape.csv {
				body.WriteString("]}")
			}
			cat, err := catalog.Open(b.TempDir(), catalog.Options{FlushRows: rows})
			if err != nil {
				b.Fatal(err)
			}
			defer cat.Close()
			schema := catalog.Schema{Columns: []catalog.Column{{Name: "k"}, {Name: "v"}}[:shape.arity], Key: []int{0}}
			var decode, appendCols time.Duration
			for b.Loop() {
				if err := cat.Create("t", schema); err != nil {
					b.Fatal(err)
				}
				start := time.Now()
				cols, err := decodeRows(body.Bytes(), shape.arity, shape.csv)
				if err != nil {
					b.Fatal(err)
				}
				mid := time.Now()
				if _, err := cat.AppendCols("t", cols); err != nil {
					b.Fatal(err)
				}
				decode, appendCols = decode+mid.Sub(start), appendCols+time.Since(mid)
				if err := cat.Drop("t"); err != nil {
					b.Fatal(err)
				}
			}
			perRow := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(b.N*rows) }
			b.ReportMetric(perRow(decode), "decode-ns/row")
			b.ReportMetric(perRow(appendCols), "append-ns/row")
		})
	}
}

func benchPost(b *testing.B, ts *httptest.Server, body string) {
	b.Helper()
	resp, err := http.Post(ts.URL+"/synthesize", "application/json", strings.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("status %d", resp.StatusCode)
	}
}

// TestWarmCacheSpeedup pins the acceptance bar in a plain test: a
// warm-cache response must be at least 100x faster than the cold synthesis
// that produced it.
func TestWarmCacheSpeedup(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	start := time.Now()
	resp, data := post(t, ts, slowBody())
	cold := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold: status %d: %s", resp.StatusCode, data)
	}

	// Best of a few warm probes, to keep scheduler noise out of the ratio.
	warm := time.Hour
	for i := 0; i < 5; i++ {
		start = time.Now()
		resp, _ = post(t, ts, slowBody())
		if d := time.Since(start); d < warm {
			warm = d
		}
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Ocas-Cache") != "hit" {
			t.Fatalf("warm probe %d: status %d, cache %q", i, resp.StatusCode, resp.Header.Get("X-Ocas-Cache"))
		}
	}
	if ratio := float64(cold) / float64(warm); ratio < 100 {
		t.Fatalf("warm response only %.1fx faster than cold synthesis (cold %s, warm %s), want >= 100x",
			ratio, cold, warm)
	}
}
