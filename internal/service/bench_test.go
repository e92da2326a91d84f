package service

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
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
