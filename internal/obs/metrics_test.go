package obs

import (
	"strconv"
	"strings"
	"testing"
)

func TestRegistryPrometheusText(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_requests_total", "Requests served.", "endpoint")
	c.With("/a").Add(3)
	c.With("/b").Inc()
	r.Func("test_inflight", "In-flight requests.", KindGauge, func() float64 { return 2 })
	r.Func("test_cb", "Callback value.", KindGauge, func() float64 { return 7.5 })

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP test_requests_total Requests served.",
		"# TYPE test_requests_total counter",
		`test_requests_total{endpoint="/a"} 3`,
		`test_requests_total{endpoint="/b"} 1`,
		"# TYPE test_inflight gauge",
		"test_inflight 2",
		"test_cb 7.5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// Families render sorted by name.
	if strings.Index(out, "test_cb") > strings.Index(out, "test_inflight") ||
		strings.Index(out, "test_inflight") > strings.Index(out, "test_requests_total") {
		t.Errorf("families not sorted:\n%s", out)
	}
}

// TestHistogramBuckets checks the exposition invariants of a histogram:
// cumulative bucket counts are monotonically non-decreasing, the +Inf
// bucket equals _count, and _sum matches the observations.
func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_latency_seconds", "Latency.", []float64{0.01, 0.1, 1}, "ep")
	s := h.With("/x")
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5, 5} {
		s.Observe(v)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	var cum []int64
	var count int64 = -1
	var sum float64
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "test_latency_seconds_bucket"):
			fields := strings.Fields(line)
			v, err := strconv.ParseInt(fields[len(fields)-1], 10, 64)
			if err != nil {
				t.Fatalf("bad bucket line %q: %v", line, err)
			}
			cum = append(cum, v)
		case strings.HasPrefix(line, "test_latency_seconds_count"):
			fields := strings.Fields(line)
			count, _ = strconv.ParseInt(fields[len(fields)-1], 10, 64)
		case strings.HasPrefix(line, "test_latency_seconds_sum"):
			fields := strings.Fields(line)
			sum, _ = strconv.ParseFloat(fields[len(fields)-1], 64)
		}
	}
	if len(cum) != 4 {
		t.Fatalf("want 4 bucket lines (3 bounds + +Inf), got %d:\n%s", len(cum), out)
	}
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Errorf("bucket counts not monotone: %v", cum)
		}
	}
	if want := []int64{1, 3, 4, 5}; cum[0] != want[0] || cum[1] != want[1] || cum[2] != want[2] || cum[3] != want[3] {
		t.Errorf("cumulative counts %v, want %v", cum, want)
	}
	if count != 5 {
		t.Errorf("_count = %d, want 5", count)
	}
	if wantSum := 0.005 + 0.05 + 0.05 + 0.5 + 5; sum != wantSum {
		t.Errorf("_sum = %v, want %v", sum, wantSum)
	}
	if !strings.Contains(out, `le="+Inf"`) {
		t.Errorf("no +Inf bucket:\n%s", out)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_esc", "Escaping.", "k").With("a\"b\\c\nd").Inc()
	var b strings.Builder
	r.WritePrometheus(&b)
	if want := `test_esc{k="a\"b\\c\nd"} 1`; !strings.Contains(b.String(), want) {
		t.Errorf("want %q in:\n%s", want, b.String())
	}
}

// TestNilSafety: a nil registry, vec and series must absorb every call.
func TestNilSafety(t *testing.T) {
	var r *Registry
	v := r.Counter("x", "y")
	v.Inc()
	v.Add(2)
	v.Observe(1)
	if v.Value() != 0 {
		t.Error("nil vec value")
	}
	var s *Series
	s.Inc()
	s.Observe(3)
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Error(err)
	}
	var tr *Trace
	sp := tr.StartSpan("x", nil)
	sp.End()
	sp.Attr("k", 1)
	sp.AddVirt(2)
	tr.Finish()
	if tr.ID() != "" || sp.TraceID() != "" {
		t.Error("nil trace id")
	}
	var ring *Ring
	ring.Add(tr)
	if ring.Len() != 0 || ring.Total() != 0 {
		t.Error("nil ring")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Func("m", "a", KindGauge, func() float64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Error("no panic on kind mismatch")
		}
	}()
	r.Counter("m", "b")
}
