// Package obs is the zero-dependency observability layer of the stack: a
// metrics registry rendered in the Prometheus text exposition format, and a
// per-request trace model (parent/child spans carrying both monotonic
// wall-clock durations and simulated virtual-clock deltas) recorded into a
// bounded in-memory ring.
//
// The package deliberately depends on the standard library alone and on no
// other internal package, so every layer — service, plan cache, synthesis
// core, executor — can report into it without import cycles. All types are
// nil-safe: a nil *Registry, *Vec, *Series, *Trace or *Span turns every
// method into a no-op, which is how instrumentation stays off the hot path
// when observability is disabled — callers hold nil handles and pay one
// pointer test, no atomics, no allocation.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is a metric family's Prometheus type.
type Kind string

const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Registry holds metric families and renders them as Prometheus text.
// The zero value is not usable; call NewRegistry. A nil *Registry is a
// valid no-op sink.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// family is one named metric with a fixed label schema. Labeled children
// (series) are created on first use.
type family struct {
	name   string
	help   string
	kind   Kind
	labels []string
	bounds []float64      // histogram bucket upper bounds, ascending
	fn     func() float64 // callback families render this instead of series

	mu     sync.Mutex
	series map[string]*Series
	order  []*Series
}

// Vec is a handle on one metric family; With selects a labeled series.
type Vec struct{ f *family }

// Series is one labeled time series: a counter value or a histogram.
type Series struct {
	labels []string
	bounds []float64      // histogram bounds (shared with the family)
	val    atomic.Int64   // counter value
	sum    atomic.Uint64  // histogram sum, float64 bits
	count  atomic.Int64   // histogram observation count
	counts []atomic.Int64 // per-bucket (non-cumulative) counts; last = +Inf
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

func (r *Registry) register(name, help string, kind Kind, bounds []float64, fn func() float64, labels []string) *family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s (was %s)", name, kind, f.kind))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, bounds: bounds, fn: fn,
		labels: labels, series: map[string]*Series{}}
	r.families[name] = f
	return f
}

// Counter registers (or fetches) a monotonic counter family.
func (r *Registry) Counter(name, help string, labels ...string) *Vec {
	f := r.register(name, help, KindCounter, nil, nil, labels)
	if f == nil {
		return nil
	}
	return &Vec{f: f}
}

// Histogram registers (or fetches) a fixed-bucket histogram family. Bounds
// are upper bucket limits in ascending order; a +Inf bucket is implicit.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Vec {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	f := r.register(name, help, KindHistogram, b, nil, labels)
	if f == nil {
		return nil
	}
	return &Vec{f: f}
}

// Func registers a callback-backed family (counter or gauge): the value is
// read at scrape time. Use it to expose counters that already live
// elsewhere (cache tiers, semaphores) without double bookkeeping.
func (r *Registry) Func(name, help string, kind Kind, fn func() float64) {
	r.register(name, help, kind, nil, fn, nil)
}

// DefLatencyBuckets are the default request-latency histogram bounds, in
// seconds: 100µs to 10s, roughly geometric.
func DefLatencyBuckets() []float64 {
	return []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
		0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
}

// With selects the series for the given label values (created on first
// use). The number of values must match the family's label schema.
func (v *Vec) With(vals ...string) *Series {
	if v == nil || v.f == nil {
		return nil
	}
	f := v.f
	if len(vals) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labels), len(vals)))
	}
	key := strings.Join(vals, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = &Series{labels: append([]string(nil), vals...), bounds: f.bounds}
		if f.kind == KindHistogram {
			s.counts = make([]atomic.Int64, len(f.bounds)+1)
		}
		f.series[key] = s
		f.order = append(f.order, s)
	}
	return s
}

// Add, Inc, Observe and Value on a Vec operate on the label-less series
// (convenience for unlabeled metrics).
func (v *Vec) Add(n int64)       { v.With().Add(n) }
func (v *Vec) Inc()              { v.With().Inc() }
func (v *Vec) Observe(x float64) { v.With().Observe(x) }
func (v *Vec) Value() int64      { return v.With().Value() }

// Add increments a counter by n.
func (s *Series) Add(n int64) {
	if s == nil {
		return
	}
	s.val.Add(n)
}

// Inc increments by one.
func (s *Series) Inc() { s.Add(1) }

// Value returns the current counter value.
func (s *Series) Value() int64 {
	if s == nil {
		return 0
	}
	return s.val.Load()
}

// Observe records one histogram observation: a linear scan over the fixed
// bounds (they are few) and a lock-free float accumulation into the sum.
func (s *Series) Observe(x float64) {
	if s == nil || s.counts == nil {
		return
	}
	i := 0
	for ; i < len(s.bounds); i++ {
		if x <= s.bounds[i] {
			break
		}
	}
	s.counts[i].Add(1)
	s.count.Add(1)
	for {
		old := s.sum.Load()
		nu := math.Float64bits(math.Float64frombits(old) + x)
		if s.sum.CompareAndSwap(old, nu) {
			return
		}
	}
}

// WritePrometheus renders every family in the text exposition format,
// sorted by metric name (series sorted by label values), so scrapes are
// deterministic and diffable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, 0, len(names))
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()
	var b strings.Builder
	for _, f := range fams {
		f.write(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *family) write(b *strings.Builder) {
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)
	if f.fn != nil {
		fmt.Fprintf(b, "%s %s\n", f.name, formatFloat(f.fn()))
		return
	}
	f.mu.Lock()
	series := append([]*Series(nil), f.order...)
	f.mu.Unlock()
	sort.Slice(series, func(i, j int) bool {
		return strings.Join(series[i].labels, "\xff") < strings.Join(series[j].labels, "\xff")
	})
	for _, s := range series {
		switch f.kind {
		case KindHistogram:
			cum := int64(0)
			for i, bound := range f.bounds {
				cum += s.counts[i].Load()
				fmt.Fprintf(b, "%s_bucket%s %d\n", f.name,
					labelString(f.labels, s.labels, "le", formatFloat(bound)), cum)
			}
			cum += s.counts[len(f.bounds)].Load()
			fmt.Fprintf(b, "%s_bucket%s %d\n", f.name,
				labelString(f.labels, s.labels, "le", "+Inf"), cum)
			fmt.Fprintf(b, "%s_sum%s %s\n", f.name, labelString(f.labels, s.labels, "", ""),
				formatFloat(math.Float64frombits(s.sum.Load())))
			fmt.Fprintf(b, "%s_count%s %d\n", f.name, labelString(f.labels, s.labels, "", ""), s.count.Load())
		default:
			fmt.Fprintf(b, "%s%s %d\n", f.name, labelString(f.labels, s.labels, "", ""), s.val.Load())
		}
	}
}

// labelString renders {k="v",...}, optionally appending one extra pair
// (the histogram le label); empty when there are no labels at all. %q
// escaping matches the exposition format's label escaping (backslash,
// quote, newline).
func labelString(keys, vals []string, extraK, extraV string) string {
	if len(keys) == 0 && extraK == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, vals[i])
	}
	if extraK != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", extraK, extraV)
	}
	b.WriteByte('}')
	return b.String()
}

func formatFloat(x float64) string {
	if math.IsInf(x, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(x, 'g', -1, 64)
}
