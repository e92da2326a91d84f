package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Trace is one request's span tree. Spans are stored flat, each carrying
// the index of its parent, so the trace marshals (and renders) without
// recursion. A nil *Trace is a valid no-op sink, which is how tracing is
// gated per request: a request that opted out simply carries a nil trace
// and every span operation reduces to one pointer test.
type Trace struct {
	mu       sync.Mutex
	id       string
	start    time.Time
	durNanos int64
	spans    []*Span
}

// Span is one timed phase of a request: monotonic wall-clock duration plus,
// where the phase ran the storage simulator, the simulated virtual-clock
// delta it advanced.
type Span struct {
	tr     *Trace
	idx    int
	parent int // -1 = root
	name   string
	start  time.Time
	dur    time.Duration
	virt   float64
	attrs  map[string]any
	done   bool
}

// NewTrace starts a trace identified by id (see NewID).
func NewTrace(id string) *Trace {
	return &Trace{id: id, start: time.Now()}
}

// ID returns the trace's identifier ("" for a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// StartSpan opens a child span of parent (nil parent = a root span).
func (t *Trace) StartSpan(name string, parent *Span) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &Span{tr: t, idx: len(t.spans), parent: -1, name: name, start: time.Now()}
	if parent != nil {
		sp.parent = parent.idx
	}
	t.spans = append(t.spans, sp)
	return sp
}

// Finish stamps the trace's total duration. Call it once, after the last
// span ended.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.durNanos = int64(time.Since(t.start))
	t.mu.Unlock()
}

// TraceID returns the identifier of the span's trace ("" for a nil span).
// Layers that only hold a context use it to attribute work to the request
// that entered the system (e.g. the singleflight leader of a shared
// synthesis).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.tr.ID()
}

// End closes the span (idempotent).
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if !s.done {
		s.done = true
		s.dur = time.Since(s.start)
	}
	s.tr.mu.Unlock()
}

// Attr attaches one key/value attribute to the span.
func (s *Span) Attr(k string, v any) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if s.attrs == nil {
		s.attrs = map[string]any{}
	}
	s.attrs[k] = v
	s.tr.mu.Unlock()
}

// AddVirt adds a simulated virtual-clock delta (seconds) to the span.
func (s *Span) AddVirt(d float64) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.virt += d
	s.tr.mu.Unlock()
}

// TraceJSON is the wire form of a trace.
type TraceJSON struct {
	ID       string     `json:"id"`
	Start    time.Time  `json:"start"`
	DurNanos int64      `json:"durNanos"`
	Spans    []SpanJSON `json:"spans"`
}

// SpanJSON is the wire form of one span. StartNanos is the offset from the
// trace start (monotonic); Parent indexes into the trace's span list.
type SpanJSON struct {
	Name           string         `json:"name"`
	Parent         int            `json:"parent"`
	StartNanos     int64          `json:"startNanos"`
	DurNanos       int64          `json:"durNanos"`
	VirtualSeconds float64        `json:"virtualSeconds,omitempty"`
	Attrs          map[string]any `json:"attrs,omitempty"`
}

// Snapshot returns the trace's current wire form.
func (t *Trace) Snapshot() TraceJSON {
	if t == nil {
		return TraceJSON{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := TraceJSON{ID: t.id, Start: t.start, DurNanos: t.durNanos,
		Spans: make([]SpanJSON, len(t.spans))}
	for i, sp := range t.spans {
		js := SpanJSON{
			Name:           sp.name,
			Parent:         sp.parent,
			StartNanos:     int64(sp.start.Sub(t.start)),
			DurNanos:       int64(sp.dur),
			VirtualSeconds: sp.virt,
		}
		if len(sp.attrs) > 0 {
			js.Attrs = make(map[string]any, len(sp.attrs))
			for k, v := range sp.attrs {
				js.Attrs[k] = v
			}
		}
		out.Spans[i] = js
	}
	return out
}

// Ring is a bounded buffer of recent traces: it keeps the most recent
// capacity traces, and older ones are evicted in arrival order.
type Ring struct {
	mu    sync.Mutex
	cap   int
	buf   []*Trace
	byID  map[string]*Trace
	next  int
	total int64
}

// NewRing returns a ring bounded to capacity traces (minimum 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{cap: capacity, byID: map[string]*Trace{}}
}

// Add records a finished trace, evicting the oldest when full.
func (r *Ring) Add(t *Trace) {
	if r == nil || t == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, t)
	} else {
		old := r.buf[r.next]
		delete(r.byID, old.ID())
		r.buf[r.next] = t
	}
	r.byID[t.ID()] = t
	r.next = (r.next + 1) % r.cap
	r.total++
}

// Get returns the trace with the given id, if still buffered.
func (r *Ring) Get(id string) (*Trace, bool) {
	if r == nil {
		return nil, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.byID[id]
	return t, ok
}

// Recent returns up to n of the most recent traces, newest first.
func (r *Ring) Recent(n int) []*Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if n <= 0 || n > len(r.buf) {
		n = len(r.buf)
	}
	out := make([]*Trace, 0, n)
	for i := 0; i < n; i++ {
		idx := (r.next - 1 - i + len(r.buf)*2) % len(r.buf)
		// When the ring is not yet full, next equals len(buf) modulo wrap and
		// the newest element sits at next-1 as well.
		out = append(out, r.buf[idx])
	}
	return out
}

// Len returns the number of buffered traces; Total the number ever added.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Total returns the number of traces ever added.
func (r *Ring) Total() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// idFallback distinguishes IDs when the random source fails.
var idFallback atomic.Int64

// NewID returns a 16-hex-character request/trace identifier.
func NewID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("req-%016x", idFallback.Add(1))
	}
	return hex.EncodeToString(b[:])
}

// ctxKey carries the active span through a context.
type ctxKey struct{}

// ContextWith returns a context carrying sp as the active span.
func ContextWith(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, sp)
}

// SpanFrom returns the context's active span, or nil.
func SpanFrom(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// Start opens a child span of the context's active span and returns a
// context carrying it. When the context carries no span (tracing disabled
// or not a traced request), it returns the context unchanged and a nil
// span — the no-op fast path.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFrom(ctx)
	if parent == nil {
		return ctx, nil
	}
	sp := parent.tr.StartSpan(name, parent)
	return ContextWith(ctx, sp), sp
}
