package obs

import (
	"context"
	"fmt"
	"testing"
)

func TestTraceSpans(t *testing.T) {
	tr := NewTrace("abc")
	root := tr.StartSpan("GET /x", nil)
	child := tr.StartSpan("resolve", root)
	child.Attr("outcome", "miss")
	child.AddVirt(1.5)
	child.AddVirt(0.5)
	child.End()
	root.End()
	tr.Finish()

	js := tr.Snapshot()
	if js.ID != "abc" || len(js.Spans) != 2 {
		t.Fatalf("snapshot %+v", js)
	}
	if js.Spans[0].Parent != -1 || js.Spans[1].Parent != 0 {
		t.Errorf("parent links: %+v", js.Spans)
	}
	if js.Spans[1].VirtualSeconds != 2.0 {
		t.Errorf("virtual seconds %v, want 2", js.Spans[1].VirtualSeconds)
	}
	if js.Spans[1].Attrs["outcome"] != "miss" {
		t.Errorf("attrs %+v", js.Spans[1].Attrs)
	}
	if js.DurNanos <= 0 || js.Spans[0].DurNanos <= 0 {
		t.Errorf("durations not stamped: %+v", js)
	}
}

// TestRingEviction: the ring keeps exactly the most recent capacity traces
// and Get stops resolving evicted IDs.
func TestRingEviction(t *testing.T) {
	r := NewRing(3)
	for i := 0; i < 5; i++ {
		r.Add(NewTrace(fmt.Sprintf("t%d", i)))
	}
	if r.Len() != 3 {
		t.Fatalf("ring len %d, want 3", r.Len())
	}
	if r.Total() != 5 {
		t.Fatalf("ring total %d, want 5", r.Total())
	}
	for _, gone := range []string{"t0", "t1"} {
		if _, ok := r.Get(gone); ok {
			t.Errorf("evicted %s still resolvable", gone)
		}
	}
	for _, kept := range []string{"t2", "t3", "t4"} {
		if _, ok := r.Get(kept); !ok {
			t.Errorf("recent %s not resolvable", kept)
		}
	}
	recent := r.Recent(2)
	if len(recent) != 2 || recent[0].ID() != "t4" || recent[1].ID() != "t3" {
		ids := make([]string, len(recent))
		for i, tr := range recent {
			ids[i] = tr.ID()
		}
		t.Errorf("recent order %v, want [t4 t3]", ids)
	}
}

func TestNewIDUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := NewID()
		if len(id) != 16 {
			t.Fatalf("id %q not 16 hex chars", id)
		}
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
	}
}

func TestContextPropagation(t *testing.T) {
	// No span in context: Start is a no-op returning the same context.
	ctx := context.Background()
	ctx2, sp := Start(ctx, "x")
	if sp != nil || ctx2 != ctx {
		t.Fatal("Start without a parent must be a no-op")
	}

	tr := NewTrace("ctx")
	root := tr.StartSpan("root", nil)
	ctx = ContextWith(context.Background(), root)
	_, child := Start(ctx, "child")
	if child == nil {
		t.Fatal("no child span")
	}
	if child.TraceID() != "ctx" {
		t.Errorf("trace id %q", child.TraceID())
	}
	child.End()
	js := tr.Snapshot()
	if len(js.Spans) != 2 || js.Spans[1].Parent != 0 {
		t.Errorf("spans %+v", js.Spans)
	}
}
