package plan

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ocas/internal/memory"
	"ocas/internal/obs"
	"ocas/internal/rules"
)

// ramLadder is the RAM sizes a captured shape is recaptured at: a quarter
// to sixteen times the capturing size, each off a power of two by an odd
// number of bytes.
func ramLadder(ram int64) []int64 {
	return []int64{ram/4 + 3, ram/2 - 1, ram + 1, 2*ram + 5, 4*ram - 7, 16*ram + 9}
}

// perturbedHierarchy is the request's built-in hierarchy written inline with
// every other constant changed too: the edge costs scaled (each direction
// differently), every page size above one byte doubled and RAM resized.
// The topology, and so the template fingerprint, is the built-in's.
func perturbedHierarchy(t *testing.T, req Request) json.RawMessage {
	t.Helper()
	h, ok := BuiltinHierarchy(req.Hier, 3*req.RAM+1)
	if !ok {
		t.Fatalf("unknown built-in hierarchy %q", req.Hier)
	}
	var walk func(n *memory.Node)
	walk = func(n *memory.Node) {
		n.InitComUp *= 2.5
		n.InitComDown *= 0.75
		n.UnitTrUp *= 1.5
		n.UnitTrDown *= 3
		if n.PageSize > 1 {
			n.PageSize *= 2
		}
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	walk(h.Root)
	data, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// recaptureVsCold recaptures tmpl for req and runs req cold, and fails
// unless both give the same plan bytes, the recapture searched nothing and
// costed nothing — it is an instantiation of tmpl's own compiled formulas,
// with no estimator run under its synth.screen span — and its template
// shares tmpl's formulas and instantiates for req's own hierarchy.
func recaptureVsCold(t *testing.T, req Request, tmpl *Template) *Plan {
	t.Helper()
	ci, err := Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	if ci.TemplateFingerprint != tmpl.Fingerprint {
		t.Fatalf("template fingerprint moved with the hierarchy's constants")
	}
	tr := obs.NewTrace("recapture")
	ctx := obs.ContextWith(context.Background(), tr.StartSpan("root", nil))
	if _, err := ci.Instantiate(ctx, tmpl); !errors.Is(err, ErrTemplateStale) {
		t.Fatalf("instantiate under other constants: %v, want ErrTemplateStale", err)
	}
	warm, next, err := ci.Recapture(ctx, tmpl)
	if err != nil {
		t.Fatalf("recapture: %v", err)
	}
	if st := ci.Synth.Keys.Stats(); st != (rules.KeyerStats{}) {
		t.Errorf("recapture searched: %+v", st)
	}
	spans := tr.Snapshot().Spans
	if spans[0].Attrs["space"] != "reused" {
		t.Errorf("recapture span attrs %v, want space=reused", spans[0].Attrs)
	}
	var instantiated, screened int
	for _, sp := range spans {
		switch sp.Name {
		case "template.instantiate":
			instantiated++
		case "synth.screen":
			screened++
			if _, costed := sp.Attrs["formulaNodes"]; costed {
				t.Errorf("the recapture ran an estimator: synth.screen attrs %v", sp.Attrs)
			}
		}
	}
	if instantiated != 1 || screened != 1 {
		t.Errorf("recapture trace: %d template.instantiate and %d synth.screen spans, want 1 and 1", instantiated, screened)
	}
	cold, err := compileAndRun(req)
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	if !bytes.Equal(Encode(warm), Encode(cold)) {
		t.Fatalf("recapture diverged from a cold search\nwarm: %s\ncold: %s", Encode(warm), Encode(cold))
	}
	if next == nil || next.replay != tmpl.replay {
		t.Fatal("the recapture's template does not share the captured formulas")
	}
	if again, err := ci.Instantiate(context.Background(), next); err != nil || !bytes.Equal(Encode(again), Encode(cold)) {
		t.Fatalf("the recaptured template does not serve its own hierarchy: %v", err)
	}
	return warm
}

// TestTemplateRecapture is the recapture equivalence proof: every shape of
// the plan corpus (the examples, the benchmark's searched shapes, among them
// bnl-cache on hdd-ram-cache and the hdd-flash product, and its search-free
// shapes) is captured at its own hierarchy, then recaptured over a RAM
// ladder and under an inline hierarchy whose edge costs and page sizes
// differ as well. Each recapture must give a cold search's plan bytes
// without searching. The ladder is not vacuous: some shapes change winner
// along it.
func TestTemplateRecapture(t *testing.T) {
	var moved atomic.Int32
	t.Run("corpus", func(t *testing.T) {
		for _, s := range planGoldenShapes(t) {
			t.Run(s.name, func(t *testing.T) {
				t.Parallel()
				cc, err := Compile(s.req)
				if err != nil {
					t.Fatal(err)
				}
				base, tmpl, err := cc.RunCapture(context.Background())
				if err != nil || tmpl == nil {
					t.Fatalf("capture: template %v, err %v", tmpl, err)
				}
				changed := false
				for _, ram := range ramLadder(s.req.RAM) {
					req := s.req
					req.RAM = ram
					if p := recaptureVsCold(t, req, tmpl); p.Program != base.Program {
						changed = true
					}
				}
				req := s.req
				req.Hierarchy = perturbedHierarchy(t, s.req)
				recaptureVsCold(t, req, tmpl)
				if changed {
					moved.Add(1)
				}
			})
		}
	})
	if moved.Load() == 0 {
		t.Error("no shape changed winner over the RAM ladder")
	}
	t.Logf("%d shapes changed winner over the RAM ladder", moved.Load())
}

// TestRecaptureOtherBranchesSearches: a hierarchy whose constants fall on
// the other side of a branch the cost model takes on a constant's value —
// an edge weight that is zero, or a transfer limit that is set — costs its
// programs with other formulas, so it is another template shape: its
// fingerprint differs, and a recapture from the captured template searches
// and answers what a cold search does.
func TestRecaptureOtherBranchesSearches(t *testing.T) {
	var shape planShape
	for _, s := range planGoldenShapes(t) {
		if s.name == "write-other" {
			shape = s
		}
	}
	ctx := context.Background()
	cc, err := Compile(shape.req)
	if err != nil {
		t.Fatal(err)
	}
	_, tmpl, err := cc.RunCapture(ctx)
	if err != nil || tmpl == nil {
		t.Fatalf("capture: template %v, err %v", tmpl, err)
	}
	for name, edit := range map[string]func(h *memory.Hierarchy){
		"zero-read-weight": func(h *memory.Hierarchy) { h.Node("hdd").UnitTrUp = 0 },
		"output-maxSeqW":   func(h *memory.Hierarchy) { h.Node("hdd2").MaxSeqW = 64 << 10 },
	} {
		t.Run(name, func(t *testing.T) {
			h, _ := BuiltinHierarchy(shape.req.Hier, shape.req.RAM)
			edit(h)
			data, err := json.Marshal(h)
			if err != nil {
				t.Fatal(err)
			}
			req := shape.req
			req.Hierarchy = data
			ci, err := Compile(req)
			if err != nil {
				t.Fatal(err)
			}
			warm, _, err := ci.Recapture(ctx, tmpl)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := compileAndRun(req)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(Encode(warm), Encode(cold)) {
				t.Errorf("recapture diverged from a cold search\nwarm: %s\ncold: %s", Encode(warm), Encode(cold))
			}
			if ci.TemplateFingerprint == tmpl.Fingerprint {
				t.Error("the template fingerprint ignores a branch on a constant")
			}
			if st := ci.Synth.Keys.Stats(); st.AlphaMisses == 0 {
				t.Errorf("a recapture of another shape did not search: %+v", st)
			}
		})
	}
}

// TestRecaptureRespelledSearches: an alpha-equivalent program with other
// binder names shares the template key but not the plan bytes, so its
// recapture searches, and still answers what a cold search does.
func TestRecaptureRespelledSearches(t *testing.T) {
	ctx := context.Background()
	cc, err := Compile(joinReq())
	if err != nil {
		t.Fatal(err)
	}
	_, tmpl, err := cc.RunCapture(ctx)
	if err != nil || tmpl == nil {
		t.Fatalf("capture: template %v, err %v", tmpl, err)
	}
	req := joinReq()
	req.Program = `for (a <- R) for (b <- S) if a.1 == b.1 then [<a, b>] else []`
	req.RAM *= 2
	ci, err := Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	if ci.TemplateFingerprint != tmpl.Fingerprint {
		t.Fatal("a respelling changed the template fingerprint")
	}
	warm, next, err := ci.Recapture(ctx, tmpl)
	if err != nil || next == nil {
		t.Fatalf("recapture: template %v, err %v", next, err)
	}
	if st := ci.Synth.Keys.Stats(); st.AlphaMisses == 0 {
		t.Errorf("a respelled recapture did not search: %+v", st)
	}
	cold, err := compileAndRun(req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(Encode(warm), Encode(cold)) {
		t.Fatalf("respelled recapture diverged from a cold search\nwarm: %s\ncold: %s", Encode(warm), Encode(cold))
	}
}

// TestTemplateConcurrentRecapture recaptures one template from eight
// goroutines at eight RAM sizes; run with -race.
func TestTemplateConcurrentRecapture(t *testing.T) {
	ctx := context.Background()
	cc, err := Compile(joinReq())
	if err != nil {
		t.Fatal(err)
	}
	_, tmpl, err := cc.RunCapture(ctx)
	if err != nil || tmpl == nil {
		t.Fatalf("capture: template %v, err %v", tmpl, err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := joinReq()
			req.RAM = int64(1)<<(19+g) + int64(g)
			ci, err := Compile(req)
			if err != nil {
				errs[g] = err
				return
			}
			warm, _, err := ci.Recapture(ctx, tmpl)
			if err != nil {
				errs[g] = err
				return
			}
			cold, err := compileAndRun(req)
			if err != nil {
				errs[g] = err
				return
			}
			if !bytes.Equal(Encode(warm), Encode(cold)) {
				errs[g] = fmt.Errorf("goroutine %d: recapture != cold", g)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkRecapture times the two ways a captured template serves a request
// of its shape, over the benchmark's searched shapes: a rebind
// (Compiled.Recapture at RAM + 64·i) and an instantiation
// (Compiled.Instantiate at rows + i). It reports each in ms per request;
// compiling the requests is not timed.
func BenchmarkRecapture(b *testing.B) {
	searched := []string{"bnl", "bnl-cache", "grace", "write-same", "write-other", "write-flash", "bnl-beam"}
	ctx := context.Background()
	for _, s := range planGoldenShapes(b) {
		if !slices.Contains(searched, s.name) {
			continue
		}
		b.Run(s.name, func(b *testing.B) {
			cc, err := Compile(s.req)
			if err != nil {
				b.Fatal(err)
			}
			_, tmpl, err := cc.RunCapture(ctx)
			if err != nil || tmpl == nil {
				b.Fatalf("capture: template %v, err %v", tmpl, err)
			}
			var rebind, inst time.Duration
			for i := range b.N {
				b.StopTimer()
				req := s.req
				req.RAM += 64 * int64(i+1)
				cr, err := Compile(req)
				if err != nil {
					b.Fatal(err)
				}
				ci, err := Compile(s.withRows(shiftRows(s.req.Inputs, int64(i+1))))
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				start := time.Now()
				if _, _, err := cr.Recapture(ctx, tmpl); err != nil {
					b.Fatal(err)
				}
				mid := time.Now()
				if _, err := ci.Instantiate(ctx, tmpl); err != nil {
					b.Fatal(err)
				}
				rebind, inst = rebind+mid.Sub(start), inst+time.Since(mid)
			}
			b.ReportMetric(float64(rebind.Microseconds())/1e3/float64(b.N), "rebind-ms")
			b.ReportMetric(float64(inst.Microseconds())/1e3/float64(b.N), "instantiate-ms")
		})
	}
}

// shiftRows returns each input's rows plus d.
func shiftRows(in map[string]Input, d int64) map[string]int64 {
	rows := map[string]int64{}
	for name, x := range in {
		rows[name] = x.Rows + d
	}
	return rows
}
