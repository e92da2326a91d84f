package plan

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"ocas/internal/memory"
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
// its template instantiates for req's own hierarchy.
func recaptureVsCold(t *testing.T, req Request, tmpl *Template) *Plan {
	t.Helper()
	ctx := context.Background()
	ci, err := Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	if ci.TemplateFingerprint != tmpl.Fingerprint {
		t.Fatalf("template fingerprint moved with the hierarchy's constants")
	}
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
	cold, err := compileAndRun(req)
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	if !bytes.Equal(Encode(warm), Encode(cold)) {
		t.Fatalf("recapture diverged from a cold search\nwarm: %s\ncold: %s", Encode(warm), Encode(cold))
	}
	if next == nil {
		t.Fatal("recapture returned no template")
	}
	if again, err := ci.Instantiate(ctx, next); err != nil || !bytes.Equal(Encode(again), Encode(cold)) {
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
