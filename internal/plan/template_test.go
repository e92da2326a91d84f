package plan

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// diffShape is one generated request shape: everything but the input
// cardinalities (and the hierarchy RAM size, which the sweep perturbs to
// force a guard rejection).
type diffShape struct {
	program string
	inputs  []string // input names, in placement order
	hier    string
	output  string
	depth   int
	space   int
}

// genShapes produces n distinct program shapes from a seeded grammar:
// scans, filters, projections, equi-joins and self-joins with varying
// predicates.
func genShapes(rng *rand.Rand, n int) []diffShape {
	preds := []string{"x.1 == y.1", "x.2 == y.1", "x.1 == y.2", "x.2 == y.2"}
	projs := []string{"[<x, y>]", "[<x.1, y.2>]", "[<x.2, y.1>]"}
	seen := map[string]bool{}
	var out []diffShape
	for len(out) < n {
		var s diffShape
		switch rng.Intn(5) {
		case 0: // scan + projection
			s.program = fmt.Sprintf("for (x <- R) [<x.%d, x.%d>]", 1+rng.Intn(2), 1+rng.Intn(2))
			s.inputs = []string{"R"}
		case 1: // constant filter
			s.program = fmt.Sprintf("for (x <- R) if x.%d == %d then [x] else []",
				1+rng.Intn(2), rng.Intn(9))
			s.inputs = []string{"R"}
		case 2: // self-join
			s.program = fmt.Sprintf("for (x <- R) for (y <- R) if %s then %s else []",
				preds[rng.Intn(len(preds))], projs[rng.Intn(len(projs))])
			s.inputs = []string{"R"}
		default: // binary equi-join
			s.program = fmt.Sprintf("for (x <- R) for (y <- S) if %s then %s else []",
				preds[rng.Intn(len(preds))], projs[rng.Intn(len(projs))])
			s.inputs = []string{"R", "S"}
		}
		s.hier = "hdd-ram"
		if rng.Intn(4) == 0 {
			s.hier = "hdd-ram-cache"
		}
		if rng.Intn(3) == 0 {
			s.output = "hdd"
		}
		s.depth, s.space = 3, 150
		key := fmt.Sprintf("%s|%s|%s", s.program, s.hier, s.output)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, s)
	}
	return out
}

// request binds a shape at concrete cardinalities.
func (s diffShape) request(rows map[string]int64, ram int64) Request {
	req := Request{
		Program: s.program,
		Hier:    s.hier,
		RAM:     ram,
		Inputs:  map[string]Input{},
		Output:  s.output,
		Depth:   s.depth,
		Space:   s.space,
	}
	for _, name := range s.inputs {
		req.Inputs[name] = Input{Node: "hdd", Rows: rows[name]}
	}
	return req
}

// sweepRows picks a cardinality ladder spanning execution regimes under an
// 8 MiB RAM budget: fully in-RAM, around the boundary, and far out of core
// (GRACE/multi-pass territory).
var regimeLadder = []int64{1 << 8, 1 << 14, 1 << 19, 1 << 22}

func sweepRows(rng *rand.Rand, inputs []string) map[string]int64 {
	rows := map[string]int64{}
	for _, name := range inputs {
		rows[name] = regimeLadder[rng.Intn(len(regimeLadder))]
	}
	return rows
}

const diffRAM = 8 << 20

// TestTemplateDifferential is the template equivalence proof: for ~50
// generated shapes, capture a template at one cardinality point and assert
// that instantiating it at every other swept point yields byte-identical
// plan JSON (params, costs, derivation, fingerprint — everything) to a cold
// full search at that point. Every tenth shape also perturbs a hierarchy
// constant, where the guard must reject the template.
func TestTemplateDifferential(t *testing.T) {
	shapes := genShapes(rand.New(rand.NewSource(7)), 50)
	for i, s := range shapes {
		i, s := i, s
		t.Run(fmt.Sprintf("shape%02d", i), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(1000 + i)))
			ctx := context.Background()

			// Capture at the first point.
			base := s.request(sweepRows(rng, s.inputs), diffRAM)
			cc, err := Compile(base)
			if err != nil {
				t.Fatalf("compile %q: %v", s.program, err)
			}
			coldBase, tmpl, err := cc.RunCapture(ctx)
			if err != nil {
				t.Fatalf("capture %q: %v", s.program, err)
			}
			if tmpl == nil {
				t.Fatalf("no template for request %q", s.program)
			}
			// The captured plan must equal a plain cold run of the same point.
			rerun, err := Compile(base)
			if err != nil {
				t.Fatal(err)
			}
			coldAgain, err := rerun.Run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(Encode(coldBase), Encode(coldAgain)) {
				t.Fatalf("capture changed the synthesis result for %q", s.program)
			}

			// Sweep: instantiate vs cold at fresh cardinality points.
			for point := 0; point < 3; point++ {
				rows := sweepRows(rng, s.inputs)
				req := s.request(rows, diffRAM)
				ci, err := Compile(req)
				if err != nil {
					t.Fatal(err)
				}
				if ci.TemplateFingerprint != cc.TemplateFingerprint {
					t.Fatalf("template fingerprint changed with cardinalities %v", rows)
				}
				warm, err := ci.Instantiate(ctx, tmpl)
				if err != nil {
					t.Fatalf("instantiate %q rows %v: %v", s.program, rows, err)
				}
				cold, err := ci.Run(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(Encode(warm), Encode(cold)) {
					t.Errorf("template instantiation diverged from cold search\nprogram: %s\nrows: %v\nwarm: %s\ncold: %s",
						s.program, rows, Encode(warm), Encode(cold))
				}
			}

			// Constant perturbation: same shape, different RAM — the template
			// key matches but the hierarchy-constant guard must fire.
			if i%10 == 0 {
				req := s.request(sweepRows(rng, s.inputs), 2*diffRAM)
				ci, err := Compile(req)
				if err != nil {
					t.Fatal(err)
				}
				if ci.TemplateFingerprint != cc.TemplateFingerprint {
					t.Fatalf("template fingerprint depends on a hierarchy constant")
				}
				if _, err := ci.Instantiate(ctx, tmpl); !errors.Is(err, ErrTemplateStale) {
					t.Fatalf("want ErrTemplateStale for changed RAM, got %v", err)
				}
			}
		})
	}
}

// TestTemplateFingerprintInvariance is the template complement of the full
// fingerprint's workers-invariance test: worker counts and input rows are
// free template slots, while anything that can change the search space is
// not.
func TestTemplateFingerprintInvariance(t *testing.T) {
	base := joinReq()
	tfp := func(t *testing.T, r Request) string {
		t.Helper()
		c, err := Compile(r)
		if err != nil {
			t.Fatal(err)
		}
		return c.TemplateFingerprint
	}
	ref := tfp(t, base)

	invariant := map[string]func(r *Request){
		"rows":        func(r *Request) { in := r.Inputs["R"]; in.Rows = 12345; r.Inputs["R"] = in },
		"ram":         func(r *Request) { r.RAM = 16 << 20 },
		"description": func(r *Request) { r.Description = "other" },
		"whitespace":  func(r *Request) { r.Program = "  " + r.Program + "\n" },
		"binders": func(r *Request) {
			r.Program = `for (a <- R) for (b <- S) if a.1 == b.1 then [<a, b>] else []`
		},
	}
	for name, mut := range invariant {
		r := joinReq()
		mut(&r)
		if got := tfp(t, r); got != ref {
			t.Errorf("template fingerprint must be invariant under %s", name)
		}
	}

	sensitive := map[string]func(r *Request){
		"program":  func(r *Request) { r.Program = `for (x <- R) [x]` },
		"hier":     func(r *Request) { r.Hier = "hdd-ram-cache" },
		"node":     func(r *Request) { in := r.Inputs["R"]; in.Node = "ram"; r.Inputs["R"] = in },
		"arity":    func(r *Request) { in := r.Inputs["R"]; in.Arity = 1; r.Inputs["R"] = in },
		"output":   func(r *Request) { r.Output = "hdd" },
		"strategy": func(r *Request) { r.Strategy = "beam"; r.Beam = 8 },
		"depth":    func(r *Request) { r.Depth = 5 },
		"space":    func(r *Request) { r.Space = 700 },
		"commut":   func(r *Request) { f := false; r.Commutative = &f },
	}
	for name, mut := range sensitive {
		r := joinReq()
		mut(&r)
		if got := tfp(t, r); got == ref {
			t.Errorf("template fingerprint must be sensitive to %s", name)
		}
	}
}

// TestTemplateConcurrentInstantiate exercises one template from many
// goroutines at different cardinalities (the daemon's steady state); run
// with -race.
func TestTemplateConcurrentInstantiate(t *testing.T) {
	ctx := context.Background()
	cc, err := Compile(joinReq())
	if err != nil {
		t.Fatal(err)
	}
	_, tmpl, err := cc.RunCapture(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if tmpl == nil {
		t.Fatal("no template captured")
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := joinReq()
			in := req.Inputs["R"]
			in.Rows = int64(1) << (10 + g)
			req.Inputs["R"] = in
			ci, err := Compile(req)
			if err != nil {
				errs[g] = err
				return
			}
			warm, err := ci.Instantiate(ctx, tmpl)
			if err != nil {
				errs[g] = err
				return
			}
			cold, err := ci.Run(ctx)
			if err != nil {
				errs[g] = err
				return
			}
			if !bytes.Equal(Encode(warm), Encode(cold)) {
				errs[g] = fmt.Errorf("goroutine %d: warm != cold", g)
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
