package plan

import (
	"bytes"
	"context"
	"testing"
)

const joinSrc = `for (x <- R) for (y <- S) if x.1 == y.1 then [<x, y>] else []`

func joinReq() Request {
	return Request{
		Program: joinSrc,
		Hier:    "hdd-ram",
		RAM:     8 << 20,
		Inputs: map[string]Input{
			"R": {Node: "hdd", Rows: 1 << 20},
			"S": {Node: "hdd", Rows: 1 << 16},
		},
		Depth: 4,
		Space: 500,
	}
}

func fp(t *testing.T, r Request) string {
	t.Helper()
	c, err := Compile(r)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return c.Fingerprint
}

func TestFingerprintStableUnderWhitespaceAndComments(t *testing.T) {
	base := fp(t, joinReq())
	r := joinReq()
	r.Program = "-- the naive join\nfor (x <- R)\n  for (y <- S)\n    if x.1 == y.1 then [<x, y>] else []"
	if got := fp(t, r); got != base {
		t.Fatalf("whitespace/comments changed the fingerprint:\n%s\n%s", base, got)
	}
}

func TestFingerprintStableUnderAlphaRenaming(t *testing.T) {
	base := fp(t, joinReq())
	r := joinReq()
	r.Program = `for (outer <- R) for (inner <- S) if outer.1 == inner.1 then [<outer, inner>] else []`
	if got := fp(t, r); got != base {
		t.Fatalf("alpha-renaming changed the fingerprint:\n%s\n%s", base, got)
	}
}

func TestFingerprintIgnoresWorkers(t *testing.T) {
	base := fp(t, joinReq())
	r := joinReq()
	r.Workers = 7
	if got := fp(t, r); got != base {
		t.Fatal("worker count changed the fingerprint; it must not affect the plan")
	}
}

func TestWorkersClamped(t *testing.T) {
	r := joinReq()
	r.Workers = 1 << 30 // a shared daemon must not spawn per-request giant pools
	c, err := Compile(r)
	if err != nil {
		t.Fatal(err)
	}
	if c.Synth.Workers != MaxWorkers {
		t.Fatalf("Workers = %d, want clamped to %d", c.Synth.Workers, MaxWorkers)
	}
	r = joinReq()
	r.Workers = -5
	if c, err = Compile(r); err != nil || c.Synth.Workers != 0 {
		t.Fatalf("negative Workers: got %d, %v; want 0", c.Synth.Workers, err)
	}
}

func TestFingerprintStableUnderExplicitDefaults(t *testing.T) {
	r := joinReq()
	r.Strategy = "exhaustive"
	tr := true
	r.Commutative = &tr
	if got, base := fp(t, r), fp(t, joinReq()); got != base {
		t.Fatal("spelling out the defaults changed the fingerprint")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := fp(t, joinReq())
	mutations := map[string]func(*Request){
		"rows":        func(r *Request) { r.Inputs["R"] = Input{Node: "hdd", Rows: 999} },
		"arity":       func(r *Request) { r.Inputs["R"] = Input{Node: "hdd", Rows: 1 << 20, Arity: 1} },
		"depth":       func(r *Request) { r.Depth = 5 },
		"space":       func(r *Request) { r.Space = 501 },
		"strategy":    func(r *Request) { r.Strategy = "beam" },
		"ram":         func(r *Request) { r.RAM = 16 << 20 },
		"hier":        func(r *Request) { r.Hier = "hdd-ram-cache" },
		"output":      func(r *Request) { r.Output = "hdd" },
		"commutative": func(r *Request) { f := false; r.Commutative = &f },
		"program":     func(r *Request) { r.Program = `for (x <- R) for (y <- S) if x.1 == y.2 then [<x, y>] else []` },
	}
	for name, mutate := range mutations {
		r := joinReq()
		mutate(&r)
		if got := fp(t, r); got == base {
			t.Errorf("mutation %q did not change the fingerprint", name)
		}
	}
}

func TestCompileRejectsBadRequests(t *testing.T) {
	cases := map[string]func(*Request){
		"bad program":       func(r *Request) { r.Program = "for (x <-" },
		"no inputs":         func(r *Request) { r.Inputs = nil },
		"unknown node":      func(r *Request) { r.Inputs["R"] = Input{Node: "tape", Rows: 10} },
		"zero rows":         func(r *Request) { r.Inputs["R"] = Input{Node: "hdd", Rows: 0} },
		"bad arity":         func(r *Request) { r.Inputs["R"] = Input{Node: "hdd", Rows: 10, Arity: 3} },
		"unknown hierarchy": func(r *Request) { r.Hier = "quantum" },
		"unknown strategy":  func(r *Request) { r.Strategy = "dfs" },
		"beam too wide":     func(r *Request) { r.Strategy = "beam"; r.Beam = MaxBeam + 1 },
		"depth too deep":    func(r *Request) { r.Depth = MaxDepth + 1 },
		"space too large":   func(r *Request) { r.Space = MaxSpace + 1 },
		"unknown output":    func(r *Request) { r.Output = "tape" },
		"free variable":     func(r *Request) { r.Program = `for (x <- R) for (y <- T) [<x, y>]` },
		"bad inline hier":   func(r *Request) { r.Hierarchy = []byte(`{"name":"x"}`) },
	}
	for name, mutate := range cases {
		r := joinReq()
		mutate(&r)
		if _, err := Compile(r); err == nil {
			t.Errorf("%s: Compile accepted an invalid request", name)
		}
	}
}

func TestExecuteDeterministicAcrossWorkerCounts(t *testing.T) {
	a, err := compileAndRun(joinReq())
	if err != nil {
		t.Fatal(err)
	}
	r := joinReq()
	r.Workers = 1
	b, err := compileAndRun(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(Encode(a), Encode(b)) {
		t.Fatalf("plans differ across worker counts:\n%s\n---\n%s", Encode(a), Encode(b))
	}
	if a.Speedup <= 1 {
		t.Fatalf("expected the synthesized join to beat the spec, speedup=%v", a.Speedup)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p, err := compileAndRun(joinReq())
	if err != nil {
		t.Fatal(err)
	}
	q, err := Decode(Encode(p))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(Encode(p), Encode(q)) {
		t.Fatal("Encode(Decode(Encode(p))) != Encode(p)")
	}
}

// compileAndRun compiles a request and synthesizes its plan.
func compileAndRun(req Request) (*Plan, error) {
	c, err := Compile(req)
	if err != nil {
		return nil, err
	}
	return c.Run(context.Background())
}

// TestColdRunDeterministicAcrossDevices: two cold runs of one request whose
// inputs sit on different devices encode the same plan bytes.
func TestColdRunDeterministicAcrossDevices(t *testing.T) {
	req := Request{Program: "for (x <- R) for (y <- S) if x.1 == y.1 then [<x, y>] else []",
		Hier: "two-hdd", RAM: 8 << 20, Depth: 6, Space: 2000,
		Inputs: map[string]Input{"R": {Node: "hdd", Rows: 4 << 20}, "S": {Node: "hdd2", Rows: 256 << 10}}}
	var want []byte
	for run := 0; run < 2; run++ {
		c, err := Compile(req)
		if err != nil {
			t.Fatal(err)
		}
		p, err := c.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got := Encode(p); run == 0 {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("two cold runs differ\nfirst:  %s\nsecond: %s", want, got)
		}
	}
}
