package cost

import (
	"strings"
	"testing"

	"ocas/internal/memory"
	sym "ocas/internal/symbolic"
)

func TestEventsAccumulateAndScale(t *testing.T) {
	ev := NewEvents()
	e := Edge{From: "hdd", To: "ram"}
	ev.addInit(nil, e, sym.V("x"))
	ev.addInit(nil, e, sym.C(2))
	ev.addBytes(nil, e, sym.C(100))
	ev.scale(nil, sym.C(3))
	env := sym.Env{"x": 5}
	if got := ev.Init(e).Eval(env); got != 21 {
		t.Errorf("init = %v want 21", got)
	}
	if got := ev.Bytes(e).Eval(env); got != 300 {
		t.Errorf("bytes = %v want 300", got)
	}
}

func TestEventsMerge(t *testing.T) {
	a, b := NewEvents(), NewEvents()
	e := Edge{From: "hdd", To: "ram"}
	a.addBytes(nil, e, sym.C(1))
	b.addBytes(nil, e, sym.C(2))
	b.addInit(nil, Edge{From: "ram", To: "hdd"}, sym.C(7))
	a.merge(nil, b)
	if got := a.Bytes(e).Eval(nil); got != 3 {
		t.Errorf("merged bytes = %v", got)
	}
	if got := a.Init(Edge{From: "ram", To: "hdd"}).Eval(nil); got != 7 {
		t.Errorf("merged init = %v", got)
	}
}

// TestFigure4Style renders the per-edge event table for the blocked BNL of
// Figure 4 and checks the structural content (the paper's table: per-edge
// InitCom event counts and transferred data as formulas over x, y, k1, k2).
func TestFigure4Style(t *testing.T) {
	h := memory.HDDRAM(32 * memory.MiB)
	res, err := Estimate(h, joinPlacement(""), blockedJoin())
	if err != nil {
		t.Fatal(err)
	}
	s := res.Events.String()
	if !strings.Contains(s, "hdd->ram") {
		t.Fatalf("event table must list the hdd->ram edge:\n%s", s)
	}
	// Deterministic rendering (golden stability).
	res2, err := Estimate(h, joinPlacement(""), blockedJoin())
	if err != nil {
		t.Fatal(err)
	}
	if res2.Events.String() != s {
		t.Error("event table rendering is not deterministic")
	}
	// The formulas carry the Figure 4 shape: k1-fold and k1·k2-fold
	// reductions of InitCom events.
	e := Edge{From: "hdd", To: "ram"}
	base := res.Events.Init(e).Eval(sym.Env{"x": 1000, "y": 1000, "k1": 1, "k2": 1})
	blocked := res.Events.Init(e).Eval(sym.Env{"x": 1000, "y": 1000, "k1": 10, "k2": 10})
	if base/blocked < 50 {
		t.Errorf("blocking should slash InitCom events: %v -> %v", base, blocked)
	}
}

func TestConstraintString(t *testing.T) {
	c := Constraint{LHS: sym.V("k"), RHS: sym.C(10), Why: "test"}
	if c.String() != "k <= 10 (test)" {
		t.Errorf("got %q", c.String())
	}
}
