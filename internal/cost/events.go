package cost

import (
	"fmt"
	"sort"
	"strings"

	"ocas/internal/memory"
	sym "ocas/internal/symbolic"
)

// Edge is a directed adjacent pair of hierarchy nodes.
type Edge struct{ From, To string }

func (e Edge) String() string { return e.From + "->" + e.To }

// Events tallies, per directed edge, the number of InitCom events and the
// number of bytes transferred (UnitTr events), as symbolic expressions over
// input cardinalities and tuning parameters. The tally is a small
// insertion-ordered slice rather than a pair of maps: a program touches a
// handful of edges, and the estimator allocates one sub-tally per loop
// construct it costs (see run.scaled), so the slice keeps both the
// allocation cost and the iteration order (hence the exact shape of the
// assembled cost formula) deterministic.
type Events struct {
	entries []eventEntry
}

type eventEntry struct {
	edge        Edge
	init, bytes sym.Expr
}

// NewEvents returns an empty tally.
func NewEvents() *Events { return &Events{} }

func (ev *Events) entry(e Edge) *eventEntry {
	for i := range ev.entries {
		if ev.entries[i].edge == e {
			return &ev.entries[i]
		}
	}
	ev.entries = append(ev.entries, eventEntry{edge: e})
	return &ev.entries[len(ev.entries)-1]
}

// Init returns the accumulated InitCom tally on an edge (nil when none).
func (ev *Events) Init(e Edge) sym.Expr {
	for i := range ev.entries {
		if ev.entries[i].edge == e {
			return ev.entries[i].init
		}
	}
	return nil
}

// Bytes returns the accumulated byte tally on an edge (nil when none).
func (ev *Events) Bytes(e Edge) sym.Expr {
	for i := range ev.entries {
		if ev.entries[i].edge == e {
			return ev.entries[i].bytes
		}
	}
	return nil
}

// The tally's builders take the synthesis' symbolic Builder (nil: the
// package-level constructors); a tally never keeps it.

// addInit accumulates InitCom events on an edge.
func (ev *Events) addInit(b *sym.Builder, e Edge, n sym.Expr) {
	ent := ev.entry(e)
	if ent.init == nil {
		ent.init = n
	} else {
		ent.init = b.Add(ent.init, n)
	}
}

// addBytes accumulates transferred bytes on an edge.
func (ev *Events) addBytes(b *sym.Builder, e Edge, n sym.Expr) {
	ent := ev.entry(e)
	if ent.bytes == nil {
		ent.bytes = n
	} else {
		ent.bytes = b.Add(ent.bytes, n)
	}
}

// merge adds all events of other into ev.
func (ev *Events) merge(b *sym.Builder, other *Events) {
	for _, ent := range other.entries {
		if ent.init != nil {
			ev.addInit(b, ent.edge, ent.init)
		}
		if ent.bytes != nil {
			ev.addBytes(b, ent.edge, ent.bytes)
		}
	}
}

// scale multiplies every tally by f (used when a subcomputation repeats).
func (ev *Events) scale(b *sym.Builder, f sym.Expr) {
	for i := range ev.entries {
		if ev.entries[i].init != nil {
			ev.entries[i].init = b.Mul(f, ev.entries[i].init)
		}
		if ev.entries[i].bytes != nil {
			ev.entries[i].bytes = b.Mul(f, ev.entries[i].bytes)
		}
	}
}

// seconds converts the tallies to estimated seconds using the hierarchy's
// edge weights: total = Σ init·InitCom + bytes·UnitTr.
func (ev *Events) seconds(b *sym.Builder, h *memory.Hierarchy) sym.Expr {
	var terms []sym.Expr
	for _, ent := range ev.entries {
		if ent.init == nil {
			continue
		}
		w := h.InitCom(ent.edge.From, ent.edge.To)
		if w != 0 {
			terms = append(terms, b.Mul(sym.C(w), ent.init))
		}
	}
	for _, ent := range ev.entries {
		if ent.bytes == nil {
			continue
		}
		w := h.UnitTr(ent.edge.From, ent.edge.To)
		if w != 0 {
			terms = append(terms, b.Mul(sym.C(w), ent.bytes))
		}
	}
	return b.Add(terms...)
}

// EvalTotals evaluates the tally numerically under env: the total number of
// InitCom events and the total bytes transferred, summed over every edge.
// The explain report uses it to place the model's predicted event counts
// next to the simulator's measured ones.
func (ev *Events) EvalTotals(env sym.Env) (inits, bytes float64) {
	for _, ent := range ev.entries {
		if ent.init != nil {
			inits += ent.init.Eval(env)
		}
		if ent.bytes != nil {
			bytes += ent.bytes.Eval(env)
		}
	}
	return inits, bytes
}

// String renders the tallies deterministically for golden tests.
func (ev *Events) String() string {
	idx := make([]int, len(ev.entries))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool {
		return ev.entries[idx[i]].edge.String() < ev.entries[idx[j]].edge.String()
	})
	var b strings.Builder
	for _, i := range idx {
		ent := ev.entries[i]
		init, bytes := ent.init, ent.bytes
		if init == nil {
			init = sym.Zero
		}
		if bytes == nil {
			bytes = sym.Zero
		}
		fmt.Fprintf(&b, "%-14s InitCom: %-30s UnitTr bytes: %s\n", ent.edge.String(), init.String(), bytes.String())
	}
	return b.String()
}

// Constraint is LHS ≤ RHS, handed to the parameter optimizer.
type Constraint struct {
	LHS, RHS sym.Expr
	Why      string
}

func (c Constraint) String() string {
	return fmt.Sprintf("%s <= %s (%s)", c.LHS, c.RHS, c.Why)
}
