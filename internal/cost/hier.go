package cost

import (
	"ocas/internal/memory"
	sym "ocas/internal/symbolic"
)

// A cost formula names each constant of the hierarchy it prices as a
// variable, as it names each input's cardinality: every node's size, the
// InitCom and UnitTr weights of every edge, and every nonzero maxSeqR and
// maxSeqW. HierEnv binds them, so one formula serves every hierarchy of the
// same shape. What the estimator still reads a constant's value for is a
// branch: a zero edge weight contributes no term and a zero limit adds no
// constraint or seq-ac split. Branches lists those outcomes; two hierarchies
// that agree on them and on their topology get the same formulas.

// hierVar is the named constant (sym.Named) for one constant of a node, by
// the constant's JSON name. The "$" keeps it apart from cardinalities
// (card_*) and tuning parameters, which are OCAL identifiers.
func hierVar(node, field string) sym.Expr { return sym.Named(hierName(node, field)) }

func hierName(node, field string) string { return "$" + node + "." + field }

// edgeVar names the weight of the directed edge e: field ("initCom" or
// "unitTr") of the edge's child node, in e's direction.
func edgeVar(h *memory.Hierarchy, e Edge, field string) sym.Expr {
	if p := h.Parent(e.From); p != nil && p.Name == e.To {
		return hierVar(e.From, field+"Up")
	}
	return hierVar(e.To, field+"Down")
}

type constant struct {
	name string
	v    float64
}

// optionals are a node's constants that name a variable only when nonzero,
// by JSON name.
func optionals(n *memory.Node) [6]constant {
	return [6]constant{
		{"initComUp", n.InitComUp}, {"initComDown", n.InitComDown},
		{"unitTrUp", n.UnitTrUp}, {"unitTrDown", n.UnitTrDown},
		{"maxSeqR", float64(n.MaxSeqR)}, {"maxSeqW", float64(n.MaxSeqW)},
	}
}

// HierEnv binds every hierarchy constant a formula costed under h can name to
// its value in h.
func HierEnv(h *memory.Hierarchy) sym.Env {
	env := sym.Env{}
	for _, name := range h.Names() {
		n := h.Node(name)
		env[hierName(name, "size")] = float64(n.Size)
		for _, c := range optionals(n) {
			if c.v != 0 {
				env[hierName(name, c.name)] = c.v
			}
		}
	}
	return env
}

// Branches lists the outcome of every branch the estimator takes on the
// constants of h's node name: the JSON names of its nonzero optional
// constants.
func Branches(h *memory.Hierarchy, name string) []string {
	var out []string
	for _, c := range optionals(h.Node(name)) {
		if c.v != 0 {
			out = append(out, c.name)
		}
	}
	return out
}
