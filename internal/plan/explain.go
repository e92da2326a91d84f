// explain.go completes the executor's EXPLAIN ANALYZE tree: each node
// pairs the operator's measured actuals (rows, simulated seconds,
// InitCom/UnitTr events, pool activity) with the cost model's estimate of
// the same subexpression — cost.Estimate evaluated at the plan's tuned
// parameters and the executed cardinalities — and the est/act drift ratio
// between them. Drift near 1 means the model predicted the operator well; a
// consistent skew across operators of one kind is the signal to recalibrate
// that device's InitCom/UnitTr constants (see the calibration experiment).
package plan

import (
	"ocas/internal/core"
	"ocas/internal/cost"
	"ocas/internal/exec"
	"ocas/internal/memory"
	sym "ocas/internal/symbolic"
)

// estimateTree attaches the cost model's estimate to every node of the
// executor's tree, in place. env must already bind the plan parameters and
// the executed cardinalities.
func estimateTree(h *memory.Hierarchy, place cost.Placement, env sym.Env, n *exec.ExplainNode) {
	if n.Expr != nil {
		if res, err := cost.Estimate(h, place, n.Expr); err == nil {
			e := &n.Estimate
			e.EstValid = true
			e.EstSeconds = res.Seconds.Eval(env)
			e.EstInits, e.EstBytes = res.Events.EvalTotals(env)
			if n.SimSeconds > 0 {
				e.DriftSeconds = e.EstSeconds / n.SimSeconds
			}
			if act := n.BytesRead + n.BytesWrite; act > 0 {
				e.DriftBytes = e.EstBytes / float64(act)
			}
		}
	}
	for _, kid := range n.Children {
		estimateTree(h, place, env, kid)
	}
}

// explainEnv is the evaluation environment of the per-node estimates: h's
// constants, the executed cardinalities (which may differ from the nominal
// ones the plan was tuned for — drift then includes the mistuning) and the
// plan's tuned parameter values.
func explainEnv(h *memory.Hierarchy, task core.Task, inputRows map[string]int64, params map[string]int64) sym.Env {
	t := task
	if inputRows != nil {
		t.InputRows = inputRows
	}
	env := (&core.Synthesizer{H: h}).TaskEnv(t)
	for k, v := range params {
		env[k] = float64(v)
	}
	return env
}
