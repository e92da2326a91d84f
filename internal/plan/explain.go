// explain.go turns the executor's instrumented operator tree into the
// EXPLAIN ANALYZE report: each node pairs the operator's measured actuals
// (rows, simulated seconds, InitCom/UnitTr events, pool activity) with the
// cost model's estimate of the same subexpression — cost.Estimate evaluated
// at the plan's tuned parameters and the executed cardinalities — and the
// est/act drift ratio between them. Drift near 1 means the model predicted
// the operator well; a consistent skew across operators of one kind is the
// signal to recalibrate that device's InitCom/UnitTr constants (see the
// calibration experiment).
package plan

import (
	"fmt"
	"strings"

	"ocas/internal/core"
	"ocas/internal/cost"
	"ocas/internal/exec"
	"ocas/internal/memory"
	sym "ocas/internal/symbolic"
)

// ExplainOp is one operator of the EXPLAIN ANALYZE tree. All counters are
// cumulative (a node includes its children), the usual EXPLAIN ANALYZE
// convention. Every field except WallNanos is deterministic across executor
// worker counts; NormalizeExplain zeroes WallNanos for comparisons.
type ExplainOp struct {
	Op     string `json:"op"`
	Detail string `json:"detail,omitempty"`
	// Parts is always 1: lowering never splits an operator, and the sections
	// a hash join, sort or exchange runs internally report under their one
	// node. The field stays because served reports and the accounting golden
	// carry it.
	Parts int `json:"parts"`

	// Actuals, measured by the instrumented run.
	Batches    int64   `json:"batches"`
	Rows       int64   `json:"rows"`
	WallNanos  int64   `json:"wallNanos"`
	SimSeconds float64 `json:"simSeconds"`
	ReadInits  int64   `json:"readInits"`
	WriteInits int64   `json:"writeInits"`
	BytesRead  int64   `json:"bytesRead"`
	BytesWrite int64   `json:"bytesWrite"`
	PoolPins   int64   `json:"poolPins"`
	Spills     int64   `json:"spills"`
	SpillBytes int64   `json:"spillBytes"`

	// Estimates: the cost model applied to this operator's subexpression at
	// the plan's tuned parameters and the executed cardinalities. Absent
	// (zero, with EstValid false) when the subexpression is not costable in
	// isolation.
	EstValid   bool    `json:"estValid,omitempty"`
	EstSeconds float64 `json:"estSeconds,omitempty"`
	EstInits   float64 `json:"estInits,omitempty"`
	EstBytes   float64 `json:"estBytes,omitempty"`

	// Drift ratios (estimate / actual; 0 when the actual is 0 or there is
	// no estimate). DriftSeconds compares estimated to simulated seconds,
	// DriftBytes estimated to simulated transferred bytes (read + write).
	DriftSeconds float64 `json:"driftSeconds,omitempty"`
	DriftBytes   float64 `json:"driftBytes,omitempty"`

	Children []*ExplainOp `json:"children,omitempty"`
}

// explainReport converts the executor's tree, attaching per-node estimates.
// env must already bind the plan parameters and the executed cardinalities.
func explainReport(h *memory.Hierarchy, place cost.Placement, env sym.Env, n *exec.ExplainNode) *ExplainOp {
	if n == nil {
		return nil
	}
	op := &ExplainOp{
		Op: n.Kind, Detail: n.Detail, Parts: 1,
		Batches: n.Batches, Rows: n.Rows,
		WallNanos: n.WallNanos, SimSeconds: n.SimSeconds,
		ReadInits: n.ReadInits, WriteInits: n.WriteInits,
		BytesRead: n.BytesRead, BytesWrite: n.BytesWrite,
		PoolPins: n.PoolPins, Spills: n.Spills, SpillBytes: n.SpillBytes,
	}
	if n.Expr != nil {
		if res, err := cost.Estimate(h, place, n.Expr); err == nil {
			op.EstValid = true
			op.EstSeconds = res.Seconds.Eval(env)
			op.EstInits, op.EstBytes = res.Events.EvalTotals(env)
			if op.SimSeconds > 0 {
				op.DriftSeconds = op.EstSeconds / op.SimSeconds
			}
			if act := n.BytesRead + n.BytesWrite; act > 0 {
				op.DriftBytes = op.EstBytes / float64(act)
			}
		}
	}
	for _, kid := range n.Children {
		if c := explainReport(h, place, env, kid); c != nil {
			op.Children = append(op.Children, c)
		}
	}
	return op
}

// explainEnv is the evaluation environment of the per-node estimates: the
// executed cardinalities (which may differ from the nominal ones the plan
// was tuned for — drift then includes the mistuning) plus the plan's tuned
// parameter values.
func explainEnv(task core.Task, inputRows map[string]int64, params map[string]int64) sym.Env {
	t := task
	if inputRows != nil {
		t.InputRows = inputRows
	}
	env := (&core.Synthesizer{}).TaskEnv(t)
	for k, v := range params {
		env[k] = float64(v)
	}
	return env
}

// NormalizeExplain zeroes every WallNanos in the tree, in place. Wall time
// is the one non-deterministic field of an explain report; comparisons
// across runs or worker counts normalize first.
func NormalizeExplain(op *ExplainOp) {
	if op == nil {
		return
	}
	op.WallNanos = 0
	for _, c := range op.Children {
		NormalizeExplain(c)
	}
}

// RenderExplain renders the tree as indented text for the CLI.
func RenderExplain(op *ExplainOp) string {
	var b strings.Builder
	renderExplain(&b, op, 0)
	return b.String()
}

func renderExplain(b *strings.Builder, op *ExplainOp, depth int) {
	if op == nil {
		return
	}
	ind := strings.Repeat("  ", depth)
	fmt.Fprintf(b, "%s%s", ind, op.Op)
	if op.Detail != "" {
		fmt.Fprintf(b, " [%s]", op.Detail)
	}
	fmt.Fprintf(b, "\n%s  rows=%d batches=%d sim=%.6gs", ind, op.Rows, op.Batches, op.SimSeconds)
	fmt.Fprintf(b, " io={r:%dB/%d w:%dB/%d}", op.BytesRead, op.ReadInits, op.BytesWrite, op.WriteInits)
	if op.PoolPins > 0 || op.Spills > 0 {
		fmt.Fprintf(b, " pool={pins:%d spills:%d spillB:%d}", op.PoolPins, op.Spills, op.SpillBytes)
	}
	if op.EstValid {
		fmt.Fprintf(b, "\n%s  est=%.6gs inits=%.6g bytes=%.6g drift={sec:%.3g bytes:%.3g}",
			ind, op.EstSeconds, op.EstInits, op.EstBytes, op.DriftSeconds, op.DriftBytes)
	}
	b.WriteByte('\n')
	for _, c := range op.Children {
		renderExplain(b, c, depth+1)
	}
}
