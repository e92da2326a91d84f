package exec

import (
	"fmt"
	"time"

	"ocas/internal/ocal"
)

// ExplainNode is one logical operator of an instrumented run: the node of
// the EXPLAIN ANALYZE tree. All counters are cumulative — a node's totals
// include everything its children charged, the standard EXPLAIN ANALYZE
// convention — because the instrumentation measures deltas of the driver
// strand's accounting around each operator call, and child calls nest
// inside parent calls.
//
// Everything except WallNanos is deterministic across executor worker
// counts: rows, batches and bytes are integer charges fixed by the plan's
// partition degrees, and the simulated seconds are deltas of the virtual
// clock, which only advances at partition-ordered Acct.Adopt barriers and
// driver-strand charges. WallNanos is real time and varies run to run; the
// determinism tests and the CI explain diff zero it before comparing.
type ExplainNode struct {
	Kind   string `json:"op"`
	Detail string `json:"detail,omitempty"`

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

	Children []*ExplainNode `json:"children,omitempty"`

	// Expr is the OCAL subexpression this operator implements; the plan
	// layer costs it with the paper's estimator to put estimated events
	// next to these actuals. Not serialized.
	Expr ocal.Expr `json:"-"`
}

// instr wraps one lowered operator with explain accounting. Wrappers only
// ever run on the driver strand (partition instances inside Gather,
// HashJoin and ExtSort are not wrapped individually — their charges reach
// the driver at adopt barriers inside the enclosing wrapped call), so a
// node's counters are written by exactly one goroutine and need no locks.
type instr struct {
	op   Operator
	node *ExplainNode
	c    *Ctx
}

// opSnap is one measurement point: the driver strand's cumulative charge
// totals plus the wall clock.
type opSnap struct {
	wall       time.Time
	secs       float64
	br, bw     int64
	ri, wi     int64
	pins       int64
	spills     int64
	spillBytes int64
}

func (w *instr) snap() opSnap {
	// Wrappers run on the driver strand, which owns the account they read
	// (see storage.Acct).
	a := w.c.acct()
	s := opSnap{
		wall: time.Now(),
		secs: a.Seconds(),
		br:   a.BytesRead(), bw: a.BytesWrite(),
		ri: a.ReadInits(), wi: a.WriteInits(),
	}
	if w.c.Pool != nil {
		ps := w.c.Pool.Stats()
		s.pins, s.spills, s.spillBytes = ps.Pins, ps.Spills, ps.SpillBytes
	}
	return s
}

// settle folds the delta since the snapshot into the node.
func (w *instr) settle(s opSnap) {
	now := w.snap()
	n := w.node
	n.WallNanos += int64(now.wall.Sub(s.wall))
	n.SimSeconds += now.secs - s.secs
	n.BytesRead += now.br - s.br
	n.BytesWrite += now.bw - s.bw
	n.ReadInits += now.ri - s.ri
	n.WriteInits += now.wi - s.wi
	n.PoolPins += now.pins - s.pins
	n.Spills += now.spills - s.spills
	n.SpillBytes += now.spillBytes - s.spillBytes
}

func (w *instr) Open(c *Ctx) error {
	w.c = c
	s := w.snap()
	err := w.op.Open(c)
	w.settle(s)
	return err
}

func (w *instr) Next(b *Batch) (bool, error) {
	if w.c == nil {
		return w.op.Next(b)
	}
	s := w.snap()
	ok, err := w.op.Next(b)
	w.settle(s)
	if ok && err == nil {
		w.node.Batches++
		if b.Arity > 0 {
			w.node.Rows += int64(b.Rows())
		}
	}
	return ok, err
}

func (w *instr) Close() error {
	if w.c == nil {
		// Closed without ever being opened (an error path shutting down a
		// partially built tree): nothing to measure.
		return w.op.Close()
	}
	s := w.snap()
	err := w.op.Close()
	w.settle(s)
	w.c = nil // idempotent Close: later calls stop measuring
	return err
}

// unwrapOp strips explain instrumentation off an operator.
func unwrapOp(op Operator) Operator {
	for {
		w, ok := op.(*instr)
		if !ok {
			return op
		}
		op = w.op
	}
}

// wrap instruments one lowered operator when explain is on. Operators that
// are already wrapped pass through, so recursive lowering paths that
// return an inner operator unchanged do not double-count.
func (l *lowerer) wrap(op Operator, prog ocal.Expr) Operator {
	if !l.o.Explain || op == nil {
		return op
	}
	if _, ok := op.(*instr); ok {
		return op
	}
	return &instr{op: op, node: &ExplainNode{Expr: prog}}
}

// buildExplainTree derives the explain tree from a wrapped operator tree:
// one node per wrapped logical operator, children discovered through the
// operators' streamed inputs (fused base tables appear in the detail
// string instead — they have no operator of their own).
func buildExplainTree(op Operator) *ExplainNode {
	w, ok := op.(*instr)
	if !ok {
		return nil
	}
	n := w.node
	n.Kind, n.Detail = describeOp(w.op)
	for _, kid := range childOps(w.op) {
		if c := buildExplainTree(kid); c != nil {
			n.Children = append(n.Children, c)
		}
	}
	return n
}

// childOps lists an operator's streamed input operators.
func childOps(op Operator) []Operator {
	switch t := op.(type) {
	case *Project:
		return opsOf(t.In)
	case *BNLJoin:
		return opsOf(t.L, t.R)
	case *HashJoin:
		return opsOf(t.L, t.R)
	case *ExtSort:
		return opsOf(t.In)
	case *UnfoldR:
		return opsOf(t.Ins...)
	case *Fold:
		return opsOf(t.In)
	}
	return nil
}

func opsOf(ins ...Input) []Operator {
	var out []Operator
	for _, in := range ins {
		if in.op != nil {
			out = append(out, in.op)
		}
	}
	return out
}

// describeOp names one logical operator. Every component of the detail
// string is plan-determined, so the rendered tree is identical across
// worker counts.
func describeOp(op Operator) (kind, detail string) {
	switch t := op.(type) {
	case *Scan:
		return "scan", fmt.Sprintf("rows=%d arity=%d k=%d", t.T.Rows(), t.T.Arity, t.K)
	case *Project:
		return "project", fmt.Sprintf("%s k=%d", inputDetail(t.In), t.K)
	case *BNLJoin:
		d := fmt.Sprintf("outer=%s inner=%s k1=%d k2=%d", inputDetail(t.L), inputDetail(t.R), t.K1, t.K2)
		if t.TileX > 0 || t.TileY > 0 {
			d += fmt.Sprintf(" tiles=%dx%d", t.TileX, t.TileY)
		}
		if t.EquiKeys != nil {
			d += " equi"
		}
		return "bnl-join", d
	case *HashJoin:
		return "hash-join", fmt.Sprintf("buckets=%d build=%s probe=%s k=%d",
			t.Buckets, inputDetail(t.L), inputDetail(t.R), t.KJoin)
	case *ExtSort:
		return "ext-sort", fmt.Sprintf("in=%s way=%d bin=%d bout=%d", inputDetail(t.In), t.Way, t.Bin, t.Bout)
	case *UnfoldR:
		return "unfold-merge", fmt.Sprintf("ins=%d k=%d", len(t.Ins), t.K)
	case *Fold:
		return "fold", fmt.Sprintf("in=%s k=%d", inputDetail(t.In), t.K)
	}
	return fmt.Sprintf("%T", op), ""
}

// inputDetail describes one operator input: fused base tables by size,
// streamed subtrees as "stream" (the subtree has its own node).
func inputDetail(in Input) string {
	switch {
	case in.table != nil:
		return fmt.Sprintf("table(rows=%d)", in.table.Rows())
	case in.op != nil:
		return "stream"
	default:
		return "spills"
	}
}
