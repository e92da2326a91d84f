// execute.go is the shared execution path of the stack: it runs a
// synthesized program — fresh from the synthesizer or recalled from the
// plan cache — against the storage simulator on request-supplied or
// generated inputs, and reports the virtual-clock time, the per-device
// ledger and a content digest of the output. cmd/ocas -run, the ocasd
// POST /execute endpoint and the paper experiments all go through RunBound
// (the first two via RunProgram, which binds the inputs first), so a plan
// executes identically no matter which door it entered through.
package plan

import (
	"context"
	"fmt"
	"math"
	"time"

	"ocas/internal/catalog"
	"ocas/internal/core"
	"ocas/internal/cost"
	"ocas/internal/exec"
	"ocas/internal/memory"
	"ocas/internal/obs"
	"ocas/internal/ocal"
	"ocas/internal/storage"
	"ocas/internal/workload"
)

// ExecOptions tunes one execution of a plan. All fields are optional.
type ExecOptions struct {
	// BatchRows is the operator exchange batch size (0 = executor default).
	// It never changes the output (digest, rows, result) or the bytes a
	// device transfers. The sink is fed between Next calls, though, so it
	// does move where the output's writes fall among the run's reads: when
	// the output device also holds an input, transfer initiations and the
	// clock follow the batch size, and any output device leaves it in the
	// clock's last bits (TestBatchSizeInvariants). It is not part of a
	// request: only the differential tests set it.
	BatchRows int64 `json:"-"`
	// PoolBytes bounds the executor's buffer pool; 0 defaults to the
	// hierarchy's RAM size, < 0 means unlimited. A budget below RAM shrinks
	// grants under the blocks the plan was tuned at, so the run is one the
	// plan never priced. It is not part of a request: only the small-pool
	// differential tests set it.
	PoolBytes int64 `json:"-"`
	// Seed drives the deterministic input generators.
	Seed int64 `json:"seed,omitempty"`
	// Rows overrides the generated row count per input (execution only —
	// the plan stays tuned for the request's nominal sizes).
	Rows map[string]int64 `json:"rows,omitempty"`
	// Inputs supplies explicit rows per input, each row a tuple of ints
	// matching the input's arity. Inputs listed here ignore Rows/Seed.
	Inputs map[string][][]int64 `json:"inputs,omitempty"`
	// Tables binds inputs to durable catalog tables by name: the input's
	// rows come from the table's columnar segments (plus its buffered tail)
	// instead of Inputs or the generators. A bound input's executed row
	// count is the table's row count; Rows/Inputs entries for it are
	// rejected. Requires Cat.
	Tables map[string]string `json:"tables,omitempty"`
	// Cat resolves Tables. It is infrastructure wiring (set by ocasd or the
	// CLI from their -data directory), never part of a request body.
	Cat *catalog.Catalog `json:"-"`
	// ExecWorkers overrides the executor's lane count, min(GOMAXPROCS, 8)
	// when 0. Tests and ocasd's admission set it, never a request body
	// (ocasd gives a run one lane per execution slot it holds). It never
	// changes the output digest or the device ledgers (partition degrees are
	// plan-decided), only the wall-clock time.
	ExecWorkers int `json:"-"`
	// Explain instruments the run per operator and attaches the EXPLAIN
	// ANALYZE tree to the report. Purely a transport option: it never enters
	// the plan fingerprint and changes neither the output nor the ledgers.
	Explain bool `json:"explain,omitempty"`
}

// DeviceReport is one device's ledger after execution: the paper's two
// event kinds (InitCom, UnitTr) split by direction.
type DeviceReport struct {
	ReadInits  int64 `json:"readInits"`
	WriteInits int64 `json:"writeInits"`
	BytesRead  int64 `json:"bytesRead"`
	BytesWrite int64 `json:"bytesWrite"`
}

// ExecReport is the machine-readable result of one execution.
type ExecReport struct {
	Fingerprint string           `json:"fingerprint,omitempty"`
	Program     string           `json:"program"`
	Params      map[string]int64 `json:"params"`
	// InputRows records the row counts actually executed.
	InputRows map[string]int64 `json:"inputRows"`
	OutRows   int64            `json:"outRows"`
	// OutDigest identifies the output so two executions can be compared
	// without shipping rows: for a row stream the order-independent bag
	// digest bagDigest defines (per-row SHA-256, summed modulo 2^256), for
	// an aggregation the SHA-256 of the scalar result's text.
	OutDigest string `json:"outDigest"`
	// Result is the scalar value of an aggregation program.
	Result string `json:"result,omitempty"`
	// VirtualSeconds is the storage simulator's clock after the run —
	// the measured counterpart of the cost model's estimate.
	VirtualSeconds float64 `json:"virtualSeconds"`
	// PredictedSeconds is the plan's estimated cost (cost.Estimate after
	// parameter tuning); the measured-vs-predicted ratio is the paper's
	// accuracy metric.
	PredictedSeconds float64                 `json:"predictedSeconds,omitempty"`
	Devices          map[string]DeviceReport `json:"devices"`
	Pool             storage.PoolStats       `json:"pool"`
	// ExecWorkers is the number of executor lanes the run had.
	ExecWorkers    int     `json:"execWorkers,omitempty"`
	CacheMissRatio float64 `json:"cacheMissRatio,omitempty"`
	// Explain is the per-operator EXPLAIN ANALYZE tree (ExecOptions.Explain).
	Explain *exec.ExplainNode `json:"explain,omitempty"`
}

// RunProgram executes a synthesized program against a fresh simulator of h.
// The task supplies placement and nominal sizes; opt may override sizes,
// supply rows outright or bind inputs to durable tables.
func RunProgram(ctx context.Context, h *memory.Hierarchy, prog ocal.Expr, params map[string]int64, task core.Task, opt ExecOptions) (*ExecReport, error) {
	sim := storage.NewSim(h)
	sim.DefaultCPU()

	if err := CheckExecOptions(h, task, opt); err != nil {
		return nil, err
	}
	inputs := map[string]*exec.Table{}
	for i, in := range task.Spec.Inputs {
		dev, err := sim.Device(task.InputLoc[in.Name])
		if err != nil {
			return nil, err
		}
		var tb *exec.Table
		if tname, bound := opt.Tables[in.Name]; bound {
			if tb, err = loadTableInput(opt.Cat, dev, in, tname); err != nil {
				return nil, err
			}
		} else {
			cols, err := inputData(in, task, opt, i)
			if err != nil {
				return nil, err
			}
			if tb, err = exec.NewTable(dev, in.Arity, 0); err != nil {
				return nil, err
			}
			if err := tb.PreloadCols(cols); err != nil {
				return nil, err
			}
		}
		inputs[in.Name] = tb
	}
	return RunBound(ctx, sim, inputs, prog, params, task, opt)
}

// RunBound is the one wiring of a run: it lowers prog over input tables
// already resident on sim's devices (one per input of the task), executes
// it and builds the report. Scratch traffic goes to the device the cost
// model prices it on (cost.Intermediate: the task's intermediate device,
// else its output's, else the first input location by name); the output,
// when the task names a device, is charged and claimed there from the first
// row and never stored. Of opt it reads PoolBytes, BatchRows, ExecWorkers
// and Explain — binding inputs is the caller's half.
func RunBound(ctx context.Context, sim *storage.Sim, inputs map[string]*exec.Table, prog ocal.Expr, params map[string]int64, task core.Task, opt ExecOptions) (*ExecReport, error) {
	inputRows := map[string]int64{}
	for _, in := range task.Spec.Inputs {
		tb := inputs[in.Name]
		if tb == nil {
			return nil, fmt.Errorf("plan: input %s is not bound", in.Name)
		}
		inputRows[in.Name] = tb.Rows()
	}
	place := (&core.Synthesizer{}).TaskPlacement(task)
	scratch, err := sim.Device(cost.Intermediate(place))
	if err != nil {
		return nil, fmt.Errorf("plan: scratch device: %w", err)
	}

	var digest bagDigest
	defer digest.stop()
	sink := &exec.Sink{Sim: sim, Bout: cost.OutK(prog).Bind(params), Tap: digest.add}
	if task.Output != "" {
		outDev, err := sim.Device(task.Output)
		if err != nil {
			return nil, err
		}
		sink.Alloc = func(arity int) (*exec.Table, error) {
			return exec.NewTable(outDev, arity, 0)
		}
	}

	p, err := exec.Lower(prog, exec.LowerOpts{
		Sim: sim, Inputs: inputs, Params: params,
		Scratch: scratch, Sink: sink,
		RAMBytes:    sim.H.RAMBytes(),
		PoolBytes:   opt.PoolBytes,
		BatchRows:   opt.BatchRows,
		ExecWorkers: opt.ExecWorkers,
		Context:     ctx,
		Explain:     opt.Explain,
	})
	if err != nil {
		return nil, fmt.Errorf("plan: lower: %w", err)
	}
	_, spRun := obs.Start(ctx, "exec.run")
	if err := p.Run(); err != nil {
		return nil, fmt.Errorf("plan: execute: %w", err)
	}
	// The run ends with its digest: digestNs is the wait for the digest
	// strand plus the fold of what it had not reached. Of the chunks the
	// output filled, the helper strand folded digestHelperChunks and the
	// emitting strand digestOwnChunks, the last one among them: more than
	// that one, and the digest held the run up.
	var result, outDigest string
	digestStart := time.Now()
	if p.Scalar {
		result = p.Result.String()
		outDigest = digestString(result)
	} else {
		outDigest = digest.hex()
	}
	if spRun != nil {
		spRun.AddVirt(sim.Clock.Seconds())
		spRun.Attr("rows", sink.RowsWritten)
		spRun.Attr("workers", p.Workers())
		spRun.Attr("digestNs", time.Since(digestStart).Nanoseconds())
		spRun.Attr("digestHelperChunks", digest.helped)
		spRun.Attr("digestOwnChunks", digest.own)
		spRun.End()
	}

	rep := &ExecReport{
		Program:        ocal.String(prog),
		Params:         params,
		InputRows:      inputRows,
		OutRows:        sink.RowsWritten,
		Result:         result,
		OutDigest:      outDigest,
		VirtualSeconds: sim.Clock.Seconds(),
		Devices:        map[string]DeviceReport{},
		Pool:           p.Pool().Stats(),
		ExecWorkers:    p.Workers(),
	}
	if rep.Params == nil {
		rep.Params = map[string]int64{}
	}
	for name, d := range sim.Devices {
		rep.Devices[name] = DeviceReport{
			ReadInits:  d.Led.ReadInits,
			WriteInits: d.Led.WriteInits,
			BytesRead:  d.Led.BytesRead,
			BytesWrite: d.Led.BytesWrite,
		}
	}
	if sim.Cache != nil {
		rep.CacheMissRatio = sim.Cache.MissRatio()
	}
	if rep.Explain = p.ExplainTree(); rep.Explain != nil {
		estimateTree(sim.H, place, explainEnv(sim.H, task, inputRows, params), rep.Explain)
	}
	return rep, nil
}

// ExecutePlan re-parses a (possibly cached) plan's program and runs it for
// the compiled request that produced it.
func ExecutePlan(ctx context.Context, c *Compiled, p *Plan, opt ExecOptions) (*ExecReport, error) {
	prog, err := ocal.ParseFile(p.Program)
	if err != nil {
		return nil, fmt.Errorf("plan: program does not re-parse: %w", err)
	}
	rep, err := RunProgram(ctx, c.H, prog, p.Params, c.Task, opt)
	if err != nil {
		return nil, err
	}
	rep.Fingerprint = p.Fingerprint
	rep.PredictedSeconds = p.Seconds
	return rep, nil
}

// CheckExecOptions validates the task's placements against h and opt's
// per-input maps against the task, so a request that cannot run as it says
// fails as such instead of deep in the run: every input, the output and the
// intermediate must sit on a node the simulator makes a device of (see
// storage.Simulates), every name in Rows, Inputs and Tables must be a
// declared input, a Rows override must be positive, every explicit row must
// have the input's arity and int32 values, Tables needs a catalog, and a
// bound input cannot also carry a Rows override or explicit Inputs (the
// table decides its own cardinality). RunProgram checks it; a front end that
// wants to tell a bad request from a failed execution calls it first.
func CheckExecOptions(h *memory.Hierarchy, task core.Task, opt ExecOptions) error {
	placed := func(what, node string) error {
		if n := h.Node(node); n != nil && !storage.Simulates(n.Kind) {
			return fmt.Errorf("plan: %s is placed on %q, a %s node; execution simulates only hdd and flash nodes", what, node, n.Kind)
		}
		return nil
	}
	arity := map[string]int{}
	for _, in := range task.Spec.Inputs {
		arity[in.Name] = in.Arity
		if err := placed("input "+in.Name, task.InputLoc[in.Name]); err != nil {
			return err
		}
	}
	for _, p := range [][2]string{{"output", task.Output}, {"intermediate", task.Intermediate}} {
		if err := placed(p[0], p[1]); err != nil {
			return err
		}
	}
	declared := func(name string) bool { _, ok := arity[name]; return ok }
	for name, n := range opt.Rows {
		if !declared(name) {
			return fmt.Errorf("plan: exec.rows names %q, which is not an input of the program", name)
		}
		if n <= 0 {
			return fmt.Errorf("plan: exec.rows gives input %q %d rows, want at least 1", name, n)
		}
	}
	for name, rows := range opt.Inputs {
		if !declared(name) {
			return fmt.Errorf("plan: exec.inputs names %q, which is not an input of the program", name)
		}
		for rI, row := range rows {
			if len(row) != arity[name] {
				return fmt.Errorf("plan: exec.inputs row %d of %q has %d attributes, want %d",
					rI, name, len(row), arity[name])
			}
			for _, v := range row {
				if v < math.MinInt32 || v > math.MaxInt32 {
					return fmt.Errorf("plan: exec.inputs row %d of %q holds %d, outside int32", rI, name, v)
				}
			}
		}
	}
	if len(opt.Tables) > 0 && opt.Cat == nil {
		return fmt.Errorf("plan: exec.tables given but no catalog is configured")
	}
	for name := range opt.Tables {
		if !declared(name) {
			return fmt.Errorf("plan: exec.tables binds %q, which is not an input of the program", name)
		}
		if _, ok := opt.Rows[name]; ok {
			return fmt.Errorf("plan: input %q has both a table binding and a rows override", name)
		}
		if _, ok := opt.Inputs[name]; ok {
			return fmt.Errorf("plan: input %q has both a table binding and explicit inputs", name)
		}
	}
	return nil
}

// loadTableInput loads the catalog snapshot feeding one bound input into a
// table on dev, checking its shape; the snapshot closes once it is read.
func loadTableInput(cat *catalog.Catalog, dev *storage.Device, in core.InputSpec, tname string) (*exec.Table, error) {
	h, err := cat.OpenTable(tname)
	if err != nil {
		return nil, fmt.Errorf("plan: input %s: %w", in.Name, err)
	}
	defer h.Close()
	if h.Arity() != in.Arity {
		return nil, fmt.Errorf("plan: input %s wants arity %d but table %q has %d columns",
			in.Name, in.Arity, tname, h.Arity())
	}
	tb, err := exec.NewBackedTable(dev, in.Arity, h.Rows(), h)
	if err != nil {
		return nil, fmt.Errorf("plan: input %s: %w", in.Name, err)
	}
	return tb, nil
}

// inputData resolves one input's rows as column vectors: explicit rows
// (which CheckExecOptions has checked) win, then generated data of the
// overridden or nominal size.
func inputData(in core.InputSpec, task core.Task, opt ExecOptions, idx int) ([][]int32, error) {
	if rows, ok := opt.Inputs[in.Name]; ok {
		cols := make([][]int32, in.Arity)
		for c := range cols {
			cols[c] = make([]int32, len(rows))
		}
		for rI, row := range rows {
			for c, v := range row {
				cols[c][rI] = int32(v)
			}
		}
		return cols, nil
	}
	n := task.InputRows[in.Name]
	if o, ok := opt.Rows[in.Name]; ok {
		n = o
	}
	if n < 0 {
		n = 0
	}
	seed := opt.Seed + int64(idx)*7919
	switch in.Arity {
	case 1:
		// Sorted with duplicates: valid for merges, set operations and
		// duplicate removal; sorting and folds accept any order.
		return [][]int32{workload.SortedInts(n, 4, seed)}, nil
	case 2:
		// Key-sorted pairs: valid for the streaming group-by, neutral for
		// joins and aggregations.
		keys, payloads := workload.SortedPairs(n, seed)
		return [][]int32{keys, payloads}, nil
	}
	return nil, fmt.Errorf("input %s: no generator for arity %d", in.Name, in.Arity)
}

// GeneratedPairs returns, row-major, the exact rows the executor's arity-2
// input generator produces for n rows under seed — what inputData feeds an
// unbound input whose per-input seed is opt.Seed + inputIndex*7919. Ingest
// differentials (tests, the bench harness, the CI smoke job) load these
// rows into a catalog table so a durable scan is comparable to a generated
// run value for value.
func GeneratedPairs(n, seed int64) []int32 {
	keys, payloads := workload.SortedPairs(n, seed)
	rows := make([]int32, 2*len(keys))
	for i, k := range keys {
		rows[2*i], rows[2*i+1] = k, payloads[i]
	}
	return rows
}

// GeneratedInts is GeneratedPairs' arity-1 counterpart.
func GeneratedInts(n, seed int64) []int32 { return workload.SortedInts(n, 4, seed) }
