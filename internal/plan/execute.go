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

	"ocas/internal/catalog"
	"ocas/internal/core"
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
	// hierarchy's RAM size, < 0 means unlimited.
	PoolBytes int64 `json:"poolBytes,omitempty"`
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
	// ExecWorkers bounds the morsel-driven executor's concurrent partition
	// tasks (0 or 1: single-worker; capped at MaxExecWorkers). Worker count
	// never changes the output digest or the device ledgers — partition
	// degrees are plan-decided — only the wall-clock time.
	ExecWorkers int `json:"execWorkers,omitempty"`
	// Explain instruments the run per operator and attaches the EXPLAIN
	// ANALYZE tree to the report. Purely a transport option: it never enters
	// the plan fingerprint and changes neither the output nor the ledgers.
	Explain bool `json:"explain,omitempty"`
}

// MaxExecWorkers is the executor's concurrency ceiling (partition degrees
// never exceed it); admission layers clamp requested worker counts against
// it so no request holds capacity the executor cannot use.
const MaxExecWorkers = exec.MaxWorkers

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
	// ExecWorkers is the effective executor worker count and Workers the
	// per-worker-lane charge aggregates (partition tasks map to lanes
	// deterministically, so the report is stable run to run).
	ExecWorkers    int                 `json:"execWorkers,omitempty"`
	Workers        []exec.WorkerLedger `json:"workers,omitempty"`
	CacheMissRatio float64             `json:"cacheMissRatio,omitempty"`
	// Explain is the per-operator EXPLAIN ANALYZE tree (ExecOptions.Explain).
	Explain *ExplainOp `json:"explain,omitempty"`
}

// RunProgram executes a synthesized program against a fresh simulator of h.
// The task supplies placement and nominal sizes; opt may override sizes,
// supply rows outright or bind inputs to durable tables.
func RunProgram(ctx context.Context, h *memory.Hierarchy, prog ocal.Expr, params map[string]int64, task core.Task, opt ExecOptions) (*ExecReport, error) {
	sim := storage.NewSim(h)
	sim.DefaultCPU()

	if err := CheckExecOptions(task, opt); err != nil {
		return nil, err
	}
	inputs := map[string]*exec.Table{}
	var handles []*catalog.Handle
	defer func() {
		// Handles stay open for the run: backed tables materialize their
		// payload lazily on first read.
		for _, h := range handles {
			h.Close()
		}
	}()
	for i, in := range task.Spec.Inputs {
		dev, err := sim.Device(task.InputLoc[in.Name])
		if err != nil {
			return nil, err
		}
		var tb *exec.Table
		if tname, bound := opt.Tables[in.Name]; bound {
			h, err := openTableInput(opt.Cat, in, tname)
			if err != nil {
				return nil, err
			}
			handles = append(handles, h)
			tb, err = exec.NewBackedTable(dev, in.Arity, h.Rows(), h)
			if err != nil {
				return nil, err
			}
		} else {
			cols, err := inputData(in, task, opt, i)
			if err != nil {
				return nil, err
			}
			tb, err = exec.NewTable(dev, in.Arity, int64(len(cols[0]))+8)
			if err != nil {
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
// it and builds the report. Scratch traffic goes to the task's intermediate
// device, or the first input's; the output, when the task names a device,
// to a table allocated there at the first row. Of opt it reads PoolBytes,
// BatchRows, ExecWorkers and Explain — binding inputs is the caller's half.
func RunBound(ctx context.Context, sim *storage.Sim, inputs map[string]*exec.Table, prog ocal.Expr, params map[string]int64, task core.Task, opt ExecOptions) (*ExecReport, error) {
	inputRows := map[string]int64{}
	var scratch *storage.Device
	for _, in := range task.Spec.Inputs {
		tb := inputs[in.Name]
		if tb == nil {
			return nil, fmt.Errorf("plan: input %s is not bound", in.Name)
		}
		inputRows[in.Name] = tb.Rows()
		if scratch == nil {
			scratch = tb.Device()
		}
	}
	if task.Intermediate != "" {
		dev, err := sim.Device(task.Intermediate)
		if err != nil {
			return nil, err
		}
		scratch = dev
	}
	if scratch == nil {
		return nil, fmt.Errorf("plan: no device to execute on")
	}

	var digest bagDigest
	defer digest.stop()
	sink := &exec.Sink{Sim: sim, Bout: exec.OutBlock(params), Tap: digest.add}
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
	if spRun != nil {
		spRun.AddVirt(sim.Clock.Seconds())
		spRun.Attr("rows", sink.RowsWritten)
		spRun.Attr("workers", p.Workers())
		spRun.End()
	}
	if sink.Err != nil {
		return nil, fmt.Errorf("plan: output allocation: %w", sink.Err)
	}

	rep := &ExecReport{
		Program:        ocal.String(prog),
		Params:         params,
		InputRows:      inputRows,
		OutRows:        sink.RowsWritten,
		VirtualSeconds: sim.Clock.Seconds(),
		Devices:        map[string]DeviceReport{},
		Pool:           p.Pool().Stats(),
		ExecWorkers:    p.Workers(),
	}
	if rep.ExecWorkers > 1 {
		rep.Workers = p.WorkerLedgers()
	}
	if rep.Params == nil {
		rep.Params = map[string]int64{}
	}
	if p.Scalar {
		rep.Result = p.Result.String()
		rep.OutDigest = digestString(rep.Result)
	} else {
		rep.OutDigest = digest.hex()
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
	if tree := p.ExplainTree(); tree != nil {
		place := (&core.Synthesizer{}).TaskPlacement(task)
		rep.Explain = explainReport(sim.H, place, explainEnv(task, inputRows, params), tree)
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

// CheckExecOptions validates opt's per-input maps against the task, so an
// option that cannot mean what it says fails the request instead of being
// dropped: every name in Rows, Inputs and Tables must be a declared input, a
// Rows override must be positive, Tables needs a catalog, and a bound input
// cannot also carry a Rows override or explicit Inputs (the table decides its
// own cardinality). RunProgram checks it; a front end that wants to tell a
// bad request from a failed execution calls it first.
func CheckExecOptions(task core.Task, opt ExecOptions) error {
	declared := map[string]bool{}
	for _, in := range task.Spec.Inputs {
		declared[in.Name] = true
	}
	for name, n := range opt.Rows {
		if !declared[name] {
			return fmt.Errorf("plan: exec.rows names %q, which is not an input of the program", name)
		}
		if n <= 0 {
			return fmt.Errorf("plan: exec.rows gives input %q %d rows, want at least 1", name, n)
		}
	}
	for name := range opt.Inputs {
		if !declared[name] {
			return fmt.Errorf("plan: exec.inputs names %q, which is not an input of the program", name)
		}
	}
	if len(opt.Tables) > 0 && opt.Cat == nil {
		return fmt.Errorf("plan: exec.tables given but no catalog is configured")
	}
	for name := range opt.Tables {
		if !declared[name] {
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

// openTableInput opens the catalog snapshot feeding one bound input and
// checks its shape.
func openTableInput(cat *catalog.Catalog, in core.InputSpec, tname string) (*catalog.Handle, error) {
	h, err := cat.OpenTable(tname)
	if err != nil {
		return nil, fmt.Errorf("plan: input %s: %w", in.Name, err)
	}
	if h.Arity() != in.Arity {
		h.Close()
		return nil, fmt.Errorf("plan: input %s wants arity %d but table %q has %d columns",
			in.Name, in.Arity, tname, h.Arity())
	}
	return h, nil
}

// inputData resolves one input's rows as column vectors: explicit rows win,
// then generated data of the overridden or nominal size.
func inputData(in core.InputSpec, task core.Task, opt ExecOptions, idx int) ([][]int32, error) {
	if rows, ok := opt.Inputs[in.Name]; ok {
		cols := make([][]int32, in.Arity)
		for c := range cols {
			cols[c] = make([]int32, len(rows))
		}
		for rI, row := range rows {
			if len(row) != in.Arity {
				return nil, fmt.Errorf("input %s row %d has %d attributes, want %d",
					in.Name, rI, len(row), in.Arity)
			}
			for c, v := range row {
				if v < -1<<31 || v > 1<<31-1 {
					return nil, fmt.Errorf("input %s row %d value %d outside int32", in.Name, rI, v)
				}
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
