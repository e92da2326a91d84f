// Package experiments defines one runnable experiment per row of Table 1
// and per panel of Figure 8 of the paper, plus the cache-miss and accuracy
// studies of Section 7. Each experiment synthesizes the algorithm with OCAS,
// then executes the winner against the storage simulator on generated data,
// reporting estimated (Spec/Opt) and measured (Act) times side by side.
//
// Sizes are the paper's configurations scaled down (the paper runs GB-scale
// relations on real hardware for minutes to hours; the simulator preserves
// the size *ratios* between relations and buffers, which is what the
// paper's comparisons depend on). The per-experiment definitions in
// table1.go record the mapping.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"ocas/internal/core"
	"ocas/internal/exec"
	"ocas/internal/memory"
	"ocas/internal/ocal"
	"ocas/internal/plan"
	"ocas/internal/rules"
	"ocas/internal/storage"
)

// Experiment is one synthesize-then-execute run.
type Experiment struct {
	Name     string
	PaperRow string // the corresponding Table 1 row, for reports
	Spec     core.Spec
	Hier     *memory.Hierarchy
	// ExecHier, when set, is the hierarchy the winner executes on (used by
	// the cache study to run a cache-oblivious program on the cache
	// simulator); defaults to Hier.
	ExecHier *memory.Hierarchy
	InputLoc map[string]string
	Rows     map[string]int64
	Gen      map[string]func() []int32
	Output   string
	MaxDepth int
	MaxSpace int
	Rules    []rules.Rule
	// ExecWorkers bounds the executor's morsel-parallel worker lanes
	// (<= 1: single-worker). Worker count never changes digests or
	// ledgers, only wall-clock.
	ExecWorkers int
	// Reporting: nominal byte sizes.
	RBytes, SBytes, Buffer int64
}

// Result is one Table 1 row produced by this reproduction.
type Result struct {
	Name      string
	PaperRow  string
	SpecSecs  float64 // estimated cost of the naive specification
	OptSecs   float64 // estimated cost of the synthesized algorithm
	ActSecs   float64 // simulated execution time of the synthesized algorithm
	RBytes    int64
	SBytes    int64
	Buffer    int64
	SpaceSize int
	Steps     int
	SynthSecs float64
	// ExecSecs is the executor's wall-clock (host time, not the virtual
	// clock) at the experiment's executor worker count.
	ExecSecs   float64
	Program    string
	Params     map[string]int64
	CacheMissR float64 // cache miss ratio when a cache level exists
	OutRows    int64
	// Exec is the run's full execution report: output digest, per-device
	// ledgers, pool stats.
	Exec *plan.ExecReport
	// Explored is the number of candidate programs costed by the screening
	// pass, and Memo the synthesis counters (the search's dedup counts) —
	// the raw material of the machine-readable bench report.
	Explored int
	Memo     core.MemoStats
}

// Run synthesizes and executes one experiment.
func Run(e Experiment) (*Result, error) {
	syn, err := Synthesize(e)
	if err != nil {
		return nil, err
	}
	return Execute(e, syn)
}

// task is the synthesis and execution task of an experiment.
func (e Experiment) task() core.Task {
	return core.Task{
		Spec:      e.Spec,
		InputLoc:  e.InputLoc,
		InputRows: e.Rows,
		Output:    e.Output,
	}
}

// Synthesize runs the search phase of an experiment.
func Synthesize(e Experiment) (*core.Synthesis, error) {
	synth := &core.Synthesizer{
		H: e.Hier, MaxDepth: e.MaxDepth, MaxSpace: e.MaxSpace, Rules: e.Rules,
	}
	syn, err := synth.Synthesize(e.task())
	if err != nil {
		return nil, fmt.Errorf("%s: synthesize: %w", e.Name, err)
	}
	return syn, nil
}

// Execute runs an experiment's synthesized winner on the storage simulator
// (at the experiment's executor worker count), so one synthesis can be
// executed at several worker counts. The experiment brings its own input
// generators; the run itself is plan.RunBound, the road every plan takes.
func Execute(e Experiment, syn *core.Synthesis) (*Result, error) {
	execHier := e.ExecHier
	if execHier == nil {
		execHier = e.Hier
	}
	sim := storage.NewSim(execHier)
	sim.DefaultCPU()
	inputs := map[string]*exec.Table{}
	for _, in := range e.Spec.Inputs {
		dev, err := sim.Device(e.InputLoc[in.Name])
		if err != nil {
			return nil, err
		}
		rows := e.Gen[in.Name]()
		t, err := exec.NewTable(dev, in.Arity, 0)
		if err != nil {
			return nil, err
		}
		if err := t.Preload(rows); err != nil {
			return nil, err
		}
		inputs[in.Name] = t
	}

	execStart := time.Now()
	rep, err := plan.RunBound(context.Background(), sim, inputs, syn.Best.Expr, syn.Best.Params,
		e.task(), plan.ExecOptions{ExecWorkers: e.ExecWorkers})
	if err != nil {
		return nil, fmt.Errorf("%s: %q: %w", e.Name, coreString(syn), err)
	}
	return &Result{
		Name:       e.Name,
		PaperRow:   e.PaperRow,
		SpecSecs:   syn.SpecSeconds,
		OptSecs:    syn.Best.Seconds,
		ActSecs:    rep.VirtualSeconds,
		RBytes:     e.RBytes,
		SBytes:     e.SBytes,
		Buffer:     e.Buffer,
		SpaceSize:  syn.Stats.SpaceSize,
		Steps:      len(syn.Best.Steps),
		SynthSecs:  syn.Elapsed.Seconds(),
		ExecSecs:   time.Since(execStart).Seconds(),
		Program:    coreString(syn),
		Params:     syn.Best.Params,
		CacheMissR: rep.CacheMissRatio,
		OutRows:    rep.OutRows,
		Exec:       rep,
		Explored:   syn.Explored,
		Memo:       syn.Memo,
	}, nil
}

func coreString(s *core.Synthesis) string {
	return strings.TrimSpace(fmt.Sprintf("%s  [steps: %s]",
		ocal.String(s.Best.Expr), strings.Join(s.Best.Steps, ", ")))
}
