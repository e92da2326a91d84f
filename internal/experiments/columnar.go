package experiments

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"ocas/internal/catalog"
	"ocas/internal/core"
	"ocas/internal/exec"
	"ocas/internal/memory"
	"ocas/internal/ocal"
	"ocas/internal/storage"
	"ocas/internal/workload"
)

// ColumnarResult is one columnar-layout microbench row: a chain executed
// over *durable* inputs (catalog segments behind BackedTable), so the rows
// measure the segment→batch path end to end. The wall-clock feeds the
// TotalColumnarExecSecs regression gate, and the allocation columns make
// layout regressions (per-row copies creeping back in) visible in the
// report.
type ColumnarResult struct {
	Name     string
	Rows     int64 // input rows read from segments
	OutRows  int64
	ActSecs  float64 // virtual clock
	ExecSecs float64 // executor wall-clock
	// AllocsPerOp and BytesPerOp are heap allocations and bytes per input
	// row during the run (runtime.MemStats deltas around Run).
	AllocsPerOp float64
	BytesPerOp  float64
}

// columnarWorkload is one durable-input chain. Scan-dominated and
// join-probe chains are fixed pre-synthesized shapes; the sort chain is
// synthesized once so the executed plan is the real external merge sort the
// rule set derives.
type columnarWorkload struct {
	name   string
	src    string // chain source; empty when synth is set
	synth  *Experiment
	ram    int64 // hierarchy root size for lowering
	params map[string]int64
	inputs []columnarInput
}

type columnarInput struct {
	name  string
	arity int
	gen   func() []int32
}

// ColumnarWorkloads returns the three durable chains, scaled down by
// shrink: the scan-dominated filter+project chain (the zero-copy
// segment→batch row the acceptance gate watches), the join-probe chain and
// the synthesized external sort (the no-regression rows).
func ColumnarWorkloads(shrink int64) []columnarWorkload {
	if shrink < 1 {
		shrink = 1
	}
	scanN := (4 << 20) / shrink
	jR := (64 << 10) / shrink
	jS := (512 << 10) / shrink
	sortN := (256 << 10) / shrink
	return []columnarWorkload{
		{
			name:   "durablescan",
			src:    "for (xB [k1] <- R) for (x <- xB) if x.1 < 5 then [<x.1, (x.2 + x.1)>] else []",
			ram:    32 * memory.MiB,
			params: map[string]int64{"k1": 4096},
			inputs: []columnarInput{{
				name: "R", arity: 2,
				gen: func() []int32 { return workload.UniformPairs(scanN, 100, 21) },
			}},
		},
		{
			name: "durablejoin",
			src: "for (xB [k1] <- R) for (yB [k2] <- S) for (x <- xB) for (y <- yB) " +
				"if x.1 == y.1 then [<x, y>] else []",
			ram:    32 * memory.MiB,
			params: map[string]int64{"k1": 4096, "k2": 4096},
			inputs: []columnarInput{
				{name: "R", arity: 2, gen: func() []int32 { return workload.UniformPairs(jR, jR, 22) }},
				{name: "S", arity: 2, gen: func() []int32 { return workload.UniformPairs(jS, jR, 23) }},
			},
		},
		{
			name: "durablesort",
			synth: &Experiment{
				Name:     "durablesort",
				Spec:     core.SortSpec(),
				Hier:     memory.HDDRAM(64 << 10),
				InputLoc: map[string]string{"R": "hdd"},
				Rows:     map[string]int64{"R": sortN},
				MaxDepth: 12, MaxSpace: 2000,
			},
			ram: 64 << 10,
			inputs: []columnarInput{{
				name: "R", arity: 1,
				gen: func() []int32 { return workload.Ints(sortN, 1<<30, 24) },
			}},
		},
	}
}

// runColumnar executes one workload with every input bound to its durable
// catalog table and fills in the result row.
func runColumnar(wl columnarWorkload, prog ocal.Expr, cat *catalog.Catalog) (*ColumnarResult, error) {
	sim := storage.NewSim(memory.HDDRAM(64 * memory.MiB))
	sim.DefaultCPU()
	inputs := map[string]*exec.Table{}
	var scratch *storage.Device
	r := &ColumnarResult{Name: wl.name}
	for _, in := range wl.inputs {
		dev, err := sim.Device("hdd")
		if err != nil {
			return nil, err
		}
		scratch = dev
		h, err := cat.OpenTable("col_" + in.name)
		if err != nil {
			return nil, err
		}
		defer h.Close()
		t, err := exec.NewBackedTable(dev, in.arity, h.Rows(), h)
		if err != nil {
			return nil, err
		}
		inputs[in.name] = t
		r.Rows += h.Rows()
	}
	sink := &exec.Sink{Sim: sim}
	p, err := exec.Lower(prog, exec.LowerOpts{
		Sim: sim, Inputs: inputs, Params: wl.params,
		Scratch: scratch, Sink: sink,
		RAMBytes: wl.ram,
	})
	if err != nil {
		return nil, fmt.Errorf("%s: lower: %w", wl.name, err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	if err := p.Run(); err != nil {
		return nil, fmt.Errorf("%s: execute: %w", wl.name, err)
	}
	r.ExecSecs = time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	r.OutRows = sink.RowsWritten
	r.ActSecs = sim.Clock.Seconds()
	if r.Rows > 0 {
		r.AllocsPerOp = float64(m1.Mallocs-m0.Mallocs) / float64(r.Rows)
		r.BytesPerOp = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(r.Rows)
	}
	return r, nil
}

// ingestColumnar loads every input of the workload into the catalog. A
// small flush threshold forces multiple segments per table so scans cross
// segment boundaries.
func ingestColumnar(wl columnarWorkload, cat *catalog.Catalog) error {
	for _, in := range wl.inputs {
		tname := "col_" + in.name
		if err := cat.Create(tname, pairOrIntSchema(in.arity)); err != nil {
			return err
		}
		if _, err := cat.Append(tname, in.gen()); err != nil {
			return err
		}
		if err := cat.Flush(tname); err != nil {
			return err
		}
	}
	return nil
}

// columnarProg resolves the workload's executable program: a parsed fixed
// chain, or the synthesized winner for the sort row.
func columnarProg(wl *columnarWorkload) (ocal.Expr, error) {
	if wl.synth == nil {
		prog, err := ocal.Parse(wl.src)
		if err != nil {
			return nil, fmt.Errorf("%s: parse: %w", wl.name, err)
		}
		return prog, nil
	}
	syn, err := Synthesize(*wl.synth)
	if err != nil {
		return nil, err
	}
	wl.params = syn.Best.Params
	return syn.Best.Expr, nil
}

// RunColumnar executes each durable chain and reports its wall-clock and
// allocation rates. The rows feed the bench report's Columnar section and
// its TotalColumnarExecSecs regression gate.
func RunColumnar(cfg Config, w io.Writer) ([]*ColumnarResult, error) {
	var out []*ColumnarResult
	fmt.Fprintf(w, "%-14s %10s %10s %12s %11s %10s %10s\n",
		"Chain", "InRows", "OutRows", "Act[s]", "Exec[s]", "allocs/op", "B/op")
	for _, wl := range ColumnarWorkloads(cfg.Shrink) {
		prog, err := columnarProg(&wl)
		if err != nil {
			return out, err
		}
		dir, err := os.MkdirTemp("", "ocas-columnar")
		if err != nil {
			return out, err
		}
		cat, err := catalog.Open(dir, catalog.Options{FlushRows: 64 << 10, Mmap: true})
		if err != nil {
			os.RemoveAll(dir)
			return out, err
		}
		err = ingestColumnar(wl, cat)
		var r *ColumnarResult
		if err == nil {
			r, err = runColumnar(wl, prog, cat)
		}
		cat.Close()
		os.RemoveAll(dir)
		if err != nil {
			return out, err
		}
		fmt.Fprintf(w, "%-14s %10d %10d %12.4g %11.3f %10.4f %10.2f\n",
			r.Name, r.Rows, r.OutRows, r.ActSecs, r.ExecSecs, r.AllocsPerOp, r.BytesPerOp)
		out = append(out, r)
	}
	return out, nil
}
