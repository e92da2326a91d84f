package experiments

import (
	"fmt"
	"io"

	"ocas/internal/core"
	"ocas/internal/memory"
	"ocas/internal/plan"
	"ocas/internal/workload"
)

// Figure8Point is one bar pair of Figure 8: estimated vs measured seconds
// for a given input/buffer configuration.
type Figure8Point struct {
	Workload  string
	Label     string // e.g. "1G/32M/8M" in paper units, ours scaled
	Estimated float64
	Measured  float64
}

// Figure8 regenerates the estimated-vs-measured sweeps of Figure 8 for the
// three panels: BNL join with write-out, merge-sort, and aggregation, each
// at three growing input/buffer configurations.
func Figure8(cfg Config) ([]Figure8Point, error) {
	var out []Figure8Point

	// Panel 1: BNL with write-out, sizes 128M/32K .. 8G/64K scaled.
	for i, sz := range []struct {
		r, s, ram int64
		label     string
	}{
		{cfg.div(64), cfg.div(2 << 10), cfg.div(256) * 8, "128M/32K"},
		{cfg.div(128), cfg.div(4 << 10), cfg.div(256) * 8, "1G/32K"},
		{cfg.div(256), cfg.div(8 << 10), cfg.div(512) * 8, "8G/64K"},
	} {
		e := Experiment{
			Name:     fmt.Sprintf("fig8-bnl-%d", i),
			Spec:     core.JoinSpec(false),
			Hier:     memory.TwoHDD(sz.ram),
			InputLoc: map[string]string{"R": "hdd", "S": "hdd"},
			Rows:     map[string]int64{"R": sz.r, "S": sz.s},
			Gen: map[string]func() []int32{
				"R": func() []int32 { return workload.UniformPairs(sz.r, 8, 40) },
				"S": func() []int32 { return workload.UniformPairs(sz.s, 8, 41) },
			},
			Output:   "hdd2",
			MaxDepth: 6, MaxSpace: 1200, Rules: noHashRules(),
		}
		r, err := Run(e)
		if err != nil {
			return nil, err
		}
		out = append(out, Figure8Point{Workload: "BNL - write-out", Label: sz.label,
			Estimated: r.OptSecs, Measured: r.ActSecs})
	}

	// Panel 2: merge-sort, 4G/32K .. 16G/128K scaled.
	for i, sz := range []struct {
		n, ram int64
		label  string
	}{
		{cfg.div(32 << 10), cfg.div(2<<10) * 4, "4G/32K"},
		{cfg.div(64 << 10), cfg.div(4<<10) * 4, "8G/64K"},
		{cfg.div(128 << 10), cfg.div(8<<10) * 4, "16G/128K"},
	} {
		e := Experiment{
			Name:     fmt.Sprintf("fig8-sort-%d", i),
			Spec:     core.SortSpec(),
			Hier:     memory.HDDRAM(sz.ram),
			InputLoc: map[string]string{"R": "hdd"},
			Rows:     map[string]int64{"R": sz.n},
			Gen: map[string]func() []int32{
				"R": func() []int32 { return workload.Ints(sz.n, 1<<30, 42) },
			},
			MaxDepth: 12, MaxSpace: 1500,
		}
		r, err := Run(e)
		if err != nil {
			return nil, err
		}
		out = append(out, Figure8Point{Workload: "Merge-sort", Label: sz.label,
			Estimated: r.OptSecs, Measured: r.ActSecs})
	}

	// Panel 3: aggregation, 1G/32M .. 4G/64M scaled.
	for i, sz := range []struct {
		n, ram int64
		label  string
	}{
		{cfg.div(32 << 10), cfg.div(2<<10) * 8, "1G/32M"},
		{cfg.div(64 << 10), cfg.div(2<<10) * 8, "2G/32M"},
		{cfg.div(128 << 10), cfg.div(4<<10) * 8, "4G/64M"},
	} {
		e := Experiment{
			Name:     fmt.Sprintf("fig8-agg-%d", i),
			Spec:     core.AggregationSpec(),
			Hier:     memory.HDDRAM(sz.ram),
			InputLoc: map[string]string{"R": "hdd"},
			Rows:     map[string]int64{"R": sz.n},
			Gen: map[string]func() []int32{
				"R": func() []int32 { return workload.UniformPairs(sz.n, 1<<20, 43) },
			},
			MaxDepth: 3, MaxSpace: 300,
		}
		r, err := Run(e)
		if err != nil {
			return nil, err
		}
		out = append(out, Figure8Point{Workload: "Aggregation", Label: sz.label,
			Estimated: r.OptSecs, Measured: r.ActSecs})
	}
	return out, nil
}

// RunFigure8 renders the sweep as text.
func RunFigure8(cfg Config, w io.Writer) ([]Figure8Point, error) {
	pts, err := Figure8(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "%-18s %-10s %14s %14s %8s\n", "Workload", "Config", "Estimated[s]", "Measured[s]", "Est/Act")
	for _, p := range pts {
		ratio := 0.0
		if p.Measured > 0 {
			ratio = p.Estimated / p.Measured
		}
		fmt.Fprintf(w, "%-18s %-10s %14.5g %14.5g %8.3f\n",
			p.Workload, p.Label, p.Estimated, p.Measured, ratio)
	}
	return pts, nil
}

// CacheStudy reproduces the Section 7.2 cache experiment: the same join
// synthesized with and without a cache level in the hierarchy, executed on
// the cache simulator; the tiled program must cut data-cache misses
// drastically (the paper reports 98.2%) while wall time barely moves
// (I/O bound).
type CacheStudyResult struct {
	UntiledMisses, TiledMisses   int64
	MissReduction                float64 // fraction of misses removed
	UntiledSecs, TiledSecs       float64
	UntiledOpt, TiledOpt         float64
	UntiledParams, TiledParams   map[string]int64
	UntiledProgram, TiledProgram string
}

// RunCacheStudy executes both variants. Sizes are fixed (not shrunk): the
// cache effect needs a sane geometry — RAM blocks several times the cache,
// tiles a fraction of it — which degenerates below a few KB.
func RunCacheStudy(cfg Config) (*CacheStudyResult, error) {
	joinR := int64(64 << 10) // tuples
	joinS := int64(8 << 10)
	ram := int64(16 << 10)       // bytes: blocks of ~1K tuples
	cacheBytes := int64(2 << 10) // cache holds ~256 tuples
	gen := map[string]func() []int32{
		"R": func() []int32 { return workload.UniformPairs(joinR, joinS/2, 1) },
		"S": func() []int32 { return workload.UniformPairs(joinS, joinS/2, 2) },
	}
	cacheH := cacheHierarchy(ram, cacheBytes)
	run := func(synthH *memory.Hierarchy, depth, space int) (*Result, error) {
		return Run(Experiment{
			Name: "cache-study", Spec: core.JoinSpec(true),
			Hier: synthH, ExecHier: cacheH,
			InputLoc: map[string]string{"R": "hdd", "S": "hdd"},
			Rows:     map[string]int64{"R": joinR, "S": joinS},
			Gen:      gen, MaxDepth: depth, MaxSpace: space, Rules: noHashRules(),
		})
	}
	// Untiled baseline: synthesized for a cache-oblivious two-level
	// hierarchy, executed on the cache simulator.
	untiled, err := run(memory.HDDRAM(ram), 6, 1200)
	if err != nil {
		return nil, err
	}
	// Tiled: synthesized for the hierarchy that includes the cache level,
	// which makes apply-block introduce one more blocking level.
	tiled, err := run(cacheH, 8, 4000)
	if err != nil {
		return nil, err
	}
	res := &CacheStudyResult{
		UntiledSecs:    untiled.ActSecs,
		TiledSecs:      tiled.ActSecs,
		UntiledOpt:     untiled.OptSecs,
		TiledOpt:       tiled.OptSecs,
		UntiledParams:  untiled.Params,
		TiledParams:    tiled.Params,
		UntiledProgram: untiled.Program,
		TiledProgram:   tiled.Program,
	}
	if untiled.CacheMissR > 0 {
		res.MissReduction = 1 - tiled.CacheMissR/untiled.CacheMissR
	}
	return res, nil
}

// AccuracyPoint is one selectivity setting of the Section 7.3 study.
type AccuracyPoint struct {
	Selectivity float64 // fraction of the worst-case output realized
	EstOverAct  float64 // estimated / measured
	// Devices is the run's per-device ledgers.
	Devices map[string]plan.DeviceReport
}

// AccuracyStudy varies join selectivity: worst-case output sizing makes the
// estimate increasingly pessimistic as selectivity drops, and accurate at
// 100% (relational product), exactly the paper's Table 1 discussion.
func AccuracyStudy(cfg Config) ([]AccuracyPoint, error) {
	var out []AccuracyPoint
	r := cfg.div(256)
	s := cfg.div(2 << 10)
	ram := cfg.div(512) * 8
	for _, keyRange := range []int64{0, 4, 64} { // 0 => product (sel = 100%)
		kr := keyRange
		equi := kr != 0
		spec := core.JoinSpec(equi)
		gen := map[string]func() []int32{
			"R": func() []int32 { return workload.UniformPairs(r, maxI(kr, 1), 50) },
			"S": func() []int32 { return workload.UniformPairs(s, maxI(kr, 1), 51) },
		}
		res, err := Run(Experiment{
			Name: fmt.Sprintf("accuracy-%d", keyRange), Spec: spec,
			Hier:     memory.TwoHDD(ram),
			InputLoc: map[string]string{"R": "hdd", "S": "hdd"},
			Rows:     map[string]int64{"R": r, "S": s},
			Gen:      gen,
			Output:   "hdd2",
			MaxDepth: 6, MaxSpace: 1200, Rules: noHashRules(),
		})
		if err != nil {
			return nil, err
		}
		sel := float64(res.OutRows) / float64(r*s)
		ratio := res.OptSecs / res.ActSecs
		out = append(out, AccuracyPoint{Selectivity: sel, EstOverAct: ratio, Devices: res.Exec.Devices})
	}
	return out, nil
}

func maxI(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
