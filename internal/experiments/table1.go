package experiments

import (
	"fmt"
	"io"

	"ocas/internal/core"
	"ocas/internal/memory"
	"ocas/internal/rules"
	"ocas/internal/workload"
)

// Config scales the experiment suite. Shrink divides the default (already
// paper-scaled) sizes further; tests use Shrink 8, benchmarks 1.
type Config struct {
	Shrink int64
}

func (c Config) div(n int64) int64 {
	s := c.Shrink
	if s < 1 {
		s = 1
	}
	v := n / s
	if v < 16 {
		v = 16
	}
	return v
}

// noHashRules is the rule set without hash-part, used for the rows where
// the paper reports the plain BNL variant (rows 1–2 and the write-out rows
// share sizes with the GRACE row; the paper presents both algorithms).
func noHashRules() []rules.Rule {
	var out []rules.Rule
	for _, r := range rules.AllRules() {
		if _, isHash := r.(rules.HashPart); isHash {
			continue
		}
		out = append(out, r)
	}
	return out
}

// cacheHierarchy builds HDD -> RAM -> cache with a cache scaled to the data
// so that tiling matters (the paper's 3MB L3 versus 32MB blocks; we keep
// the same block-to-cache ratio).
func cacheHierarchy(ramSize, cacheSize int64) *memory.Hierarchy {
	ram := &memory.Node{Name: "ram", Kind: memory.RAM, Size: ramSize, PageSize: 1,
		InitComUp: memory.CacheInit,
		Children: []*memory.Node{{
			Name: "hdd", Kind: memory.HDD, Size: memory.TiB, PageSize: 4 * memory.KiB,
			InitComUp: memory.HDDSeek, InitComDown: memory.HDDSeek,
			UnitTrUp: memory.HDDUnitTr, UnitTrDown: memory.HDDUnitTr,
		}},
	}
	root := &memory.Node{Name: "cache", Kind: memory.Cache, Size: cacheSize,
		PageSize: 64, Children: []*memory.Node{ram}}
	h, err := memory.New(root)
	if err != nil {
		panic(err)
	}
	return h
}

// Table1 builds the sixteen experiments of Table 1 at the configured scale.
func Table1(cfg Config) []Experiment {
	var exps []Experiment

	// --- Joins (paper: R=1G, S=32M, buffer 8M; scaled ~1/2048, with the
	// paper's S:buffer ratio of 4 preserved so blocking decisions match).
	joinR := cfg.div(64 << 10) // tuples (8 bytes each) -> 512KB at Shrink=1
	joinS := cfg.div(2 << 10)  //                       ->  16KB
	joinRAM := cfg.div(512) * 8
	joinKeyRange := joinS / 2 // high selectivity against S

	joinGen := func(seedR, seedS int64) map[string]func() []int32 {
		return map[string]func() []int32{
			"R": func() []int32 { return workload.UniformPairs(joinR, joinKeyRange, seedR) },
			"S": func() []int32 { return workload.UniformPairs(joinS, joinKeyRange, seedS) },
		}
	}

	exps = append(exps, Experiment{
		Name:     "bnl-no-writeout",
		PaperRow: "BNL - No writeout (Spec 4e9s, Opt 411s, Act 545s)",
		Spec:     core.JoinSpec(true),
		Hier:     memory.HDDRAM(joinRAM),
		InputLoc: map[string]string{"R": "hdd", "S": "hdd"},
		Rows:     map[string]int64{"R": joinR, "S": joinS},
		Gen:      joinGen(1, 2),
		MaxDepth: 6, MaxSpace: 1500,
		Rules:  noHashRules(),
		RBytes: joinR * 8, SBytes: joinS * 8, Buffer: joinRAM,
	})

	exps = append(exps, Experiment{
		Name:     "bnl-cache",
		PaperRow: "BNL with cache - No writeout (Spec 4e9s, Opt 445s, Act 533s)",
		Spec:     core.JoinSpec(true),
		Hier:     cacheHierarchy(joinRAM, cfg.div(512)*8),
		InputLoc: map[string]string{"R": "hdd", "S": "hdd"},
		Rows:     map[string]int64{"R": joinR, "S": joinS},
		Gen:      joinGen(1, 2),
		MaxDepth: 7, MaxSpace: 2500,
		Rules:  noHashRules(),
		RBytes: joinR * 8, SBytes: joinS * 8, Buffer: joinRAM,
	})

	// GRACE needs a transfer-dominated regime (MB-scale buckets) for the
	// partitioning trade-off to pay for itself: with seek time 15ms and
	// 30MB/s bandwidth the break-even bucket size is ~0.5MB, so this row
	// keeps fixed MB-scale sizes regardless of Shrink (the paper's
	// 1G/32M/8M configuration is deep in this regime).
	gR := int64(4 << 20)   // tuples -> 32MB
	gS := int64(8 << 20)   //        -> 64MB
	gRAM := int64(2 << 20) // 2MB
	exps = append(exps, Experiment{
		Name:     "grace-hash-join",
		PaperRow: "(GRACE) hash join - No writeout (Spec 4e9s, Opt 356s, Act 491s)",
		Spec:     core.JoinSpec(true),
		Hier:     memory.HDDRAM(gRAM),
		InputLoc: map[string]string{"R": "hdd", "S": "hdd"},
		Rows:     map[string]int64{"R": gR, "S": gS},
		Gen: map[string]func() []int32{
			"R": func() []int32 { return workload.UniformPairs(gR, gR*4, 1) },
			"S": func() []int32 { return workload.UniformPairs(gS, gR*4, 2) },
		},
		MaxDepth: 6, MaxSpace: 1500,
		RBytes: gR * 8, SBytes: gS * 8, Buffer: gRAM,
	})

	// --- Write-out joins (paper: R=32K, S=256M, buffer 20K; relational
	// product, so writes dominate). Scaled so the product fits. ---
	wR := cfg.div(128) // tuples
	wS := cfg.div(8 << 10)
	wRAM := cfg.div(512) * 8
	wGen := map[string]func() []int32{
		"R": func() []int32 { return workload.UniformPairs(wR, 8, 3) },
		"S": func() []int32 { return workload.UniformPairs(wS, 8, 4) },
	}
	wOut := func(h *memory.Hierarchy, out, name, row string) Experiment {
		return Experiment{
			Name:     name,
			PaperRow: row,
			Spec:     core.JoinSpec(false),
			Hier:     h,
			InputLoc: map[string]string{"R": "hdd", "S": "hdd"},
			Rows:     map[string]int64{"R": wR, "S": wS},
			Gen:      wGen,
			Output:   out,
			MaxDepth: 6, MaxSpace: 1200,
			Rules:  noHashRules(),
			RBytes: wR * 8, SBytes: wS * 8, Buffer: wRAM,
		}
	}
	exps = append(exps,
		wOut(memory.HDDRAM(wRAM), "hdd", "bnl-write-same-hdd",
			"BNL writing to HDD (Spec 1016144s, Opt 5058s, Act 4704s)"),
		wOut(memory.TwoHDD(wRAM), "hdd2", "bnl-write-other-hdd",
			"BNL wr. to other HDD (Spec 1016144s, Opt 1689s, Act 2176s)"),
		wOut(memory.HDDFlash(wRAM), "ssd", "bnl-write-flash",
			"BNL writing to flash (Spec 561179s, Opt 307s, Act 455s)"),
	)

	// --- External sorting (paper: 1G input, 260K buffer). ---
	sortN := cfg.div(64 << 10)
	sortRAM := cfg.div(4<<10) * 4
	exps = append(exps, Experiment{
		Name:     "external-sort",
		PaperRow: "External sorting (Spec 1e9s, Opt 157s, Act 272s)",
		Spec:     core.SortSpec(),
		Hier:     memory.HDDRAM(sortRAM),
		InputLoc: map[string]string{"R": "hdd"},
		Rows:     map[string]int64{"R": sortN},
		Gen: map[string]func() []int32{
			"R": func() []int32 { return workload.Ints(sortN, 1<<30, 5) },
		},
		MaxDepth: 12, MaxSpace: 2000,
		RBytes: sortN * 4, Buffer: sortRAM,
	})

	// --- Set operations (paper: 2G + 2G, 48K buffer). ---
	setN := cfg.div(32 << 10)
	setRAM := cfg.div(1<<10) * 4
	setExp := func(name, row string, spec core.Spec, gen map[string]func() []int32) Experiment {
		e := Experiment{
			Name: name, PaperRow: row, Spec: spec,
			Hier:     memory.TwoHDD(setRAM),
			InputLoc: map[string]string{}, Rows: map[string]int64{},
			Gen:      gen,
			Output:   "hdd2",
			MaxDepth: 3, MaxSpace: 300,
			RBytes: setN * 4, SBytes: setN * 4, Buffer: setRAM,
		}
		for _, in := range spec.Inputs {
			e.InputLoc[in.Name] = "hdd"
			e.Rows[in.Name] = setN
		}
		return e
	}
	exps = append(exps,
		setExp("set-union", "Set Union (Spec 396s, Opt 396s→, Act 499s)",
			core.SetUnionSpec(), map[string]func() []int32{
				"L1": func() []int32 { return workload.SortedUniqueInts(setN, 6) },
				"L2": func() []int32 { return workload.SortedUniqueInts(setN, 7) },
			}),
		setExp("multiset-union-sorted", "Multiset Union sorted (Spec 396s, Act 479s)",
			core.MultisetUnionSortedSpec(), map[string]func() []int32{
				"L1": func() []int32 { return workload.SortedInts(setN, 4, 8) },
				"L2": func() []int32 { return workload.SortedInts(setN, 4, 9) },
			}),
		setExp("multiset-union-vm", "Multiset Union value-mult (Spec 396s, Act 487s)",
			core.MultisetUnionVMSpec(), map[string]func() []int32{
				"L1": func() []int32 { return workload.ValueMult(setN, 10) },
				"L2": func() []int32 { return workload.ValueMult(setN, 11) },
			}),
		setExp("multiset-diff-sorted", "Multiset Diff sorted (Spec 266s, Act 137s)",
			core.MultisetDiffSortedSpec(), map[string]func() []int32{
				"L1": func() []int32 { return workload.SortedInts(setN, 4, 12) },
				"L2": func() []int32 { return workload.SortedInts(setN, 4, 13) },
			}),
		setExp("multiset-diff-vm", "Multiset Diff value-mult (Spec 266s, Act 153s)",
			core.MultisetDiffVMSpec(), map[string]func() []int32{
				"L1": func() []int32 { return workload.ValueMult(setN, 14) },
				"L2": func() []int32 { return workload.ValueMult(setN, 15) },
			}),
	)

	// --- Column-store reads (paper: 4G/8G, 5M/10M buffer). ---
	colExp := func(nCols int, row string) Experiment {
		colN := cfg.div(16 << 10)
		colRAM := cfg.div(4<<10) * 4 * int64(nCols)
		spec := core.ColumnReadSpec(nCols)
		e := Experiment{
			Name:     fmt.Sprintf("column-read-%d", nCols),
			PaperRow: row,
			Spec:     spec,
			Hier:     memory.HDDRAM(colRAM),
			InputLoc: map[string]string{}, Rows: map[string]int64{},
			Gen:      map[string]func() []int32{},
			MaxDepth: 2, MaxSpace: 100,
			RBytes: colN * 4 * int64(nCols), Buffer: colRAM,
		}
		for i, in := range spec.Inputs {
			name := in.Name
			seed := int64(20 + i)
			e.InputLoc[name] = "hdd"
			e.Rows[name] = colN
			e.Gen[name] = func() []int32 { return workload.Column(colN, seed) }
		}
		return e
	}
	exps = append(exps,
		colExp(5, "Column Store Read 5 cols (Spec 197s, Act 196s)"),
		colExp(10, "Column Store Read 10 cols (Spec 395s, Act 382s)"),
	)

	// --- Duplicate removal from a sorted list (paper: 16G, 16K buffer). ---
	dupN := cfg.div(64 << 10)
	dupRAM := cfg.div(1<<10) * 4
	exps = append(exps, Experiment{
		Name:     "dup-removal",
		PaperRow: "Duplicate Removal from a Sorted List (Spec 546s, Act 882s)",
		Spec:     core.DupRemovalSpec(),
		Hier:     memory.TwoHDD(dupRAM),
		InputLoc: map[string]string{"L": "hdd"},
		Rows:     map[string]int64{"L": dupN},
		Gen: map[string]func() []int32{
			"L": func() []int32 { return workload.SortedInts(dupN, 8, 30) },
		},
		Output:   "hdd2",
		MaxDepth: 3, MaxSpace: 300,
		RBytes: dupN * 4, Buffer: dupRAM,
	})

	// --- Aggregation (paper: 4G, 32K buffer). ---
	aggN := cfg.div(128 << 10)
	aggRAM := cfg.div(4<<10) * 8
	exps = append(exps, Experiment{
		Name:     "aggregation",
		PaperRow: "Aggregation (Spec 136s, Opt →, Act 168s)",
		Spec:     core.AggregationSpec(),
		Hier:     memory.HDDRAM(aggRAM),
		InputLoc: map[string]string{"R": "hdd"},
		Rows:     map[string]int64{"R": aggN},
		Gen: map[string]func() []int32{
			"R": func() []int32 { return workload.UniformPairs(aggN, 1<<20, 31) },
		},
		MaxDepth: 3, MaxSpace: 300,
		RBytes: aggN * 8, Buffer: aggRAM,
	})
	return exps
}

// RunTable1 executes every row and writes a paper-style table.
func RunTable1(cfg Config, w io.Writer) ([]*Result, error) {
	var out []*Result
	fmt.Fprintf(w, "%-24s %14s %14s %14s %8s %10s %10s %9s %7s %6s %9s\n",
		"Program", "Spec[s]", "Opt[s]", "Act[s]", "Est/Act", "R", "S", "Buffer", "Space", "Steps", "Synth[s]")
	for _, e := range Table1(cfg) {
		r, err := Run(e)
		if err != nil {
			return out, err
		}
		out = append(out, r)
		ratio := 0.0
		if r.ActSecs > 0 {
			ratio = r.OptSecs / r.ActSecs
		}
		fmt.Fprintf(w, "%-24s %14.4g %14.4g %14.4g %8.3f %10d %10d %9d %7d %6d %9.3f\n",
			r.Name, r.SpecSecs, r.OptSecs, r.ActSecs, ratio, r.RBytes, r.SBytes,
			r.Buffer, r.SpaceSize, r.Steps, r.SynthSecs)
	}
	return out, nil
}
