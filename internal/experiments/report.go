package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
)

// BenchSchema identifies the machine-readable bench report format. Bump it
// when fields change incompatibly; the regression gate refuses to compare
// reports across schemas.
const BenchSchema = "ocas-bench/v8"

// BenchMeta is the report's environment context: wall-clock comparisons
// only mean something between runs on comparable machines, so record what
// we know. GeneratedAt is injected by the caller (the library takes no
// clock dependency, keeping report construction deterministic and
// testable); it is informational and never part of the regression gate.
type BenchMeta struct {
	GeneratedAt string `json:"generatedAt,omitempty"` // RFC 3339, set by the caller
	GoVersion   string `json:"goVersion"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
}

// BenchRow is one experiment in the machine-readable report.
type BenchRow struct {
	Name     string `json:"name"`
	PaperRow string `json:"paperRow,omitempty"`
	// SpecSecs/OptSecs are the estimated costs of the naive specification
	// and the synthesized winner; Speedup is their ratio (the paper's
	// headline numbers). ActSecs is the simulated execution time.
	SpecSecs float64 `json:"specSecs"`
	OptSecs  float64 `json:"optSecs"`
	ActSecs  float64 `json:"actSecs"`
	Speedup  float64 `json:"speedup"`
	// SynthSecs is the synthesis wall-clock and ExecSecs the executor
	// wall-clock — the two quantities the CI regression gate watches.
	// ExecWorkers is the executor worker count ExecSecs was measured at.
	SynthSecs   float64 `json:"synthSecs"`
	ExecSecs    float64 `json:"execSecs"`
	ExecWorkers int     `json:"execWorkers"`
	// TemplateWarmSecs is the steady-state wall-clock of instantiating the
	// row's captured plan template at scaled cardinalities (ocasbench
	// -templates); absent when templates were off or the capture went stale.
	TemplateWarmSecs float64 `json:"templateWarmSecs,omitempty"`
	// AllocsPerOp and BytesPerOp are heap allocations and bytes per input
	// row measured around the row's executor run (-columnar rows only): the
	// layout-regression canaries — a per-row copy creeping
	// back into the batch protocol shows up here before it moves the
	// wall-clock totals.
	AllocsPerOp float64 `json:"allocsPerOp,omitempty"`
	BytesPerOp  float64 `json:"bytesPerOp,omitempty"`
	// EstOverAct is the calibration ratio of the paper's accuracy
	// discussion: the tuned cost estimate (OptSecs) over the executor's
	// virtual-clock measurement (ActSecs).
	EstOverAct float64 `json:"estOverAct"`
	// SpaceSize counts distinct programs discovered, Explored the programs
	// costed, Steps the winning derivation length.
	SpaceSize int `json:"spaceSize"`
	Explored  int `json:"explored"`
	Steps     int `json:"steps"`
	// Cache counters of the memoized search hot path.
	InternedNodes uint64 `json:"internedNodes"`
	AlphaHits     uint64 `json:"alphaHits"`
	AlphaMisses   uint64 `json:"alphaMisses"`
	CostEntries   int    `json:"costEntries"`
	CostHits      uint64 `json:"costHits"`

	Params  map[string]int64 `json:"params,omitempty"`
	Program string           `json:"program,omitempty"`
}

// BenchReport is the full machine-readable result of an ocasbench run:
// everything needed to diff two runs or gate a regression.
type BenchReport struct {
	Schema   string    `json:"schema"`
	Meta     BenchMeta `json:"meta"`
	Shrink   int64     `json:"shrink"`
	Strategy string    `json:"strategy"`

	Table1 []BenchRow `json:"table1,omitempty"`
	// ExecParallel holds the multi-worker executor rows: each workload
	// appears once per worker count, with identical simulated charges and
	// (on multi-core hardware) scaling wall-clock.
	ExecParallel []BenchRow `json:"execParallel,omitempty"`
	// Ingest holds the durable-catalog rows (ocasbench -ingest): ingest
	// throughput into columnar segments plus the generated-vs-durable
	// executor wall-clocks. The section is additive to the schema and
	// informational only — CompareBaseline never gates on it, since ingest
	// wall-clock is dominated by the host filesystem.
	Ingest []IngestRow `json:"ingest,omitempty"`
	// Columnar holds the columnar-layout microbench rows (ocasbench
	// -columnar): durable chains executed through the struct-of-arrays
	// batch path, with allocation-rate columns.
	Columnar []BenchRow `json:"columnar,omitempty"`
	// TotalSynthSecs and TotalExecSecs sum the two wall-clocks over every
	// Table 1 row, and TotalExecParSecs the executor wall-clock over the
	// multi-worker rows: the gate metrics.
	TotalSynthSecs   float64 `json:"totalSynthSecs"`
	TotalExecSecs    float64 `json:"totalExecSecs"`
	TotalExecParSecs float64 `json:"totalExecParSecs,omitempty"`
	// TotalTemplateWarmSecs sums TemplateWarmSecs over the Table 1 rows —
	// the template tier's gate metric (0 when -templates was off).
	TotalTemplateWarmSecs float64 `json:"totalTemplateWarmSecs,omitempty"`
	// TotalColumnarExecSecs sums the executor wall-clock over the Columnar
	// rows — the batch-layout gate metric (0 when -columnar was off).
	TotalColumnarExecSecs float64 `json:"totalColumnarExecSecs,omitempty"`
}

// IngestRow is one ingest-study workload in the machine-readable report.
// Digest pins the output the durable scan was verified against; ActSecs is
// the simulated time, identical between the generated and durable runs.
type IngestRow struct {
	Name       string  `json:"name"`
	Rows       int64   `json:"rows"`
	Segments   int64   `json:"segments"`
	IngestSecs float64 `json:"ingestSecs"`
	RowsPerSec float64 `json:"rowsPerSec"`
	GenSecs    float64 `json:"genSecs"`
	ScanSecs   float64 `json:"scanSecs"`
	ActSecs    float64 `json:"actSecs"`
	Digest     string  `json:"digest,omitempty"`
}

// ingestRow converts one ingest result.
func ingestRow(r *IngestResult) IngestRow {
	row := IngestRow{
		Name:       r.Name,
		Rows:       r.Rows,
		Segments:   r.Segments,
		IngestSecs: r.IngestSecs,
		GenSecs:    r.GenSecs,
		ScanSecs:   r.ScanSecs,
		ActSecs:    r.ActSecs,
		Digest:     r.Digest,
	}
	if r.IngestSecs > 0 {
		row.RowsPerSec = float64(r.Rows) / r.IngestSecs
	}
	return row
}

// benchRow converts one experiment result.
func benchRow(r *Result) BenchRow {
	row := BenchRow{
		Name:             r.Name,
		PaperRow:         r.PaperRow,
		SpecSecs:         r.SpecSecs,
		OptSecs:          r.OptSecs,
		ActSecs:          r.ActSecs,
		SynthSecs:        r.SynthSecs,
		ExecSecs:         r.ExecSecs,
		ExecWorkers:      r.ExecWorkers,
		TemplateWarmSecs: r.TemplateWarmSecs,
		SpaceSize:        r.SpaceSize,
		Explored:         r.Explored,
		Steps:            r.Steps,
		InternedNodes:    r.Memo.Keys.InternedNodes,
		AlphaHits:        r.Memo.Keys.AlphaHits,
		AlphaMisses:      r.Memo.Keys.AlphaMisses,
		CostEntries:      r.Memo.Cost.Entries,
		CostHits:         r.Memo.Cost.Hits,
		Params:           r.Params,
		Program:          r.Program,
	}
	if row.ExecWorkers < 1 {
		row.ExecWorkers = 1
	}
	if r.OptSecs > 0 {
		row.Speedup = r.SpecSecs / r.OptSecs
	}
	if r.ActSecs > 0 {
		row.EstOverAct = r.OptSecs / r.ActSecs
	}
	return row
}

// columnarRow converts one columnar microbench result.
func columnarRow(r *ColumnarResult) BenchRow {
	return BenchRow{
		Name:        r.Name,
		ActSecs:     r.ActSecs,
		ExecSecs:    r.ExecSecs,
		ExecWorkers: 1,
		AllocsPerOp: r.AllocsPerOp,
		BytesPerOp:  r.BytesPerOp,
	}
}

// NewBenchReport converts experiment results into a report. execPar,
// ingest and columnar may be nil when those sections did not run.
func NewBenchReport(cfg Config, table1 []*Result, execPar []*Result, ingest []*IngestResult, columnar []*ColumnarResult) *BenchReport {
	strategy := cfg.Strategy
	if strategy == "" {
		strategy = "exhaustive"
	}
	shrink := cfg.Shrink
	if shrink < 1 {
		shrink = 1
	}
	rep := &BenchReport{
		Schema: BenchSchema,
		Meta: BenchMeta{
			GoVersion:  runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
		},
		Shrink:   shrink,
		Strategy: strategy,
	}
	for _, r := range table1 {
		rep.Table1 = append(rep.Table1, benchRow(r))
		rep.TotalSynthSecs += r.SynthSecs
		rep.TotalExecSecs += r.ExecSecs
		rep.TotalTemplateWarmSecs += r.TemplateWarmSecs
	}
	for _, r := range execPar {
		rep.ExecParallel = append(rep.ExecParallel, benchRow(r))
		rep.TotalExecParSecs += r.ExecSecs
	}
	for _, r := range ingest {
		rep.Ingest = append(rep.Ingest, ingestRow(r))
	}
	for _, r := range columnar {
		rep.Columnar = append(rep.Columnar, columnarRow(r))
		rep.TotalColumnarExecSecs += r.ExecSecs
	}
	return rep
}

// WriteJSON renders the report as indented JSON with a trailing newline.
func (r *BenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadBenchReport parses a report produced by WriteJSON.
func ReadBenchReport(data []byte) (*BenchReport, error) {
	var r BenchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench report: %w", err)
	}
	if r.Schema != BenchSchema {
		return nil, fmt.Errorf("bench report schema %q, want %q", r.Schema, BenchSchema)
	}
	return &r, nil
}

// CompareBaseline checks the current run against a baseline report and
// returns an error when total synthesis wall-clock regressed by more than
// maxRegressPct percent. Reports must agree on schema, shrink, strategy and
// GOMAXPROCS — comparing different configurations (or a parallel run
// against a single-core baseline) would gate on noise rather than on the
// code. The CI bench job pins GOMAXPROCS=1 for exactly this reason; clock
// speed differences between machines remain the operator's problem
// (regenerate the baseline when the hardware changes).
func CompareBaseline(current, baseline *BenchReport, maxRegressPct float64) error {
	if current.Shrink != baseline.Shrink || current.Strategy != baseline.Strategy {
		return fmt.Errorf("bench configs differ: current shrink=%d strategy=%s, baseline shrink=%d strategy=%s",
			current.Shrink, current.Strategy, baseline.Shrink, baseline.Strategy)
	}
	if current.Meta.GOMAXPROCS != baseline.Meta.GOMAXPROCS {
		return fmt.Errorf("bench environments differ: current GOMAXPROCS=%d, baseline GOMAXPROCS=%d — pin GOMAXPROCS or regenerate the baseline",
			current.Meta.GOMAXPROCS, baseline.Meta.GOMAXPROCS)
	}
	if baseline.TotalSynthSecs <= 0 {
		return fmt.Errorf("baseline has no synthesis wall-clock to compare against")
	}
	limit := 1 + maxRegressPct/100
	ratio := current.TotalSynthSecs / baseline.TotalSynthSecs
	if ratio > limit {
		return fmt.Errorf("synthesis wall-clock regressed %.1f%% (current %.3fs vs baseline %.3fs, limit +%.0f%%)",
			(ratio-1)*100, current.TotalSynthSecs, baseline.TotalSynthSecs, maxRegressPct)
	}
	// Executor wall-clock is gated the same way (baselines predating the
	// executor columns carry no exec time and skip this check).
	if baseline.TotalExecSecs > 0 {
		ratio := current.TotalExecSecs / baseline.TotalExecSecs
		if ratio > limit {
			return fmt.Errorf("executor wall-clock regressed %.1f%% (current %.3fs vs baseline %.3fs, limit +%.0f%%)",
				(ratio-1)*100, current.TotalExecSecs, baseline.TotalExecSecs, maxRegressPct)
		}
	}
	// The template tier's warm-instantiation total gates the same way; runs
	// or baselines without -templates carry 0 and skip the check, so the
	// gate only ever compares like against like.
	if baseline.TotalTemplateWarmSecs > 0 && current.TotalTemplateWarmSecs > 0 {
		ratio := current.TotalTemplateWarmSecs / baseline.TotalTemplateWarmSecs
		if ratio > limit {
			return fmt.Errorf("template warm-instantiation wall-clock regressed %.1f%% (current %.3fs vs baseline %.3fs, limit +%.0f%%)",
				(ratio-1)*100, current.TotalTemplateWarmSecs, baseline.TotalTemplateWarmSecs, maxRegressPct)
		}
	}
	// The columnar-layout rows gate their wall-clock total the
	// same way: a layout regression confined to the durable segment→batch
	// path cannot hide behind the generated-input totals. Runs or baselines
	// without -columnar carry 0 and skip the check.
	if baseline.TotalColumnarExecSecs > 0 && current.TotalColumnarExecSecs > 0 {
		ratio := current.TotalColumnarExecSecs / baseline.TotalColumnarExecSecs
		if ratio > limit {
			return fmt.Errorf("columnar-executor wall-clock regressed %.1f%% (current %.3fs vs baseline %.3fs, limit +%.0f%%)",
				(ratio-1)*100, current.TotalColumnarExecSecs, baseline.TotalColumnarExecSecs, maxRegressPct)
		}
	}
	// The multi-worker executor rows gate their own wall-clock total, so a
	// regression confined to the parallel paths cannot hide behind the
	// single-worker table.
	if baseline.TotalExecParSecs > 0 && current.TotalExecParSecs > 0 {
		ratio := current.TotalExecParSecs / baseline.TotalExecParSecs
		if ratio > limit {
			return fmt.Errorf("parallel-executor wall-clock regressed %.1f%% (current %.3fs vs baseline %.3fs, limit +%.0f%%)",
				(ratio-1)*100, current.TotalExecParSecs, baseline.TotalExecParSecs, maxRegressPct)
		}
	}
	return nil
}
