package experiments

import (
	"encoding/json"
	"io"
	"runtime"
)

// BenchSchema identifies the machine-readable bench report format. Bump it
// when fields change incompatibly.
const BenchSchema = "ocas-bench/v10"

// BenchMeta is the report's environment context: the wall-clock columns
// only mean something between runs on comparable machines, so record what
// we know. GeneratedAt is injected by the caller (the library takes no
// clock dependency, keeping report construction deterministic and
// testable).
type BenchMeta struct {
	GeneratedAt string `json:"generatedAt,omitempty"` // RFC 3339, set by the caller
	GoVersion   string `json:"goVersion"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
}

// Table1Row is one Table 1 experiment in the machine-readable report.
type Table1Row struct {
	Name     string `json:"name"`
	PaperRow string `json:"paperRow,omitempty"`
	// SpecSecs/OptSecs are the estimated costs of the naive specification
	// and the synthesized winner; Speedup is their ratio (the paper's
	// headline numbers). ActSecs is the simulated execution time.
	SpecSecs float64 `json:"specSecs"`
	OptSecs  float64 `json:"optSecs"`
	ActSecs  float64 `json:"actSecs"`
	Speedup  float64 `json:"speedup"`
	// EstOverAct is the calibration ratio of the paper's accuracy
	// discussion: the tuned cost estimate (OptSecs) over the executor's
	// virtual-clock measurement (ActSecs).
	EstOverAct float64 `json:"estOverAct"`
	// SynthSecs is the synthesis wall-clock and ExecSecs the single-worker
	// executor wall-clock of this row on this host — information, not a
	// gate: performance is judged end to end by benchmark/.
	SynthSecs float64 `json:"synthSecs"`
	ExecSecs  float64 `json:"execSecs"`
	// SpaceSize counts distinct programs discovered, Explored the programs
	// costed, Steps the winning derivation length.
	SpaceSize int `json:"spaceSize"`
	Explored  int `json:"explored"`
	Steps     int `json:"steps"`
	// The search's dedup counters (see rules.KeyerStats).
	InternedNodes uint64 `json:"internedNodes"`
	AlphaHits     uint64 `json:"alphaHits"`
	AlphaMisses   uint64 `json:"alphaMisses"`

	Params  map[string]int64 `json:"params,omitempty"`
	Program string           `json:"program,omitempty"`
}

// BenchReport is the machine-readable result of an ocasbench Table 1 run.
type BenchReport struct {
	Schema string      `json:"schema"`
	Meta   BenchMeta   `json:"meta"`
	Shrink int64       `json:"shrink"`
	Table1 []Table1Row `json:"table1,omitempty"`
}

// table1Row converts one experiment result.
func table1Row(r *Result) Table1Row {
	row := Table1Row{
		Name:          r.Name,
		PaperRow:      r.PaperRow,
		SpecSecs:      r.SpecSecs,
		OptSecs:       r.OptSecs,
		ActSecs:       r.ActSecs,
		SynthSecs:     r.SynthSecs,
		ExecSecs:      r.ExecSecs,
		SpaceSize:     r.SpaceSize,
		Explored:      r.Explored,
		Steps:         r.Steps,
		InternedNodes: r.Memo.Keys.InternedNodes,
		AlphaHits:     r.Memo.Keys.AlphaHits,
		AlphaMisses:   r.Memo.Keys.AlphaMisses,
		Params:        r.Params,
		Program:       r.Program,
	}
	if r.OptSecs > 0 {
		row.Speedup = r.SpecSecs / r.OptSecs
	}
	if r.ActSecs > 0 {
		row.EstOverAct = r.OptSecs / r.ActSecs
	}
	return row
}

// NewBenchReport converts the Table 1 results into a report.
func NewBenchReport(cfg Config, table1 []*Result) *BenchReport {
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
		Shrink: shrink,
	}
	for _, r := range table1 {
		rep.Table1 = append(rep.Table1, table1Row(r))
	}
	return rep
}

// WriteJSON renders the report as indented JSON with a trailing newline.
func (r *BenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
