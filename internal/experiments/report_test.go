package experiments

import (
	"strings"
	"testing"
)

func benchFixture(synth, exec float64) *BenchReport {
	return &BenchReport{
		Schema: BenchSchema, Meta: BenchMeta{GOMAXPROCS: 1}, Shrink: 8, Strategy: "exhaustive",
		TotalSynthSecs: synth, TotalExecSecs: exec,
	}
}

func TestCompareBaselineGatesExecClock(t *testing.T) {
	base := benchFixture(1.0, 2.0)
	if err := CompareBaseline(benchFixture(1.1, 2.1), base, 30); err != nil {
		t.Errorf("within-limit run must pass: %v", err)
	}
	err := CompareBaseline(benchFixture(1.0, 3.0), base, 30)
	if err == nil || !strings.Contains(err.Error(), "executor wall-clock") {
		t.Errorf("exec regression must fail the gate, got %v", err)
	}
	err = CompareBaseline(benchFixture(2.0, 2.0), base, 30)
	if err == nil || !strings.Contains(err.Error(), "synthesis wall-clock") {
		t.Errorf("synth regression must fail the gate, got %v", err)
	}
	// A baseline without executor columns only gates synthesis.
	if err := CompareBaseline(benchFixture(1.0, 99.0), benchFixture(1.0, 0), 30); err != nil {
		t.Errorf("pre-executor baseline must skip the exec gate: %v", err)
	}
}

func TestBenchReportCalibration(t *testing.T) {
	rep := NewBenchReport(Config{Shrink: 8}, []*Result{{
		Name: "r", SpecSecs: 100, OptSecs: 10, ActSecs: 8,
		SynthSecs: 0.5, ExecSecs: 0.25,
	}}, []*Result{
		{Name: "hashjoin", ExecSecs: 1.5, ExecWorkers: 1},
		{Name: "hashjoin", ExecSecs: 0.5, ExecWorkers: 4},
	}, []*IngestResult{
		{Name: "hashjoin", Rows: 1000, Segments: 4, IngestSecs: 0.5, ScanSecs: 0.2, ActSecs: 8},
	}, []*ColumnarResult{
		{Name: "durablescan", ActSecs: 8, ExecSecs: 0.3, AllocsPerOp: 0.01, BytesPerOp: 2.5},
	})
	if len(rep.Table1) != 1 {
		t.Fatal("row missing")
	}
	row := rep.Table1[0]
	if row.EstOverAct != 1.25 {
		t.Errorf("estOverAct = %v want 1.25", row.EstOverAct)
	}
	if rep.TotalExecSecs != 0.25 {
		t.Errorf("totalExecSecs = %v want 0.25", rep.TotalExecSecs)
	}
	if rep.Schema != "ocas-bench/v8" {
		t.Errorf("schema = %q", rep.Schema)
	}
	if rep.Meta.GoVersion == "" || rep.Meta.GOMAXPROCS < 1 {
		t.Errorf("meta block not populated: %+v", rep.Meta)
	}
	if rep.Meta.GeneratedAt != "" {
		t.Errorf("library must not stamp generatedAt (got %q)", rep.Meta.GeneratedAt)
	}
	if len(rep.ExecParallel) != 2 || rep.ExecParallel[1].ExecWorkers != 4 {
		t.Fatalf("execParallel rows wrong: %+v", rep.ExecParallel)
	}
	if rep.TotalExecParSecs != 2.0 {
		t.Errorf("totalExecParSecs = %v want 2", rep.TotalExecParSecs)
	}
	if rep.Table1[0].ExecWorkers != 1 {
		t.Errorf("table1 rows default to one worker, got %d", rep.Table1[0].ExecWorkers)
	}
	if len(rep.Ingest) != 1 || rep.Ingest[0].RowsPerSec != 2000 {
		t.Fatalf("ingest rows wrong: %+v", rep.Ingest)
	}
	if len(rep.Columnar) != 1 || rep.Columnar[0].ExecSecs != 0.3 || rep.Columnar[0].AllocsPerOp != 0.01 || rep.Columnar[0].BytesPerOp != 2.5 {
		t.Fatalf("columnar rows wrong: %+v", rep.Columnar)
	}
	if rep.TotalColumnarExecSecs != 0.3 {
		t.Errorf("totalColumnarExecSecs = %v want 0.3", rep.TotalColumnarExecSecs)
	}
}

func TestCompareBaselineGatesColumnarClock(t *testing.T) {
	mk := func(colSecs float64) *BenchReport {
		r := benchFixture(1.0, 2.0)
		r.TotalColumnarExecSecs = colSecs
		return r
	}
	if err := CompareBaseline(mk(1.1), mk(1.0), 30); err != nil {
		t.Errorf("within-limit columnar clock must pass: %v", err)
	}
	err := CompareBaseline(mk(2.0), mk(1.0), 30)
	if err == nil || !strings.Contains(err.Error(), "columnar-executor") {
		t.Errorf("columnar regression must gate, got %v", err)
	}
	// Runs or baselines without -columnar skip the check.
	if err := CompareBaseline(mk(99.0), mk(0), 30); err != nil {
		t.Errorf("pre-columnar baseline must skip the gate: %v", err)
	}
	if err := CompareBaseline(mk(0), mk(1.0), 30); err != nil {
		t.Errorf("columnar-less run against a columnar baseline must skip the gate: %v", err)
	}
}

func TestBenchReportTemplateWarm(t *testing.T) {
	rep := NewBenchReport(Config{Shrink: 8, Templates: true}, []*Result{
		{Name: "a", SynthSecs: 0.5, TemplateWarmSecs: 0.01},
		{Name: "b", SynthSecs: 0.5, TemplateWarmSecs: 0.02},
	}, nil, nil, nil)
	if rep.TotalTemplateWarmSecs != 0.03 {
		t.Errorf("totalTemplateWarmSecs = %v want 0.03", rep.TotalTemplateWarmSecs)
	}
	if rep.Table1[0].TemplateWarmSecs != 0.01 {
		t.Errorf("row templateWarmSecs = %v want 0.01", rep.Table1[0].TemplateWarmSecs)
	}
}

func TestCompareBaselineGatesTemplateWarmClock(t *testing.T) {
	mk := func(warm float64) *BenchReport {
		r := benchFixture(1.0, 2.0)
		r.TotalTemplateWarmSecs = warm
		return r
	}
	if err := CompareBaseline(mk(1.1), mk(1.0), 30); err != nil {
		t.Errorf("within-limit warm clock must pass: %v", err)
	}
	err := CompareBaseline(mk(2.0), mk(1.0), 30)
	if err == nil || !strings.Contains(err.Error(), "template warm-instantiation") {
		t.Errorf("template-warm regression must gate, got %v", err)
	}
	// Runs or baselines without -templates skip the check.
	if err := CompareBaseline(mk(99.0), mk(0), 30); err != nil {
		t.Errorf("pre-template baseline must skip the gate: %v", err)
	}
	if err := CompareBaseline(mk(0), mk(1.0), 30); err != nil {
		t.Errorf("template-less run against a template baseline must skip the gate: %v", err)
	}
}

func TestCompareBaselineGatesExecParClock(t *testing.T) {
	mk := func(par float64) *BenchReport {
		r := benchFixture(1.0, 2.0)
		r.TotalExecParSecs = par
		return r
	}
	if err := CompareBaseline(mk(1.1), mk(1.0), 30); err != nil {
		t.Errorf("within-limit parallel clock must pass: %v", err)
	}
	if err := CompareBaseline(mk(2.0), mk(1.0), 30); err == nil {
		t.Error("parallel-executor regression must gate")
	}
	// A baseline without parallel rows skips the check.
	if err := CompareBaseline(mk(99.0), mk(0), 30); err != nil {
		t.Errorf("pre-parallel baseline must skip the gate: %v", err)
	}
}
