package experiments

import "testing"

func TestBenchReportCalibration(t *testing.T) {
	rep := NewBenchReport(Config{Shrink: 8}, []*Result{{
		Name: "r", SpecSecs: 100, OptSecs: 10, ActSecs: 8,
		SynthSecs: 0.5, ExecSecs: 0.25,
	}})
	if len(rep.Table1) != 1 {
		t.Fatal("row missing")
	}
	row := rep.Table1[0]
	if row.EstOverAct != 1.25 {
		t.Errorf("estOverAct = %v want 1.25", row.EstOverAct)
	}
	if row.Speedup != 10 {
		t.Errorf("speedup = %v want 10", row.Speedup)
	}
	if row.SynthSecs != 0.5 || row.ExecSecs != 0.25 {
		t.Errorf("wall-clock columns = %v/%v want 0.5/0.25", row.SynthSecs, row.ExecSecs)
	}
	if rep.Schema != "ocas-bench/v10" {
		t.Errorf("schema = %q", rep.Schema)
	}
	if rep.Shrink != 8 {
		t.Errorf("config block = shrink %d", rep.Shrink)
	}
	if rep.Meta.GoVersion == "" || rep.Meta.GOMAXPROCS < 1 {
		t.Errorf("meta block not populated: %+v", rep.Meta)
	}
	if rep.Meta.GeneratedAt != "" {
		t.Errorf("library must not stamp generatedAt (got %q)", rep.Meta.GeneratedAt)
	}
}
