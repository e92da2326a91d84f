package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestTable1Smoke runs every row at a reduced scale and checks the paper's
// qualitative claims: the optimized estimate always beats the naive spec,
// and the measured time is within a sane band of the estimate.
func TestTable1Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("table 1 is slow")
	}
	var buf bytes.Buffer
	results, err := RunTable1(Config{Shrink: 8}, &buf)
	if err != nil {
		t.Fatalf("table1: %v\n%s", err, buf.String())
	}
	if len(results) != 16 {
		t.Fatalf("expected 16 rows, got %d", len(results))
	}
	for _, r := range results {
		if r.OptSecs > r.SpecSecs*1.0001 {
			t.Errorf("%s: optimized estimate (%v) worse than spec (%v)", r.Name, r.OptSecs, r.SpecSecs)
		}
		if r.ActSecs <= 0 {
			t.Errorf("%s: no simulated time measured", r.Name)
		}
		if r.SpaceSize < 1 || r.SynthSecs < 0 {
			t.Errorf("%s: bogus synthesis stats", r.Name)
		}
		if r.ExecSecs <= 0 {
			t.Errorf("%s: executor wall-clock not measured", r.Name)
		}
		// The rows run through plan.RunBound like every other plan, so they
		// carry its full report.
		if r.Exec == nil || r.Exec.OutDigest == "" || r.Exec.Pool.Pins == 0 || len(r.Exec.Devices) == 0 {
			t.Errorf("%s: no execution report (digest, pool stats, ledgers): %+v", r.Name, r.Exec)
		}
		// Estimates and measurements must agree within two orders of
		// magnitude (the paper's own Table 1 has up to ~2x deviations; we
		// allow wide slack because of CPU modelling).
		ratio := r.ActSecs / r.OptSecs
		if ratio < 0.005 || ratio > 200 {
			t.Errorf("%s: act/opt ratio out of band: %v (opt %v act %v)",
				r.Name, ratio, r.OptSecs, r.ActSecs)
		}
	}
	// Qualitative orderings from the paper.
	byName := map[string]*Result{}
	for _, r := range results {
		byName[r.Name] = r
	}
	if g := byName["grace-hash-join"]; g != nil {
		if !strings.Contains(g.Program, "partition[") {
			t.Errorf("GRACE row did not synthesize a hash join: %s", g.Program)
		}
	}
	if same, other := byName["bnl-write-same-hdd"], byName["bnl-write-other-hdd"]; same != nil && other != nil {
		if other.ActSecs >= same.ActSecs {
			t.Errorf("write to other HDD (%v) should beat same HDD (%v)", other.ActSecs, same.ActSecs)
		}
		if other.OptSecs >= same.OptSecs {
			t.Errorf("estimates must also rank other-HDD faster: %v vs %v", other.OptSecs, same.OptSecs)
		}
	}
	if flash, other := byName["bnl-write-flash"], byName["bnl-write-other-hdd"]; flash != nil && other != nil {
		if flash.ActSecs >= other.ActSecs {
			t.Errorf("flash write-out (%v) should beat second HDD (%v)", flash.ActSecs, other.ActSecs)
		}
	}
	if srt := byName["external-sort"]; srt != nil {
		if !strings.Contains(srt.Program, "treeFold[") {
			t.Errorf("sort row did not synthesize external merge sort: %s", srt.Program)
		}
		if srt.SpecSecs/srt.OptSecs < 10 {
			t.Errorf("merge sort should beat insertion sort clearly: spec %v opt %v",
				srt.SpecSecs, srt.OptSecs)
		}
	}
}
