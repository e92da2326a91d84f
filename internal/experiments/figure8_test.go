package experiments

import (
	"io"
	"testing"

	"ocas/internal/memory"
)

// fig8OpenAtScale lists the Figure 8 points exempt from the est/act band
// at shrink 1, by workload and label, each with its open cause (ROADMAP.md
// item 1). At shrink 8 none is. The list may only shrink.
var fig8OpenAtScale = map[string]string{
	"Merge-sort 4G/32K": estActOpenAtScale["external-sort"],
	"Merge-sort 8G/64K": estActOpenAtScale["external-sort"],
}

// TestFigure8Trends runs Figure 8 at a reduced scale (shrink 8) and at the
// paper's (shrink 1).
func TestFigure8Trends(t *testing.T) {
	if testing.Short() {
		t.Skip("figure 8 is slow")
	}
	t.Run("shrink=8", func(t *testing.T) { checkFigure8(t, 8, nil) })
	t.Run("shrink=1", func(t *testing.T) {
		skipAtScaleUnderRace(t)
		checkFigure8(t, 1, fig8OpenAtScale)
	})
}

// checkFigure8 runs Figure 8 at one shrink and checks it, exempting the
// points in open from the est/act band.
func checkFigure8(t *testing.T, shrink int64, open map[string]string) {
	pts, err := RunFigure8(Config{Shrink: shrink}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 9 {
		t.Fatalf("expected 9 points, got %d", len(pts))
	}
	for _, p := range pts {
		if p.Estimated <= 0 || p.Measured <= 0 {
			t.Errorf("%s %s: non-positive time", p.Workload, p.Label)
		}
		ratio := p.Estimated / p.Measured
		// The paper's Figure 8 estimates track measurements closely.
		_, exempt := open[p.Workload+" "+p.Label]
		if inBand := ratio >= 0.85 && ratio <= 1.10; !exempt && !inBand {
			t.Errorf("%s %s: est/act = %v out of band (est %v act %v)",
				p.Workload, p.Label, ratio, p.Estimated, p.Measured)
		} else if exempt && inBand {
			t.Errorf("%s %s: est/act = %v is in band: drop its exemption", p.Workload, p.Label, ratio)
		}
	}
	// Measured time grows with input size within each panel.
	byWorkload := map[string][]Figure8Point{}
	for _, p := range pts {
		byWorkload[p.Workload] = append(byWorkload[p.Workload], p)
	}
	for w, series := range byWorkload {
		if series[len(series)-1].Measured <= series[0].Measured {
			t.Errorf("%s: measured time should grow with input size: %v .. %v",
				w, series[0].Measured, series[len(series)-1].Measured)
		}
	}
}

func TestCacheMissReduction(t *testing.T) {
	if testing.Short() {
		t.Skip("cache study is slow")
	}
	r, err := RunCacheStudy(Config{Shrink: 8})
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports 98.2% fewer data-cache misses from loop tiling.
	if r.MissReduction < 0.9 {
		t.Errorf("tiling should remove >90%% of cache misses, got %.1f%%", 100*r.MissReduction)
	}
	// ... while execution time stays in the same ballpark (I/O bound).
	ratio := r.TiledSecs / r.UntiledSecs
	if ratio < 0.3 || ratio > 3 {
		t.Errorf("tiled/untiled wall time ratio %v should be near 1 (I/O bound)", ratio)
	}
}

// TestAccuracyTrend runs the Section 7.3 study at a reduced scale (shrink
// 8) and at the paper's (shrink 1).
func TestAccuracyTrend(t *testing.T) {
	if testing.Short() {
		t.Skip("accuracy study is slow")
	}
	t.Run("shrink=8", func(t *testing.T) { checkAccuracy(t, 8) })
	t.Run("shrink=1", func(t *testing.T) {
		skipAtScaleUnderRace(t)
		checkAccuracy(t, 1)
	})
}

// checkAccuracy runs the accuracy study at one shrink and checks it. The
// estimate's growth is the designed worst-case output sizing, so each
// point's est/act must be within 5% of what that design predicts from its
// ledgers, and no point below selectivity 1 may be underestimated. At
// shrink 8, every est/act is also at most 1.15.
func checkAccuracy(t *testing.T, shrink int64) {
	pts, err := AccuracyStudy(Config{Shrink: shrink})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 3 {
		t.Fatalf("expected 3 selectivity points, got %d", len(pts))
	}
	// Points are ordered from selectivity 100% (product) downward; the
	// overestimation factor must grow as selectivity drops (worst-case
	// output sizing), with the product estimated most accurately.
	for i := 1; i < len(pts); i++ {
		if pts[i].Selectivity >= pts[i-1].Selectivity {
			t.Fatalf("selectivities not decreasing: %+v", pts)
		}
		if pts[i].EstOverAct < pts[i-1].EstOverAct {
			t.Errorf("overestimation should grow as selectivity drops: %+v", pts)
		}
	}
	if e := pts[0].EstOverAct; e < 0.95 || e > 1.05 {
		t.Errorf("the 100%%-selectivity estimate should be close: est/act = %v", e)
	}
	for _, p := range pts {
		pred := worstCaseEstOverAct(p)
		t.Logf("selectivity %.4g: est/act %.4f, predicted %.4f (ratio %.4f)", p.Selectivity, p.EstOverAct, pred, p.EstOverAct/pred)
		if shrink > 1 && p.EstOverAct > 1.15 {
			t.Errorf("selectivity %v: est/act %v above 1.15", p.Selectivity, p.EstOverAct)
		}
		if r := p.EstOverAct / pred; r < 0.95 || r > 1.05 {
			t.Errorf("selectivity %v: est/act %v is %.4f of the worst-case output prediction %v", p.Selectivity, p.EstOverAct, r, pred)
		}
		if p.Selectivity < 1 && p.EstOverAct < 1 {
			t.Errorf("selectivity %v: est/act %v underestimates", p.Selectivity, p.EstOverAct)
		}
	}
}

// worstCaseEstOverAct is the est/act that worst-case output sizing predicts
// for a point: the estimate reads the inputs (hdd) as the run did and
// writes the output (hdd2) with the run's initiations but 1/selectivity
// times its bytes; the run wrote its actual bytes.
func worstCaseEstOverAct(p AccuracyPoint) float64 {
	in, out := p.Devices["hdd"], p.Devices["hdd2"]
	reads := float64(in.ReadInits)*memory.HDDSeek + float64(in.BytesRead)*memory.HDDUnitTr
	inits := float64(out.WriteInits) * memory.HDDSeek
	bytes := float64(out.BytesWrite) * memory.HDDUnitTr
	return (reads + inits + bytes/p.Selectivity) / (reads + inits + bytes)
}
