//go:build race

package experiments

import "testing"

// skipAtScaleUnderRace skips a shrink-1 gate under the race detector. There
// Table 1 and Figure 8 at the paper's sizes take 31 s and peak at 1.0 GB
// (3.4 s and 365 MB without it, 2-core host), and the same code already
// runs under it at shrink 8. CI's bench job runs them without -race.
func skipAtScaleUnderRace(t *testing.T) {
	t.Skip("the shrink-1 gates run without -race")
}
