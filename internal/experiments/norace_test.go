//go:build !race

package experiments

import "testing"

// skipAtScaleUnderRace skips a shrink-1 gate under the race detector only
// (see race_test.go).
func skipAtScaleUnderRace(t *testing.T) {}
