package core_test

import (
	"context"
	"strings"
	"testing"
)

// benchSpaceTotal is the number of members the seven benchmark shapes'
// spaces hold together, every one of them costed (search.golden.json pins
// the spaces).
const benchSpaceTotal = 748

// TestReplayCompilesOncePerMember: a captured run screens into its Replay's
// formula cache, so the Replay leaves the run holding exactly one compiled
// program per costed member, and instantiating it at every ladder point
// neither replaces one nor adds one — the run's own tuning and every later
// hit take the program screening compiled. Over the seven benchmark shapes
// that is one program per member of a cold cycle (748), where the tuning
// of each shortlist used to compile its members a second time.
func TestReplayCompilesOncePerMember(t *testing.T) {
	ctx := context.Background()
	total := 0
	for _, c := range minimizeCases(t) {
		if !strings.HasPrefix(c.name, "bench-") {
			continue
		}
		_, replay, err := c.synth.SynthesizeCapture(ctx, c.task)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if replay == nil {
			t.Fatalf("%s: no replay captured", c.name)
		}
		progs, costed := replay.Programs()
		if len(progs) != len(costed) {
			t.Fatalf("%s: %d programs for a space of %d", c.name, len(progs), len(costed))
		}
		for i, p := range progs {
			if (p != nil) != costed[i] {
				t.Errorf("%s member %d: costed %v, compiled program %v", c.name, i, costed[i], p != nil)
			}
			if p != nil {
				total++
			}
		}
		for _, rows := range ladderPoints(c.task.InputRows) {
			task := c.task
			task.InputRows = rows
			if _, err := replay.Instantiate(ctx, c.synth, task); err != nil {
				t.Fatalf("%s at %s: %v", c.name, formatInts(rows), err)
			}
			after, _ := replay.Programs()
			for i := range progs {
				if after[i] != progs[i] {
					t.Fatalf("%s at %s: member %d's program was replaced", c.name, formatInts(rows), i)
				}
			}
		}
	}
	if total != benchSpaceTotal {
		t.Errorf("the seven benchmark shapes hold %d compiled programs, want one per member: %d", total, benchSpaceTotal)
	}
}
