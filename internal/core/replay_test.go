package core_test

import (
	"context"
	"strings"
	"testing"

	"ocas/internal/cost"
)

// benchSpaceTotal is the number of members the seven benchmark shapes'
// spaces hold together, every one of them costed (search.golden.json pins
// the spaces), and benchShapeTotal the number of formula shapes among them:
// members whose compiled programs differ only in parameter names.
const (
	benchSpaceTotal = 748
	benchShapeTotal = 535
)

// TestReplayCompilesOncePerShape: a captured run screens into its Replay's
// formula cache, which holds one compiled program per formula shape. Every
// costed member has a program, the members of one shape share one pointer,
// no two shapes' programs are equal up to parameter names, and instantiating
// the replay at every ladder point neither replaces a program nor adds one.
// The cache used to hold one program per costed member (748 over the seven
// benchmark shapes); it holds one per shape on purpose, so that screening
// and tuning run once per shape.
func TestReplayCompilesOncePerShape(t *testing.T) {
	ctx := context.Background()
	members, shapes := 0, 0
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
		var distinct []*cost.CompiledFormulas
		for i, p := range progs {
			if (p != nil) != costed[i] {
				t.Errorf("%s member %d: costed %v, compiled program %v", c.name, i, costed[i], p != nil)
			}
			if p == nil {
				continue
			}
			members++
			known := false
			for _, q := range distinct {
				if p == q {
					known = true
				} else if p.SameShape(q) {
					t.Errorf("%s member %d: two programs of one shape", c.name, i)
				}
			}
			if !known {
				distinct = append(distinct, p)
			}
		}
		shapes += len(distinct)
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
	if members != benchSpaceTotal || shapes != benchShapeTotal {
		t.Errorf("the seven benchmark shapes hold %d costed members in %d formula shapes, want %d in %d",
			members, shapes, benchSpaceTotal, benchShapeTotal)
	}
}
