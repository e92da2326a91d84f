package rules

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ocas/internal/memory"
	"ocas/internal/ocal"
)

// searchFingerprint flattens a search result into a comparable form: the
// alpha-canonical program and the derivation chain, in discovery order.
func searchFingerprint(ds []Derivation) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		key := AlphaKey(d.Expr)
		for _, s := range d.Steps {
			key += " <- " + s
		}
		out[i] = key
	}
	return out
}

func sameFingerprint(t *testing.T, a, b []Derivation, what string) {
	t.Helper()
	fa, fb := searchFingerprint(a), searchFingerprint(b)
	if len(fa) != len(fb) {
		t.Fatalf("%s: %d vs %d derivations", what, len(fa), len(fb))
	}
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatalf("%s: derivation %d differs:\n  %s\n  %s", what, i, fa[i], fb[i])
		}
	}
}

// TestExhaustiveParallelMatchesSequential is the core determinism guarantee
// of the parallel search: any worker count visits the same programs in the
// same order with the same derivations as a single worker.
func TestExhaustiveParallelMatchesSequential(t *testing.T) {
	for _, prog := range []ocal.Expr{naiveJoin(), naiveSort()} {
		seqDs, seqStats := Search(context.Background(), prog, AllRules(), testContext(), 5, 3000, 1)
		for _, workers := range []int{2, 4, 16} {
			parDs, parStats := Search(context.Background(), prog, AllRules(), testContext(), 5, 3000, workers)
			if !reflect.DeepEqual(parStats, seqStats) {
				t.Fatalf("workers=%d: stats %+v != sequential %+v", workers, parStats, seqStats)
			}
			sameFingerprint(t, seqDs, parDs, "exhaustive")
		}
	}
}

// TestExhaustiveIdenticalPrograms goes further than alpha-equivalence: the
// concrete fresh names must also be scheduling-independent, so repeated
// parallel runs print byte-identical programs.
func TestExhaustiveIdenticalPrograms(t *testing.T) {
	a, _ := Search(context.Background(), naiveJoin(), AllRules(), testContext(), 4, 2000, 8)
	b, _ := Search(context.Background(), naiveJoin(), AllRules(), testContext(), 4, 2000, 3)
	if len(a) != len(b) {
		t.Fatalf("space sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if ocal.String(a[i].Expr) != ocal.String(b[i].Expr) {
			t.Fatalf("program %d differs between runs:\n  %s\n  %s",
				i, ocal.String(a[i].Expr), ocal.String(b[i].Expr))
		}
	}
}

// TestTruncationParity: hitting maxSpace must cut the space at the same
// program regardless of worker count.
func TestTruncationParity(t *testing.T) {
	seqDs, seqStats := Search(context.Background(), naiveJoin(), AllRules(), testContext(), 6, 60, 1)
	if !seqStats.Truncated {
		t.Fatalf("expected truncation at maxSpace=60, got %+v", seqStats)
	}
	parDs, parStats := Search(context.Background(), naiveJoin(), AllRules(), testContext(), 6, 60, 7)
	if !reflect.DeepEqual(parStats, seqStats) {
		t.Fatalf("stats %+v != sequential %+v", parStats, seqStats)
	}
	sameFingerprint(t, seqDs, parDs, "truncated")
}

// TestParallelSearchRace exercises the worker pool with more workers than
// frontier items and a deep search; it exists to run under `go test -race`,
// where any unsynchronized access to the shared Context or dedup state
// would be reported.
func TestParallelSearchRace(t *testing.T) {
	c := testContext()
	ds, stats := Search(context.Background(), naiveJoin(), AllRules(), c, 6, 4000, 32)
	if stats.SpaceSize != len(ds) {
		t.Fatalf("SpaceSize %d != %d derivations", stats.SpaceSize, len(ds))
	}
	if len(ds) < 60 {
		t.Fatalf("suspiciously small space: %d", len(ds))
	}
}

// TestSearchDeterministicAcrossDevices: with the inputs on two devices, a
// lambda-bound list (a hash partition) resolves to one device, the
// intermediate, so seq-ac's gate and with it the space do not depend on map
// iteration order. Repeated searches at one and four workers find the same
// members by the same derivations.
func TestSearchDeterministicAcrossDevices(t *testing.T) {
	var want string
	for run := 0; run < 16; run++ {
		for _, workers := range []int{1, 4} {
			// Intermediate "hdd" is cost.Intermediate of this placement.
			c := &Context{H: memory.TwoHDD(8 * memory.MiB),
				InputLoc:     map[string]string{"R": "hdd", "S": "hdd2"},
				Intermediate: "hdd", Commutative: true}
			ds, _ := Search(context.Background(), naiveJoin(), AllRules(), c, 6, 2000, workers)
			var b strings.Builder
			for _, d := range ds {
				fmt.Fprintf(&b, "%s\t%s\n", AlphaKey(d.Expr), strings.Join(d.Steps, ","))
			}
			if run == 0 && workers == 1 {
				want = b.String()
			} else if got := b.String(); got != want {
				t.Fatalf("run %d at %d workers found another space (%d members)", run, workers, len(ds))
			}
		}
	}
}
