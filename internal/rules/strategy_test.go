package rules

import (
	"context"
	"reflect"
	"testing"

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
		seqDs, seqStats := Exhaustive{Workers: 1}.Search(context.Background(), prog, AllRules(), testContext(), 5, 3000)
		for _, workers := range []int{2, 4, 16} {
			parDs, parStats := Exhaustive{Workers: workers}.Search(context.Background(), prog, AllRules(), testContext(), 5, 3000)
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
	a, _ := Exhaustive{Workers: 8}.Search(context.Background(), naiveJoin(), AllRules(), testContext(), 4, 2000)
	b, _ := Exhaustive{Workers: 3}.Search(context.Background(), naiveJoin(), AllRules(), testContext(), 4, 2000)
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
	seqDs, seqStats := Exhaustive{Workers: 1}.Search(context.Background(), naiveJoin(), AllRules(), testContext(), 6, 60)
	if !seqStats.Truncated {
		t.Fatalf("expected truncation at maxSpace=60, got %+v", seqStats)
	}
	parDs, parStats := Exhaustive{Workers: 7}.Search(context.Background(), naiveJoin(), AllRules(), testContext(), 6, 60)
	if !reflect.DeepEqual(parStats, seqStats) {
		t.Fatalf("stats %+v != sequential %+v", parStats, seqStats)
	}
	sameFingerprint(t, seqDs, parDs, "truncated")
}

// TestBeamBoundsFrontier: the beam must discover a subset of the exhaustive
// space (every beam derivation is reachable), still include the start
// program, and never grow past the exhaustive size.
func TestBeamBoundsFrontier(t *testing.T) {
	full, fullStats := Exhaustive{}.Search(context.Background(), naiveJoin(), AllRules(), testContext(), 5, 5000)
	inFull := map[string]bool{}
	for _, d := range full {
		inFull[AlphaKey(d.Expr)] = true
	}
	beam, beamStats := Beam{Width: 8}.Search(context.Background(), naiveJoin(), AllRules(), testContext(), 5, 5000)
	if beamStats.SpaceSize > fullStats.SpaceSize {
		t.Fatalf("beam explored more than exhaustive: %d > %d",
			beamStats.SpaceSize, fullStats.SpaceSize)
	}
	if beamStats.SpaceSize != len(beam) {
		t.Fatalf("SpaceSize %d != %d derivations", beamStats.SpaceSize, len(beam))
	}
	if AlphaKey(beam[0].Expr) != AlphaKey(naiveJoin()) {
		t.Fatal("beam must keep the start program as candidate 0")
	}
	for _, d := range beam {
		if !inFull[AlphaKey(d.Expr)] {
			t.Fatalf("beam invented a program not in the exhaustive space: %s",
				ocal.String(d.Expr))
		}
	}
}

// TestBeamWideEqualsExhaustive: a beam wider than any frontier degenerates
// to the exhaustive search.
func TestBeamWideEqualsExhaustive(t *testing.T) {
	full, fullStats := Exhaustive{}.Search(context.Background(), naiveJoin(), AllRules(), testContext(), 4, 3000)
	beam, beamStats := Beam{Width: 1 << 20}.Search(context.Background(), naiveJoin(), AllRules(), testContext(), 4, 3000)
	if !reflect.DeepEqual(beamStats, fullStats) {
		t.Fatalf("stats %+v != %+v", beamStats, fullStats)
	}
	sameFingerprint(t, full, beam, "wide beam")
}

// TestBeamDeterministic: same call twice, same result (rank ties are broken
// by discovery order, and parallel ranking must not reorder).
func TestBeamDeterministic(t *testing.T) {
	a, as := Beam{Width: 6, Workers: 8}.Search(context.Background(), naiveJoin(), AllRules(), testContext(), 5, 3000)
	b, bs := Beam{Width: 6, Workers: 2}.Search(context.Background(), naiveJoin(), AllRules(), testContext(), 5, 3000)
	if !reflect.DeepEqual(as, bs) {
		t.Fatalf("stats %+v != %+v", as, bs)
	}
	sameFingerprint(t, a, b, "beam determinism")
}

// TestParallelSearchRace exercises the worker pool with more workers than
// frontier items and a deep search; it exists to run under `go test -race`,
// where any unsynchronized access to the shared Context or dedup state
// would be reported.
func TestParallelSearchRace(t *testing.T) {
	c := testContext()
	ds, stats := Exhaustive{Workers: 32}.Search(context.Background(), naiveJoin(), AllRules(), c, 6, 4000)
	if stats.SpaceSize != len(ds) {
		t.Fatalf("SpaceSize %d != %d derivations", stats.SpaceSize, len(ds))
	}
	if len(ds) < 100 {
		t.Fatalf("suspiciously small space: %d", len(ds))
	}
}
