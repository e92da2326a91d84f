package rules

import (
	"testing"

	"ocas/internal/interp"
	"ocas/internal/ocal"
)

func TestSubstReplacesFreeOnly(t *testing.T) {
	// x free here, but bound inside the inner lambda: only the free
	// occurrence may be replaced.
	e := ocal.MustParse(`x + (\x -> x + 1)(5)`)
	out := Subst(e, map[string]ocal.Expr{"x": ocal.IntLit{V: 10}})
	got, err := interp.Eval(out, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ocal.ValueEq(got, ocal.Int(16)) {
		t.Errorf("got %s want 16 (capture bug?)", got)
	}
}

func TestSubstUnderFor(t *testing.T) {
	// The loop variable shadows the substitution inside the body; the
	// source is substituted.
	e := ocal.MustParse(`for (x <- L) [x]`)
	out := Subst(e, map[string]ocal.Expr{
		"L": ocal.MustParse(`[1] ++ [2]`),
		"x": ocal.IntLit{V: 99}, // must NOT replace the bound x
	})
	got, err := interp.Eval(out, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := ocal.List{ocal.Int(1), ocal.Int(2)}
	if !ocal.ValueEq(got, want) {
		t.Errorf("got %s want %s", got, want)
	}
}

func TestAlphaKeyIdentifiesRenamedPrograms(t *testing.T) {
	a := ocal.MustParse(`for (u [ka] <- R) for (x <- u) [x]`)
	b := ocal.MustParse(`for (w [kb] <- R) for (y <- w) [y]`)
	if AlphaKey(a) != AlphaKey(b) {
		t.Errorf("alpha-equivalent programs must share a key:\n %s\n %s",
			AlphaKey(a), AlphaKey(b))
	}
	// Different structure must differ.
	c := ocal.MustParse(`for (w <- R) [w]`)
	if AlphaKey(a) == AlphaKey(c) {
		t.Error("structurally different programs collided")
	}
	// Free variables are NOT renamed (inputs must stay identifiable).
	d := ocal.MustParse(`for (u [ka] <- S) for (x <- u) [x]`)
	if AlphaKey(a) == AlphaKey(d) {
		t.Error("programs over different inputs collided")
	}
}

func TestStepIsPure(t *testing.T) {
	// Applying Step twice to the same program yields the same rewrites
	// modulo fresh-name counters (checked via alphaKey).
	c1, c2 := testContext(), testContext()
	r1 := Step(naiveJoin(), AllRules(), c1)
	r2 := Step(naiveJoin(), AllRules(), c2)
	if len(r1) != len(r2) {
		t.Fatalf("non-deterministic rewrite count: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if AlphaKey(r1[i].Expr) != AlphaKey(r2[i].Expr) || r1[i].Rule != r2[i].Rule {
			t.Fatalf("rewrite %d differs across runs", i)
		}
	}
}
