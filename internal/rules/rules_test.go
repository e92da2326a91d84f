package rules

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"ocas/internal/interp"
	"ocas/internal/memory"
	"ocas/internal/ocal"
)

func testContext() *Context {
	return &Context{
		H:            memory.HDDRAM(32 * memory.MiB),
		InputLoc:     map[string]string{"R": "hdd", "S": "hdd"},
		Intermediate: "hdd",
		Commutative:  true,
	}
}

func naiveJoin() ocal.Expr {
	cond := ocal.Prim{Op: ocal.OpEq, Args: []ocal.Expr{
		ocal.Proj{E: ocal.Var{Name: "x"}, I: 1}, ocal.Proj{E: ocal.Var{Name: "y"}, I: 1}}}
	body := ocal.If{Cond: cond,
		Then: ocal.Single{E: ocal.Tup{Elems: []ocal.Expr{ocal.Var{Name: "x"}, ocal.Var{Name: "y"}}}},
		Else: ocal.Empty{}}
	return ocal.For{X: "x", Src: ocal.Var{Name: "R"},
		Body: ocal.For{X: "y", Src: ocal.Var{Name: "S"}, Body: body}}
}

func naiveSort() ocal.Expr {
	return ocal.App{Fn: ocal.FoldL{Init: ocal.Empty{}, Fn: ocal.UnfoldR{Fn: ocal.Mrg{}}},
		Arg: ocal.Var{Name: "R"}}
}

func randRel(r *rand.Rand, n int) ocal.List {
	l := make(ocal.List, n)
	for i := range l {
		l[i] = ocal.Tuple{ocal.Int(int64(r.Intn(6))), ocal.Int(int64(r.Intn(50)))}
	}
	return l
}

func randParams(r *rand.Rand, e ocal.Expr) map[string]int64 {
	out := map[string]int64{}
	for _, p := range ocal.Params(e) {
		out[p] = int64(r.Intn(5) + 1)
	}
	return out
}

func multisetEq(a, b ocal.Value) bool {
	la, ok1 := a.(ocal.List)
	lb, ok2 := b.(ocal.List)
	if !ok1 || !ok2 || len(la) != len(lb) {
		return false
	}
	counts := map[string]int{}
	for _, v := range la {
		counts[v.String()]++
	}
	for _, v := range lb {
		counts[v.String()]--
	}
	for _, c := range counts {
		if c != 0 {
			return false
		}
	}
	return true
}

// checkEquivalent runs both programs on random inputs with random parameter
// bindings and requires multiset-equal results (the paper's rules preserve
// bag semantics; element order may legitimately change under swap-iter and
// hash-part).
func checkEquivalent(t *testing.T, orig, rewritten ocal.Expr, seeds int) {
	t.Helper()
	r := rand.New(rand.NewSource(7))
	for i := 0; i < seeds; i++ {
		in := map[string]ocal.Value{"R": randRel(r, r.Intn(9)), "S": randRel(r, r.Intn(9))}
		a, err := interp.Eval(orig, in, randParams(r, orig))
		if err != nil {
			t.Fatalf("orig eval: %v", err)
		}
		b, err := interp.Eval(rewritten, in, randParams(r, rewritten))
		if err != nil {
			t.Fatalf("rewritten eval (%s): %v", ocal.String(rewritten), err)
		}
		if !multisetEq(a, b) {
			t.Fatalf("rewrite changed semantics:\n  orig:      %s -> %s\n  rewritten: %s -> %s",
				ocal.String(orig), a, ocal.String(rewritten), b)
		}
	}
}

func TestApplyBlockOnNaiveJoin(t *testing.T) {
	c := testContext()
	rws := Step(naiveJoin(), []Rule{ApplyBlock{}}, c)
	if len(rws) != 2 {
		t.Fatalf("expected 2 apply-block positions (R and S), got %d", len(rws))
	}
	for _, rw := range rws {
		checkEquivalent(t, naiveJoin(), rw.Expr, 10)
		if len(ocal.Params(rw.Expr)) != 1 {
			t.Errorf("blocked loop should introduce one parameter: %s", ocal.String(rw.Expr))
		}
	}
}

func TestApplyBlockDoesNotReblock(t *testing.T) {
	c := testContext()
	one := Step(naiveJoin(), []Rule{ApplyBlock{}}, c)[0].Expr
	two := Step(one, []Rule{ApplyBlock{}}, c)
	// Only the remaining relation can be blocked; block variables must not
	// be re-blocked.
	for _, rw := range two {
		three := Step(rw.Expr, []Rule{ApplyBlock{}}, c)
		if len(three) != 0 {
			t.Errorf("expected no further apply-block, got %s", ocal.String(three[0].Expr))
		}
	}
	if len(two) != 1 {
		t.Fatalf("expected exactly 1 further apply-block, got %d", len(two))
	}
	checkEquivalent(t, naiveJoin(), two[0].Expr, 10)
}

func TestSwapIterPlainAndConditional(t *testing.T) {
	c := testContext()
	// Plain: two directly nested loops.
	plain := ocal.For{X: "x", Src: ocal.Var{Name: "R"},
		Body: ocal.For{X: "y", Src: ocal.Var{Name: "S"},
			Body: ocal.Single{E: ocal.Tup{Elems: []ocal.Expr{ocal.Var{Name: "x"}, ocal.Var{Name: "y"}}}}}}
	rws := Step(plain, []Rule{SwapIter{}}, c)
	if len(rws) != 1 {
		t.Fatalf("expected 1 swap, got %d", len(rws))
	}
	checkEquivalent(t, plain, rws[0].Expr, 10)
	// Conditional variant on the naive join body.
	blocked := ocal.For{X: "x", Src: ocal.Var{Name: "R"},
		Body: ocal.If{
			Cond: ocal.Prim{Op: ocal.OpLe, Args: []ocal.Expr{ocal.Proj{E: ocal.Var{Name: "x"}, I: 1}, ocal.IntLit{V: 3}}},
			Then: ocal.For{X: "y", Src: ocal.Var{Name: "S"},
				Body: ocal.Single{E: ocal.Tup{Elems: []ocal.Expr{ocal.Var{Name: "x"}, ocal.Var{Name: "y"}}}}},
			Else: ocal.Empty{}}}
	rws = Step(blocked, []Rule{SwapIter{}}, c)
	if len(rws) != 1 {
		t.Fatalf("expected 1 conditional swap, got %d", len(rws))
	}
	checkEquivalent(t, blocked, rws[0].Expr, 10)
}

func TestSwapIterRespectsDependence(t *testing.T) {
	c := testContext()
	// Inner range depends on the outer variable: no swap allowed.
	dep := ocal.For{X: "x", Src: ocal.Var{Name: "R"},
		Body: ocal.For{X: "y", Src: ocal.Prim{Op: ocal.OpTail, Args: []ocal.Expr{ocal.Prim{Op: ocal.OpConcat, Args: []ocal.Expr{ocal.Single{E: ocal.Var{Name: "x"}}, ocal.Var{Name: "S"}}}}},
			Body: ocal.Single{E: ocal.Var{Name: "y"}}}}
	if rws := Step(dep, []Rule{SwapIter{}}, c); len(rws) != 0 {
		t.Errorf("swap must not apply when inner range depends on outer var")
	}
}

func TestHashPartEquivalence(t *testing.T) {
	c := testContext()
	rws := Step(naiveJoin(), []Rule{HashPart{}}, c)
	if len(rws) != 1 {
		t.Fatalf("expected hash-part to apply once, got %d", len(rws))
	}
	checkEquivalent(t, naiveJoin(), rws[0].Expr, 15)
}

func TestHashPartRequiresEquiJoin(t *testing.T) {
	c := testContext()
	// Inequality join: partitioning by hash would lose results.
	neq := ocal.For{X: "x", Src: ocal.Var{Name: "R"},
		Body: ocal.For{X: "y", Src: ocal.Var{Name: "S"},
			Body: ocal.If{
				Cond: ocal.Prim{Op: ocal.OpLe, Args: []ocal.Expr{
					ocal.Proj{E: ocal.Var{Name: "x"}, I: 1}, ocal.Proj{E: ocal.Var{Name: "y"}, I: 1}}},
				Then: ocal.Single{E: ocal.Tup{Elems: []ocal.Expr{ocal.Var{Name: "x"}, ocal.Var{Name: "y"}}}},
				Else: ocal.Empty{}}}}
	if rws := Step(neq, []Rule{HashPart{}}, c); len(rws) != 0 {
		t.Error("hash-part must not apply to non-equi joins (conservative check)")
	}
}

func TestFldLToTrFldAndIncBranching(t *testing.T) {
	c := testContext()
	c.InputLoc = map[string]string{"R": "hdd"}
	sortSpec := naiveSort()
	rws := Step(sortSpec, []Rule{FldLToTrFld{}}, c)
	if len(rws) != 1 {
		t.Fatalf("fldL-to-trfld should apply once, got %d", len(rws))
	}
	tf := rws[0].Expr
	// Equivalence on sorting (exact, order matters).
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 10; i++ {
		n := r.Intn(12)
		seed := make(ocal.List, n)
		for j := range seed {
			seed[j] = ocal.List{ocal.Int(int64(r.Intn(40)))}
		}
		in := map[string]ocal.Value{"R": seed}
		a, err := interp.Eval(sortSpec, in, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := interp.Eval(tf, in, randParams(r, tf))
		if err != nil {
			t.Fatal(err)
		}
		if !ocal.ValueEq(a, b) {
			t.Fatalf("tree fold changed sort semantics: %s vs %s", a, b)
		}
	}
	// inc-branching chains 2 -> 4 -> 8.
	cur := tf
	for want := 4; want <= 8; want *= 2 {
		rws := Step(cur, []Rule{IncBranching{}}, c)
		if len(rws) != 1 {
			t.Fatalf("inc-branching to %d-way should apply once, got %d", want, len(rws))
		}
		cur = rws[0].Expr
		if !strings.Contains(ocal.String(cur), "treeFold["+itoa(want)+"]") {
			t.Fatalf("expected %d-way treeFold, got %s", want, ocal.String(cur))
		}
	}
	// Semantics preserved at 8-way.
	seed := ocal.List{ocal.List{ocal.Int(5)}, ocal.List{ocal.Int(1)}, ocal.List{ocal.Int(9)},
		ocal.List{ocal.Int(2)}, ocal.List{ocal.Int(2)}}
	a, _ := interp.Eval(sortSpec, map[string]ocal.Value{"R": seed}, nil)
	b, err := interp.Eval(cur, map[string]ocal.Value{"R": seed}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ocal.ValueEq(a, b) {
		t.Fatalf("8-way merge sort wrong: %s vs %s", a, b)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var digits []byte
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}

func TestIncBranchingCapped(t *testing.T) {
	c := testContext()
	c.MaxBranchK = 3
	cur := ocal.TreeFold{K: ocal.Lit(8), Init: ocal.Empty{},
		Fn: ocal.UnfoldR{Fn: ocal.FuncPow{K: 3, Fn: ocal.Mrg{}}}}
	if rws := Step(cur, []Rule{IncBranching{}}, c); len(rws) != 0 {
		t.Error("inc-branching must respect MaxBranchK")
	}
}

func TestSeqACConditions(t *testing.T) {
	c := testContext()
	c.InputLoc = map[string]string{"R": "hdd", "S": "hdd"}
	blocked := ocal.For{X: "xB", K: ocal.SymP("k1"), Src: ocal.Var{Name: "R"},
		Body: ocal.For{X: "x", Src: ocal.Var{Name: "xB"},
			Body: ocal.Single{E: ocal.Var{Name: "x"}}}}
	rws := Step(blocked, []Rule{SeqAC{}}, c)
	if len(rws) != 1 {
		t.Fatalf("seq-ac should annotate the single-scan loop, got %d", len(rws))
	}
	if !strings.Contains(ocal.String(rws[0].Expr), "hdd~>ram") {
		t.Errorf("missing annotation: %s", ocal.String(rws[0].Expr))
	}
	checkEquivalent(t, blocked, rws[0].Expr, 5)

	// Outer loop of a BNL: body streams S from the same disk -> no seq-ac
	// on the outer loop, but the inner loop qualifies.
	bnl := ocal.For{X: "xB", K: ocal.SymP("k1"), Src: ocal.Var{Name: "R"},
		Body: ocal.For{X: "yB", K: ocal.SymP("k2"), Src: ocal.Var{Name: "S"},
			Body: ocal.Single{E: ocal.Var{Name: "yB"}}}}
	rws = Step(bnl, []Rule{SeqAC{}}, c)
	if len(rws) != 1 {
		t.Fatalf("expected exactly the inner loop to qualify, got %d", len(rws))
	}
	inner, ok := rws[0].Expr.(ocal.For)
	if !ok || inner.Seq != nil {
		t.Error("the outer loop must not carry the seq-ac annotation")
	}

	// Output written to the same device: no seq-ac anywhere.
	c.Output = "hdd"
	if rws := Step(blocked, []Rule{SeqAC{}}, c); len(rws) != 0 {
		t.Error("seq-ac must not apply when the output interferes on the device")
	}
}

func TestSearchDedupAndStats(t *testing.T) {
	c := testContext()
	all, stats := Search(context.Background(), naiveJoin(), AllRules(), c, 4, 20000, 0)
	if stats.SpaceSize != len(all) {
		t.Errorf("stats.SpaceSize=%d but %d derivations", stats.SpaceSize, len(all))
	}
	keys := map[string]bool{}
	for _, d := range all {
		k := AlphaKey(d.Expr)
		if keys[k] {
			t.Fatalf("duplicate program in search space: %s", ocal.String(d.Expr))
		}
		keys[k] = true
	}
	if stats.SpaceSize < 10 {
		t.Errorf("suspiciously small search space: %d", stats.SpaceSize)
	}
	if stats.MaxDepth != 4 && !stats.Truncated {
		t.Logf("note: search exhausted at depth %d", stats.MaxDepth)
	}
}

// The headline property: every program in the search space is equivalent to
// the naive specification (multiset semantics) on random inputs.
func TestQuickSearchSpacePreservesSemantics(t *testing.T) {
	c := testContext()
	all, _ := Search(context.Background(), naiveJoin(), AllRules(), c, 3, 400, 0)
	r := rand.New(rand.NewSource(11))
	// The commutativity annotation asserts that the caller accepts either
	// orientation of the input tuple (the paper's BNL examples discard the
	// output); a program in the space is correct when it matches the naive
	// join applied to (R,S) or to (S,R).
	swapped := ocal.For{X: "y", Src: ocal.Var{Name: "S"},
		Body: ocal.For{X: "x", Src: ocal.Var{Name: "R"},
			Body: ocal.If{
				Cond: ocal.Prim{Op: ocal.OpEq, Args: []ocal.Expr{
					ocal.Proj{E: ocal.Var{Name: "y"}, I: 1}, ocal.Proj{E: ocal.Var{Name: "x"}, I: 1}}},
				Then: ocal.Single{E: ocal.Tup{Elems: []ocal.Expr{ocal.Var{Name: "y"}, ocal.Var{Name: "x"}}}},
				Else: ocal.Empty{}}}}
	f := func(seedIdx uint16) bool {
		d := all[int(seedIdx)%len(all)]
		in := map[string]ocal.Value{"R": randRel(r, r.Intn(7)), "S": randRel(r, r.Intn(7))}
		a, err := interp.Eval(naiveJoin(), in, nil)
		if err != nil {
			return false
		}
		a2, err := interp.Eval(swapped, in, nil)
		if err != nil {
			return false
		}
		b, err := interp.Eval(d.Expr, in, randParams(r, d.Expr))
		if err != nil {
			t.Logf("eval failed for %s: %v", ocal.String(d.Expr), err)
			return false
		}
		return multisetEq(a, b) || multisetEq(a2, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestSearchReachesCanonicalBNL(t *testing.T) {
	c := testContext()
	all, _ := Search(context.Background(), naiveJoin(), AllRules(), c, 6, 50000, 0)
	foundBNL := false
	foundHash := false
	for _, d := range all {
		s := AlphaKey(d.Expr)
		// Canonical BNL, either relation outer: two blocked loops with the
		// element loops innermost, seq-ac on the inner relation scan.
		for _, outer := range []string{"R) for (v2 [p2] <- S", "S) for (v2 [p2] <- R"} {
			if strings.HasPrefix(s, "for (v1 [p1] <- "+outer+") [hdd~>ram] for (v3 <- v1) for (v4 <- v2) ") {
				foundBNL = true
			}
		}
		if strings.Contains(s, "partition[") && strings.Contains(s, "flatMap") {
			foundHash = true
		}
	}
	if !foundBNL {
		t.Error("search space does not contain the canonical Block Nested Loops Join")
	}
	if !foundHash {
		t.Error("search space does not contain the hash-partitioned join")
	}
}
