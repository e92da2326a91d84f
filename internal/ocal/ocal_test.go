package ocal

import (
	"testing"
	"testing/quick"
)

func TestValueEqAndCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		eq   bool
		cmp  int
	}{
		{Int(1), Int(1), true, 0},
		{Int(1), Int(2), false, -1},
		{Bool(false), Bool(true), false, -1},
		{Str("a"), Str("b"), false, -1},
		{Tuple{Int(1), Int(2)}, Tuple{Int(1), Int(2)}, true, 0},
		{Tuple{Int(1), Int(2)}, Tuple{Int(1), Int(3)}, false, -1},
		{List{Int(1)}, List{Int(1), Int(2)}, false, -1},
		{List{}, List{}, true, 0},
	}
	for i, c := range cases {
		if ValueEq(c.a, c.b) != c.eq {
			t.Errorf("case %d: eq(%s,%s) != %v", i, c.a, c.b, c.eq)
		}
		got := ValueCompare(c.a, c.b)
		if (got < 0) != (c.cmp < 0) || (got == 0) != (c.cmp == 0) {
			t.Errorf("case %d: cmp(%s,%s)=%d want sign of %d", i, c.a, c.b, got, c.cmp)
		}
	}
}

func TestValueCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		return ValueCompare(Int(a), Int(b)) == -ValueCompare(Int(b), Int(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestByteSize(t *testing.T) {
	if ByteSize(Int(5)) != AtomBytes {
		t.Errorf("int size")
	}
	if ByteSize(Tuple{Int(1), Int(2)}) != 2*AtomBytes {
		t.Errorf("tuple size")
	}
	if ByteSize(List{Tuple{Int(1), Int(2)}, Tuple{Int(3), Int(4)}}) != 4*AtomBytes {
		t.Errorf("list size")
	}
	if ByteSize(Str("abc")) != 3 {
		t.Errorf("str size")
	}
}

func TestHashDeterministicAndSpread(t *testing.T) {
	if Hash(Int(42)) != Hash(Int(42)) {
		t.Error("hash not deterministic")
	}
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		seen[Hash(Int(int64(i)))%64] = true
	}
	if len(seen) < 32 {
		t.Errorf("hash poorly spread: only %d of 64 buckets hit", len(seen))
	}
}

func TestParamZeroValueIsOne(t *testing.T) {
	var p Param
	v, ok := p.Literal()
	if !ok || v != 1 || !p.IsOne() {
		t.Errorf("zero Param should be literal 1")
	}
	if SymP("k").IsOne() {
		t.Error("symbolic param is not literally 1")
	}
	if got := SymP("k").Bind(map[string]int64{"k": 7}); got != 7 {
		t.Errorf("Bind got %d", got)
	}
	if got := SymP("k").Bind(nil); got != 1 {
		t.Errorf("unbound symbolic param should default to 1, got %d", got)
	}
}

// naiveJoin is the Example 1 program:
// for (x <- R) for (y <- S) if x.1 == y.1 then [<x,y>] else []
func naiveJoin() Expr {
	cond := Prim{Op: OpEq, Args: []Expr{Proj{E: Var{"x"}, I: 1}, Proj{E: Var{"y"}, I: 1}}}
	body := If{
		Cond: cond,
		Then: Single{E: Tup{Elems: []Expr{Var{"x"}, Var{"y"}}}},
		Else: Empty{},
	}
	inner := For{X: "y", Src: Var{"S"}, Body: body}
	return For{X: "x", Src: Var{"R"}, Body: inner}
}

func TestPrintCanonical(t *testing.T) {
	a := String(naiveJoin())
	b := String(naiveJoin())
	if a != b {
		t.Error("printing is not deterministic")
	}
	if a == "" {
		t.Error("empty rendering")
	}
	// Distinct programs must print differently (the BFS dedup relies on it).
	blocked := For{X: "xB", K: SymP("k1"), Src: Var{"R"}, Body: Empty{}}
	if String(blocked) == String(For{X: "xB", Src: Var{"R"}, Body: Empty{}}) {
		t.Error("block annotation lost in printing")
	}
}

func TestChildrenWithChildrenRoundTrip(t *testing.T) {
	exprs := []Expr{
		naiveJoin(),
		App{Fn: FoldL{Init: Empty{}, Fn: UnfoldR{Fn: Mrg{}}}, Arg: Var{"R"}},
		TreeFold{K: Lit(4), Init: Empty{}, Fn: UnfoldR{Fn: FuncPow{K: 2, Fn: Mrg{}}}},
		Tup{Elems: []Expr{IntLit{1}, Var{"x"}}},
		Prim{Op: OpConcat, Args: []Expr{Var{"a"}, Var{"b"}}},
	}
	for _, e := range exprs {
		kids := Children(e)
		r := WithChildren(e, kids)
		if String(r) != String(e) {
			t.Errorf("round-trip changed %s -> %s", String(e), String(r))
		}
	}
}

func TestFreeVars(t *testing.T) {
	fv := FreeVars(naiveJoin())
	if !fv["R"] || !fv["S"] || len(fv) != 2 {
		t.Errorf("free vars of naive join: %v", fv)
	}
	lam := Lam{Params: []string{"R", "S"}, Body: naiveJoin()}
	if len(FreeVars(lam)) != 0 {
		t.Errorf("lambda should close over R, S: %v", FreeVars(lam))
	}
}

func TestParamsCollection(t *testing.T) {
	prog := For{X: "xB", K: SymP("k1"), Src: Var{"R"}, OutK: SymP("ko"),
		Body: For{X: "yB", K: SymP("k2"), Src: Var{"S"}, Body: Empty{}}}
	got := Params(prog)
	want := []string{"k1", "ko", "k2"}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}
