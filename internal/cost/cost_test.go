package cost

import (
	"maps"
	"math"
	"testing"

	"ocas/internal/memory"
	"ocas/internal/ocal"
	sym "ocas/internal/symbolic"
)

func relType() ocal.Type { return ocal.TList(ocal.TTuple(ocal.TInt, ocal.TInt)) }

func joinPlacement(output string) Placement {
	return Placement{
		InputLoc:  map[string]string{"R": "hdd", "S": "hdd"},
		InputType: map[string]ocal.Type{"R": relType(), "S": relType()},
		InputCard: map[string]sym.Expr{"R": sym.V("x"), "S": sym.V("y")},
		Output:    output,
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

func blockedJoin() ocal.Expr {
	cond := ocal.Prim{Op: ocal.OpEq, Args: []ocal.Expr{
		ocal.Proj{E: ocal.Var{Name: "x"}, I: 1}, ocal.Proj{E: ocal.Var{Name: "y"}, I: 1}}}
	body := ocal.If{Cond: cond,
		Then: ocal.Single{E: ocal.Tup{Elems: []ocal.Expr{ocal.Var{Name: "x"}, ocal.Var{Name: "y"}}}},
		Else: ocal.Empty{}}
	return ocal.For{X: "xB", K: ocal.SymP("k1"), Src: ocal.Var{Name: "R"},
		Body: ocal.For{X: "yB", K: ocal.SymP("k2"), Src: ocal.Var{Name: "S"},
			Body: ocal.For{X: "x", Src: ocal.Var{Name: "xB"},
				Body: ocal.For{X: "y", Src: ocal.Var{Name: "yB"}, Body: body}}}}
}

// evalSecs evaluates res's cost formula under env and h's constants.
func evalSecs(t *testing.T, h *memory.Hierarchy, res *Result, env sym.Env) float64 {
	t.Helper()
	full := HierEnv(h)
	maps.Copy(full, env)
	v := res.Seconds.Eval(full)
	if math.IsNaN(v) {
		t.Fatalf("cost formula has unbound variables: %s (free: %v)",
			res.Seconds, sym.FreeVars(res.Seconds))
	}
	return v
}

func TestNaiveJoinChargesPerTuple(t *testing.T) {
	h := memory.HDDRAM(32 * memory.MiB)
	res, err := Estimate(h, joinPlacement(""), naiveJoin())
	if err != nil {
		t.Fatal(err)
	}
	e := Edge{From: "hdd", To: "ram"}
	inits := res.Events.Init(e)
	if inits == nil {
		t.Fatal("no InitCom events on hdd->ram")
	}
	// One seek per tuple of R plus one per tuple of S per iteration of R:
	// x + x*y.
	got := inits.Eval(sym.Env{"x": 100, "y": 50})
	want := 100.0 + 100*50
	if got != want {
		t.Errorf("naive join seeks = %v want %v (formula %s)", got, want, inits)
	}
	bytes := res.Events.Bytes(e).Eval(sym.Env{"x": 100, "y": 50})
	// R read once (8 bytes/tuple), S read x times.
	wantBytes := 100*8.0 + 100*50*8.0
	if bytes != wantBytes {
		t.Errorf("bytes = %v want %v", bytes, wantBytes)
	}
}

func TestBlockedJoinReducesSeeksKFold(t *testing.T) {
	h := memory.HDDRAM(32 * memory.MiB)
	res, err := Estimate(h, joinPlacement(""), blockedJoin())
	if err != nil {
		t.Fatal(err)
	}
	e := Edge{From: "hdd", To: "ram"}
	env := sym.Env{"x": 1000, "y": 1000, "k1": 100, "k2": 100}
	inits := res.Events.Init(e).Eval(env)
	// x/k1 seeks for R + (x/k1)*(y/k2) seeks for S = 10 + 100.
	if inits != 110 {
		t.Errorf("blocked join seeks = %v want 110 (%s)", inits, res.Events.Init(e))
	}
	// Bytes: R once + S once per R-block: 1000*8 + 10*1000*8.
	bytes := res.Events.Bytes(e).Eval(env)
	if bytes != 1000*8+10*1000*8 {
		t.Errorf("bytes = %v", bytes)
	}
	// The estimate must strictly improve on the naive program.
	naive, err := Estimate(h, joinPlacement(""), naiveJoin())
	if err != nil {
		t.Fatal(err)
	}
	nv := evalSecs(t, h, naive, env)
	bv := evalSecs(t, h, res, env)
	if bv >= nv {
		t.Errorf("blocked (%v s) should beat naive (%v s)", bv, nv)
	}
}

func TestResidencyConstraintEmitted(t *testing.T) {
	h := memory.HDDRAM(32 * memory.MiB)
	res, err := Estimate(h, joinPlacement(""), blockedJoin())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range res.Constraints {
		if c.Why == "resident data fits ram (main phase)" {
			found = true
			// k1 and k2 blocks (8 bytes each) must fit in RAM.
			lhs := c.LHS.Eval(sym.Env{"k1": 1000, "k2": 1000})
			if lhs != 8000+8000 {
				t.Errorf("residency LHS = %v want 16000 (%s)", lhs, c.LHS)
			}
		}
	}
	if !found {
		t.Fatalf("no RAM residency constraint in %v", res.Constraints)
	}
}

func TestWriteOutChargesDownEdge(t *testing.T) {
	h := memory.HDDRAM(32 * memory.MiB)
	res, err := Estimate(h, joinPlacement("hdd"), naiveJoin())
	if err != nil {
		t.Fatal(err)
	}
	e := Edge{From: "ram", To: "hdd"}
	if res.Events.Bytes(e) == nil {
		t.Fatal("write-out must charge ram->hdd bytes")
	}
	env := sym.Env{"x": 10, "y": 10}
	// Worst case output: x*y tuples of 16 bytes.
	if got := res.Events.Bytes(e).Eval(env); got != 100*16 {
		t.Errorf("output bytes = %v want 1600 (%s)", got, res.Events.Bytes(e))
	}
	// Unbuffered output: one initiation per output tuple.
	if got := res.Events.Init(e).Eval(env); got != 100 {
		t.Errorf("output inits = %v want 100", got)
	}
}

func TestWriteToOtherDeviceVsSame(t *testing.T) {
	// Writing to a second disk must be estimated cheaper than writing to
	// the input disk once seq-ac applies to the read side.
	two := memory.TwoHDD(32 * memory.MiB)
	progSeq := ocal.For{X: "xB", K: ocal.SymP("k1"), Src: ocal.Var{Name: "R"},
		Seq:  &ocal.SeqAnnot{From: "hdd", To: "ram"},
		OutK: ocal.SymP("ko"),
		Body: ocal.For{X: "x", Src: ocal.Var{Name: "xB"},
			Body: ocal.Single{E: ocal.Var{Name: "x"}}}}
	place := Placement{
		InputLoc:  map[string]string{"R": "hdd"},
		InputType: map[string]ocal.Type{"R": relType()},
		InputCard: map[string]sym.Expr{"R": sym.V("x")},
	}
	pSame := place
	pSame.Output = "hdd"
	pOther := place
	pOther.Output = "hdd2"
	rSame, err := Estimate(two, pSame, progSeq)
	if err != nil {
		t.Fatal(err)
	}
	rOther, err := Estimate(two, pOther, progSeq)
	if err != nil {
		t.Fatal(err)
	}
	env := sym.Env{"x": 1e6, "k1": 1000, "ko": 1000}
	// Same total transfer, different devices; with identical block sizes
	// the two estimates only differ via the edges used. Both should be
	// finite and positive; the "other disk" variant is never worse.
	sSame, sOther := evalSecs(t, two, rSame, env), evalSecs(t, two, rOther, env)
	if sOther > sSame {
		t.Errorf("other-disk (%v) should not exceed same-disk (%v)", sOther, sSame)
	}
	// The sequential write-out is charged once: 1e6 tuples of 8 bytes in
	// one initiation.
	w := Edge{From: "ram", To: "hdd2"}
	if got := rOther.Events.Bytes(w).Eval(env); got != 8e6 {
		t.Errorf("write-out bytes = %v want 8e6 (%s)", got, rOther.Events.Bytes(w))
	}
	if got := rOther.Events.Init(w).Eval(env); got != 1 {
		t.Errorf("write-out inits = %v want 1 (%s)", got, rOther.Events.Init(w))
	}
}

func TestSeqACReducesInitCom(t *testing.T) {
	h := memory.HDDRAM(32 * memory.MiB)
	mk := func(seq *ocal.SeqAnnot) ocal.Expr {
		return ocal.For{X: "xB", K: ocal.SymP("k1"), Src: ocal.Var{Name: "R"}, Seq: seq,
			Body: ocal.For{X: "x", Src: ocal.Var{Name: "xB"},
				Body: ocal.Single{E: ocal.Var{Name: "x"}}}}
	}
	place := Placement{
		InputLoc:  map[string]string{"R": "hdd"},
		InputType: map[string]ocal.Type{"R": relType()},
		InputCard: map[string]sym.Expr{"R": sym.V("x")},
	}
	plain, err := Estimate(h, place, mk(nil))
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Estimate(h, place, mk(&ocal.SeqAnnot{From: "hdd", To: "ram"}))
	if err != nil {
		t.Fatal(err)
	}
	e := Edge{From: "hdd", To: "ram"}
	env := sym.Env{"x": 1e6, "k1": 128}
	ip := plain.Events.Init(e).Eval(env)
	is := seq.Events.Init(e).Eval(env)
	if is >= ip {
		t.Errorf("seq-ac should reduce InitCom: %v vs %v", is, ip)
	}
	// With no maxSeq limits on HDD/RAM, a sequential scan is one seek.
	if is != 1 {
		t.Errorf("seq-ac inits = %v want 1", is)
	}
}

// TestSeqACSplitsByTheSmallerLimit: with a maxSeqR on the source and a
// maxSeqW on the destination, a seq-ac scan's InitCom count is
// max(1, bytes/min(maxSeqR, maxSeqW)) as the smaller limit's quotient gives it,
// bit for bit, although the formula takes no branch on which limit that is.
func TestSeqACSplitsByTheSmallerLimit(t *testing.T) {
	prog := ocal.For{X: "xB", K: ocal.SymP("k1"), Src: ocal.Var{Name: "R"},
		Seq:  &ocal.SeqAnnot{From: "hdd", To: "ram"},
		Body: ocal.For{X: "x", Src: ocal.Var{Name: "xB"}, Body: ocal.Single{E: ocal.Var{Name: "x"}}}}
	place := Placement{
		InputLoc:  map[string]string{"R": "hdd"},
		InputType: map[string]ocal.Type{"R": relType()},
		InputCard: map[string]sym.Expr{"R": sym.V("x")},
	}
	e := Edge{From: "hdd", To: "ram"}
	for _, lim := range [][2]int64{{4097, 12289}, {12289, 4097}, {3000, 3000}, {1 << 40, 1 << 41}} {
		h := memory.HDDRAM(32 * memory.MiB)
		h.Node("hdd").MaxSeqR, h.Node("ram").MaxSeqW = lim[0], lim[1]
		res, err := Estimate(h, place, prog)
		if err != nil {
			t.Fatal(err)
		}
		// The formula before: the smaller limit chosen on h's values.
		smaller := hierVar("hdd", "maxSeqR")
		if lim[1] < lim[0] {
			smaller = hierVar("ram", "maxSeqW")
		}
		old := sym.Max(sym.One, sym.Div(res.Events.Bytes(e), smaller))
		for _, x := range []float64{0, 1, 1e6 + 7, 3.5e9} {
			env := HierEnv(h)
			env["x"], env["k1"] = x, 128
			want := old.Eval(env)
			if got := res.Events.Init(e).Eval(env); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("limits %v, x=%v: inits %v want %v (%s)", lim, x, got, want, res.Events.Init(e))
			}
		}
	}
}

func TestInsertionSortClosedForm(t *testing.T) {
	// foldL([], unfoldR(mrg))(R): cost must contain the x(x+1)/2 shape —
	// quadratic growth of transferred bytes (Section 7.2).
	prog := ocal.App{Fn: ocal.FoldL{Init: ocal.Empty{}, Fn: ocal.UnfoldR{Fn: ocal.Mrg{}}},
		Arg: ocal.Var{Name: "R"}}
	place := Placement{
		InputLoc:  map[string]string{"R": "hdd"},
		InputType: map[string]ocal.Type{"R": ocal.TList(ocal.TList(ocal.TInt))},
		InputCard: map[string]sym.Expr{"R": sym.V("x")},
	}
	h := memory.HDDRAM(32 * memory.MiB)
	res, err := Estimate(h, place, prog)
	if err != nil {
		t.Fatal(err)
	}
	up := Edge{From: "hdd", To: "ram"}
	down := Edge{From: "ram", To: "hdd"}
	// Bytes moved down across all iterations = 4 * sum_{i=0}^{x-1}(i+1)
	// = 4 * x(x+1)/2 (4-byte atoms).
	gotDown := res.Events.Bytes(down).Eval(sym.Env{"x": 100})
	wantDown := 4.0 * 100 * 101 / 2
	if gotDown != wantDown {
		t.Errorf("down bytes = %v want %v (%s)", gotDown, wantDown, res.Events.Bytes(down))
	}
	// One read initiation per iteration plus the input stream's x.
	gotUpInit := res.Events.Init(up).Eval(sym.Env{"x": 100})
	if gotUpInit != 200 {
		t.Errorf("up inits = %v want 200 (%s)", gotUpInit, res.Events.Init(up))
	}
	// Element-wise write initiations: sum (i+1) = x(x+1)/2.
	gotDownInit := res.Events.Init(down).Eval(sym.Env{"x": 100})
	if gotDownInit != 100*101/2 {
		t.Errorf("down inits = %v want %v", gotDownInit, 100*101/2)
	}
}

func TestExternalSortCostShape(t *testing.T) {
	// treeFold[2^k]([], unfoldR[bin](funcPow[k](mrg))) with output buffer
	// bout: levels = ceil(log2 x / k); transfers per level = all data.
	h := memory.HDDRAM(32 * memory.MiB)
	place := Placement{
		InputLoc:  map[string]string{"R": "hdd"},
		InputType: map[string]ocal.Type{"R": ocal.TList(ocal.TList(ocal.TInt))},
		InputCard: map[string]sym.Expr{"R": sym.V("x")},
	}
	mk := func(k int) ocal.Expr {
		return ocal.App{
			Fn: ocal.TreeFold{K: ocal.Lit(int64(1 << k)), Init: ocal.Empty{},
				OutK: ocal.SymP("bout"),
				Fn:   ocal.UnfoldR{Fn: ocal.FuncPow{K: k, Fn: ocal.Mrg{}}, K: ocal.SymP("bin")}},
			Arg: ocal.Var{Name: "R"},
		}
	}
	res2, err := Estimate(h, place, mk(1))
	if err != nil {
		t.Fatal(err)
	}
	res8, err := Estimate(h, place, mk(3))
	if err != nil {
		t.Fatal(err)
	}
	env := sym.Env{"x": 1 << 20, "bin": 4096, "bout": 4096}
	up := Edge{From: "hdd", To: "ram"}
	b2 := res2.Events.Bytes(up).Eval(env)
	b8 := res8.Events.Bytes(up).Eval(env)
	// 8-way sort does 20/3 -> 7 passes vs 20 passes for 2-way.
	if !(b8 < b2) {
		t.Errorf("8-way should move fewer bytes: %v vs %v", b8, b2)
	}
	ratio := b2 / b8
	if ratio < 2.5 || ratio > 3.1 {
		t.Errorf("pass ratio = %v want ~20/7", ratio)
	}
	// The fold-based insertion sort must be asymptotically worse: compare
	// at two sizes and check the growth exponent.
	naive := ocal.App{Fn: ocal.FoldL{Init: ocal.Empty{}, Fn: ocal.UnfoldR{Fn: ocal.Mrg{}}},
		Arg: ocal.Var{Name: "R"}}
	resN, err := Estimate(h, place, naive)
	if err != nil {
		t.Fatal(err)
	}
	growth := func(r *Result) float64 {
		a := evalSecs(t, h, r, sym.Env{"x": 1 << 12, "bin": 4096, "bout": 4096})
		b := evalSecs(t, h, r, sym.Env{"x": 1 << 16, "bin": 4096, "bout": 4096})
		return math.Log(b/a) / math.Log(16)
	}
	gN, gS := growth(resN), growth(res8)
	if gN < 1.8 {
		t.Errorf("insertion sort cost should grow ~quadratically, exponent %v", gN)
	}
	if gS > 1.4 {
		t.Errorf("external sort cost should grow ~n log n, exponent %v", gS)
	}
}

func TestAggregationIsCheap(t *testing.T) {
	// foldL(0, +) over a blocked scan: cost ~ one pass, no shuttle.
	sum := ocal.App{
		Fn: ocal.FoldL{Init: ocal.IntLit{V: 0},
			Fn: ocal.Lam{Params: []string{"a", "v"},
				Body: ocal.Prim{Op: ocal.OpAdd, Args: []ocal.Expr{ocal.Var{Name: "a"}, ocal.Proj{E: ocal.Var{Name: "v"}, I: 2}}}}},
		Arg: ocal.For{X: "xB", K: ocal.SymP("k1"), Src: ocal.Var{Name: "R"},
			Body: ocal.Var{Name: "xB"}},
	}
	h := memory.HDDRAM(32 * memory.MiB)
	res, err := Estimate(h, joinPlacement(""), sum)
	if err != nil {
		t.Fatal(err)
	}
	down := Edge{From: "ram", To: "hdd"}
	if res.Events.Bytes(down) != nil {
		if v := res.Events.Bytes(down).Eval(sym.Env{"x": 1000, "k1": 100}); v != 0 {
			t.Errorf("aggregation should not write back, got %v bytes", v)
		}
	}
	up := Edge{From: "hdd", To: "ram"}
	if got := res.Events.Bytes(up).Eval(sym.Env{"x": 1000, "y": 1, "k1": 100}); got != 8000 {
		t.Errorf("aggregation reads %v bytes want 8000", got)
	}
}

func TestHashPartitionedJoinCheaperThanBNLWhenRAMSmall(t *testing.T) {
	h := memory.HDDRAM(1 * memory.MiB)
	join := ocal.Lam{Params: []string{"p1", "p2"}, Body: ocal.For{
		X: "xB", K: ocal.SymP("k3"), Src: ocal.Var{Name: "p1"},
		Body: ocal.For{X: "yB", K: ocal.SymP("k4"), Src: ocal.Var{Name: "p2"},
			Body: ocal.For{X: "x", Src: ocal.Var{Name: "xB"},
				Body: ocal.For{X: "y", Src: ocal.Var{Name: "yB"},
					Body: ocal.If{
						Cond: ocal.Prim{Op: ocal.OpEq, Args: []ocal.Expr{
							ocal.Proj{E: ocal.Var{Name: "x"}, I: 1}, ocal.Proj{E: ocal.Var{Name: "y"}, I: 1}}},
						Then: ocal.Single{E: ocal.Tup{Elems: []ocal.Expr{ocal.Var{Name: "x"}, ocal.Var{Name: "y"}}}},
						Else: ocal.Empty{}}}}}}}
	hashed := ocal.App{
		Fn: ocal.FlatMap{Fn: join},
		Arg: ocal.App{Fn: ocal.ZipLists{N: 2}, Arg: ocal.Tup{Elems: []ocal.Expr{
			ocal.App{Fn: ocal.PartitionF{S: ocal.SymP("s")}, Arg: ocal.Var{Name: "R"}},
			ocal.App{Fn: ocal.PartitionF{S: ocal.SymP("s")}, Arg: ocal.Var{Name: "S"}},
		}}},
	}
	resH, err := Estimate(h, joinPlacement(""), hashed)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := Estimate(h, joinPlacement(""), blockedJoin())
	if err != nil {
		t.Fatal(err)
	}
	// 1 MiB RAM, 64 MiB relations: BNL re-reads S many times; GRACE reads
	// everything twice. Block sizes constrained by RAM (128K tuples each).
	envB := sym.Env{"x": 8e6, "y": 8e6, "k1": 60000, "k2": 60000}
	envH := sym.Env{"x": 8e6, "y": 8e6, "s": 128, "k3": 60000, "k4": 60000}
	hv := evalSecs(t, h, resH, envH)
	bv := evalSecs(t, h, resB, envB)
	if hv >= bv {
		t.Errorf("GRACE (%v s) should beat BNL (%v s) when RAM is scarce", hv, bv)
	}
}

func TestEstimateErrors(t *testing.T) {
	h := memory.HDDRAM(32 * memory.MiB)
	// Missing type info.
	_, err := Estimate(h, Placement{
		InputLoc:  map[string]string{"R": "hdd"},
		InputCard: map[string]sym.Expr{"R": sym.V("x")},
	}, naiveJoin())
	if err == nil {
		t.Error("expected error for missing input type")
	}
	// Unbound variable.
	_, err = Estimate(h, Placement{}, ocal.Var{Name: "Z"})
	if err == nil {
		t.Error("expected error for unbound input")
	}
	// Bare function.
	_, err = Estimate(h, Placement{}, ocal.Mrg{})
	if err == nil {
		t.Error("expected error for bare definition")
	}
}
