package rules

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"ocas/internal/ocal"
)

// chooser draws the random program generator's choices: a *rand.Rand, or a
// fuzz input through byteChooser.
type chooser interface{ Intn(n int) int }

// byteChooser draws choices from fuzz input bytes; exhausted input chooses 0.
type byteChooser []byte

func (c *byteChooser) Intn(n int) int {
	if len(*c) == 0 {
		return 0
	}
	v := int((*c)[0]) % n
	*c = (*c)[1:]
	return v
}

// randParam draws a blocking parameter: the zero value and the literal 1
// (which print alike), another literal, or a symbolic name from a pool
// small enough that one name recurs across nodes.
func randParam(r chooser) ocal.Param {
	switch r.Intn(5) {
	case 0:
		return ocal.Param{}
	case 1:
		return ocal.Lit(1)
	case 2:
		return ocal.Lit(8)
	default:
		return ocal.SymP([]string{"ka", "kb", "kc"}[r.Intn(3)])
	}
}

// randProg builds a random program over every node kind ocal.AppendNodeKey
// encodes, with binders, symbolic parameters on every node kind that has
// them, seq-ac annotations and cardinality hints, for alpha-equivalence
// property testing. Bound names come from a pool wide enough that renamed
// copies are textually different.
func randProg(r chooser, depth int, pool []string) ocal.Expr {
	if depth <= 0 {
		switch r.Intn(9) {
		case 0:
			return ocal.Var{Name: pool[r.Intn(len(pool))]}
		case 1:
			return ocal.Var{Name: "R"} // free input
		case 2:
			return ocal.Mrg{}
		case 3:
			return ocal.Empty{}
		case 4:
			return ocal.BoolLit{V: r.Intn(2) == 0}
		case 5:
			return ocal.StrLit{V: []string{"", "x"}[r.Intn(2)]}
		case 6:
			return ocal.ZipStep{N: 2 + r.Intn(2)}
		case 7:
			return ocal.ZipLists{N: 2 + r.Intn(2)}
		default:
			return ocal.IntLit{V: int64(r.Intn(3))}
		}
	}
	sub := func() ocal.Expr { return randProg(r, depth-1, pool) }
	switch r.Intn(15) {
	case 0:
		return ocal.Lam{Params: []string{pool[r.Intn(len(pool))]}, Body: sub()}
	case 1:
		return ocal.Lam{Params: []string{pool[r.Intn(len(pool))], pool[r.Intn(len(pool))]}, Body: sub()}
	case 2:
		f := ocal.For{X: pool[r.Intn(len(pool))], K: randParam(r), Src: sub(), OutK: randParam(r),
			Body: ocal.Single{E: sub()}}
		if r.Intn(3) == 0 {
			f.Seq = &ocal.SeqAnnot{From: "hdd", To: "ram"}
		}
		return f
	case 3:
		return ocal.App{Fn: sub(), Arg: sub()}
	case 4:
		return ocal.Tup{Elems: []ocal.Expr{sub(), sub()}}
	case 5:
		return ocal.If{Cond: sub(), Then: sub(), Else: sub()}
	case 6:
		p := ocal.Prim{Op: ocal.PrimOp(r.Intn(int(ocal.OpHash) + 1)), Args: []ocal.Expr{sub()}}
		if r.Intn(2) == 0 {
			p.Args = append(p.Args, sub())
		}
		return p
	case 7:
		return ocal.FoldL{Init: sub(), Fn: sub()}
	case 8:
		return ocal.UnfoldR{Fn: sub(), K: randParam(r), OutK: randParam(r), Hint: ocal.CardHint(r.Intn(3))}
	case 9:
		return ocal.TreeFold{K: randParam(r), Init: sub(), Fn: sub(), OutK: randParam(r)}
	case 10:
		return ocal.Proj{E: sub(), I: 1 + r.Intn(2)}
	case 11:
		return ocal.Single{E: sub()}
	case 12:
		return ocal.FlatMap{Fn: sub()}
	case 13:
		return ocal.FuncPow{K: 1 + r.Intn(3), Fn: sub()}
	default:
		return ocal.App{Fn: ocal.PartitionF{S: randParam(r)}, Arg: sub()}
	}
}

// renameBound rewrites every binder (and symbolic parameter) with a suffix,
// producing an alpha-equivalent program with different names — the shape the
// search produces when fresh-name counters differ between derivation paths.
func renameBound(e ocal.Expr, suffix string) ocal.Expr {
	rp := func(p ocal.Param) ocal.Param {
		if p.Sym == "" {
			return p
		}
		return ocal.SymP(p.Sym + suffix)
	}
	var walk func(e ocal.Expr, env map[string]string) ocal.Expr
	walk = func(e ocal.Expr, env map[string]string) ocal.Expr {
		switch t := e.(type) {
		case ocal.Var:
			if n, ok := env[t.Name]; ok {
				return ocal.Var{Name: n}
			}
			return t
		case ocal.Lam:
			ne := map[string]string{}
			for k, v := range env {
				ne[k] = v
			}
			np := make([]string, len(t.Params))
			for i, p := range t.Params {
				np[i] = p + suffix
				ne[p] = np[i]
			}
			return ocal.Lam{Params: np, Body: walk(t.Body, ne)}
		case ocal.For:
			src := walk(t.Src, env)
			ne := map[string]string{}
			for k, v := range env {
				ne[k] = v
			}
			nx := t.X + suffix
			ne[t.X] = nx
			return ocal.For{X: nx, K: rp(t.K), Src: src, OutK: rp(t.OutK),
				Seq: t.Seq, Body: walk(t.Body, ne)}
		case ocal.TreeFold:
			return ocal.TreeFold{K: rp(t.K), Init: walk(t.Init, env), Fn: walk(t.Fn, env), OutK: rp(t.OutK)}
		case ocal.UnfoldR:
			return ocal.UnfoldR{Fn: walk(t.Fn, env), K: rp(t.K), Hint: t.Hint, OutK: rp(t.OutK)}
		case ocal.PartitionF:
			return ocal.PartitionF{S: rp(t.S)}
		default:
			kids := ocal.Children(e)
			if len(kids) == 0 {
				return e
			}
			nk := make([]ocal.Expr, len(kids))
			for i, k := range kids {
				nk[i] = walk(k, env)
			}
			return ocal.WithChildren(e, nk)
		}
	}
	return walk(e, map[string]string{})
}

// rebuildAll applies f to every node of e, children first.
func rebuildAll(e ocal.Expr, f func(ocal.Expr) ocal.Expr) ocal.Expr {
	kids := ocal.Children(e)
	for i, k := range kids {
		kids[i] = rebuildAll(k, f)
	}
	return f(ocal.WithChildren(e, kids))
}

// withHints returns e with every cardinality hint set to h: a print-invisible
// change the key must not see.
func withHints(e ocal.Expr, h ocal.CardHint) ocal.Expr {
	return rebuildAll(e, func(e ocal.Expr) ocal.Expr {
		if t, ok := e.(ocal.UnfoldR); ok {
			t.Hint = h
			return t
		}
		return e
	})
}

// withoutSeq returns e with every seq-ac annotation dropped: a
// print-visible change, so the key must see it.
func withoutSeq(e ocal.Expr) ocal.Expr {
	return rebuildAll(e, func(e ocal.Expr) ocal.Expr {
		if f, ok := e.(ocal.For); ok {
			f.Seq = nil
			return f
		}
		return e
	})
}

// oneShotAlphaKey is the reference Key and AlphaKey are checked against:
// one renaming and one printing.
func oneShotAlphaKey(e ocal.Expr) string {
	ren := &renamer{params: map[string]string{}}
	return ocal.String(ren.expr(e, nil))
}

// verbatimKey is the reference for the key's bytes: ocal.AppendNodeKey over
// every node of e in post-order, names as they are.
func verbatimKey(key []byte, e ocal.Expr) []byte {
	for _, k := range ocal.Children(e) {
		key = verbatimKey(key, k)
	}
	return ocal.AppendNodeKey(key, e)
}

// keyOracle checks Keys against the references: every key must be the
// verbatim key of the renamer's output, and across everything it has seen,
// equal keys ⇔ equal one-shot alpha keys.
type keyOracle struct {
	byKey  map[string]string // key -> one-shot alpha key
	byShot map[string]string // one-shot alpha key -> key
	seen   int
}

func newKeyOracle() *keyOracle {
	return &keyOracle{byKey: map[string]string{}, byShot: map[string]string{}}
}

func (o *keyOracle) check(t testing.TB, e ocal.Expr) {
	t.Helper()
	o.seen++
	key := Key(e)
	ren := &renamer{params: map[string]string{}}
	normal := ren.expr(e, nil)
	if want := string(verbatimKey(nil, normal)); key != want {
		t.Fatalf("key of %s is not the post-order key of its normal form %s:\n  got  %q\n  want %q",
			ocal.String(e), ocal.String(normal), key, want)
	}
	shot := ocal.String(normal)
	if prev, ok := o.byKey[key]; ok && prev != shot {
		t.Fatalf("one key for two alpha keys:\n  %s\n  %s", prev, shot)
	}
	if prev, ok := o.byShot[shot]; ok && prev != key {
		t.Fatalf("two keys for one alpha key %s:\n  %q\n  %q", shot, prev, key)
	}
	o.byKey[key], o.byShot[shot] = shot, key
}

// checkFamily runs p through the oracle with the twins that must share its
// key — alpha-renamed and hint-changed — and one that must not, unless p
// has no annotation to drop: p without its seq-ac annotations.
func (o *keyOracle) checkFamily(t testing.TB, p ocal.Expr, suffix string) {
	t.Helper()
	o.check(t, p)
	o.check(t, renameBound(p, suffix))
	o.check(t, withHints(p, ocal.HintMaxCards))
	o.check(t, withoutSeq(p))
	if Key(p) != Key(renameBound(withHints(p, ocal.HintFirstCard), suffix)) {
		t.Fatalf("renaming and hints split the key of %s", ocal.String(p))
	}
}

// TestAlphaKeyMatchesAlphaEquivalence is the invariant the search's dedup
// rests on: keys agree exactly with the historical alpha-key strings —
// equal keys ⇔ alpha-equivalent programs — and each key is literally the
// post-order node-key encoding of the renamer's normal form.
func TestAlphaKeyMatchesAlphaEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	pool := []string{"x", "y", "z", "w"}
	o := newKeyOracle()
	for i := 0; i < 2000; i++ {
		o.checkFamily(t, randProg(r, 1+r.Intn(4), pool), fmt.Sprintf("_%d", i))
	}
	// The corpus must actually put programs in one class and keep others
	// apart, or the two-way check above proves little.
	if classes := len(o.byKey); classes < 200 || classes > o.seen/2 {
		t.Fatalf("%d classes over %d programs: the generator does not exercise the key", classes, o.seen)
	}
}

// FuzzAlphaKey draws two programs from the input bytes and checks them,
// their renamed and hint-changed twins, against the references.
func FuzzAlphaKey(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 3, 3, 1, 0, 6, 0, 2, 0, 3, 4, 1, 0, 6, 0})
	f.Add([]byte{8, 1, 3, 4, 0, 9, 3, 2, 1, 1, 2})
	f.Add([]byte("for (x [k1] <- R) [k2] treeFold[k2](x, \\y -> y)"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := byteChooser(data)
		pool := []string{"x", "y", "z"}
		p := randProg(&r, 4, pool)
		q := randProg(&r, 4, pool)
		o := newKeyOracle()
		o.checkFamily(t, p, "_p")
		o.checkFamily(t, q, "_q")
	})
}

// TestKeyerAlphaKeyMatchesOneShot pins AlphaKey, which plan fingerprints
// are built from, to the one-shot rendering, and checks it is a normal
// form: blind to renaming and hints, and the printing of the renamed tree
// is its own AlphaKey.
func TestKeyerAlphaKeyMatchesOneShot(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	pool := []string{"x", "y"}
	for i := 0; i < 200; i++ {
		p := randProg(r, 1+r.Intn(4), pool)
		got := AlphaKey(p)
		if want := oneShotAlphaKey(p); got != want {
			t.Fatalf("alpha key %q != one-shot %q for %s", got, want, ocal.String(p))
		}
		if twin := AlphaKey(renameBound(withHints(p, ocal.HintMaxCards), "_r")); twin != got {
			t.Fatalf("renaming and hints change the alpha key of %s:\n  %s\n  %s", ocal.String(p), got, twin)
		}
		ren := &renamer{params: map[string]string{}}
		if again := AlphaKey(ren.expr(p, nil)); again != got {
			t.Fatalf("alpha key of the normal form %q != %q", again, got)
		}
	}
}

// TestKeyerConcurrent keys the same programs from many goroutines, as the
// search's workers do through the encoder pool; keys must be stable. Under
// -race this proves the pooled scratch is never shared.
func TestKeyerConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	pool := []string{"x", "y", "z"}
	var progs []ocal.Expr
	for i := 0; i < 100; i++ {
		progs = append(progs, randProg(r, 4, pool))
	}
	want := make([]string, len(progs))
	for i, p := range progs {
		want[i] = Key(p)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 1000; i++ {
				j := r.Intn(len(progs))
				if got := Key(progs[j]); got != want[j] {
					t.Errorf("prog %d keyed differently concurrently", j)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

// TestKeyAllocatesNothing pins the point of the encoder: a warm encoder
// keys a program — binders, parameters and all — without one allocation.
func TestKeyAllocatesNothing(t *testing.T) {
	prog := ocal.For{X: "x", K: ocal.SymP("k1"), Src: ocal.Var{Name: "R"}, OutK: ocal.SymP("k2"),
		Seq: &ocal.SeqAnnot{From: "hdd", To: "ram"},
		Body: ocal.Single{E: ocal.App{
			Fn:  ocal.Lam{Params: []string{"a", "b"}, Body: ocal.Tup{Elems: []ocal.Expr{ocal.Var{Name: "a"}, ocal.Var{Name: "x"}}}},
			Arg: ocal.App{Fn: ocal.TreeFold{K: ocal.SymP("k1"), Init: ocal.Empty{}, Fn: ocal.Mrg{}}, Arg: ocal.Var{Name: "x"}},
		}}}
	enc := new(alphaEncoder)
	buf := enc.appendKey(nil, prog)
	if n := testing.AllocsPerRun(100, func() { buf = enc.appendKey(buf[:0], prog) }); n != 0 {
		t.Fatalf("keying allocated %v times per program", n)
	}
}
