package rules

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"ocas/internal/ocal"
)

// randProg builds a random program with binders, for alpha-equivalence
// property testing. Bound names come from a pool wide enough that renamed
// copies are textually different.
func randProg(r *rand.Rand, depth int, pool []string) ocal.Expr {
	if depth <= 0 {
		switch r.Intn(3) {
		case 0:
			return ocal.Var{Name: pool[r.Intn(len(pool))]}
		case 1:
			return ocal.Var{Name: "R"} // free input
		default:
			return ocal.IntLit{V: int64(r.Intn(3))}
		}
	}
	switch r.Intn(6) {
	case 0:
		x := pool[r.Intn(len(pool))]
		return ocal.Lam{Params: []string{x}, Body: randProg(r, depth-1, pool)}
	case 1:
		x := pool[r.Intn(len(pool))]
		k := ocal.Param{}
		if r.Intn(2) == 0 {
			k = ocal.SymP("k" + x)
		}
		return ocal.For{X: x, K: k, Src: randProg(r, depth-1, pool),
			Body: ocal.Single{E: randProg(r, depth-1, pool)}}
	case 2:
		return ocal.App{Fn: randProg(r, depth-1, pool), Arg: randProg(r, depth-1, pool)}
	case 3:
		return ocal.Tup{Elems: []ocal.Expr{randProg(r, depth-1, pool), randProg(r, depth-1, pool)}}
	case 4:
		return ocal.If{Cond: randProg(r, depth-1, pool), Then: randProg(r, depth-1, pool),
			Else: randProg(r, depth-1, pool)}
	default:
		return ocal.Prim{Op: ocal.OpAdd, Args: []ocal.Expr{randProg(r, depth-1, pool), randProg(r, depth-1, pool)}}
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

// oneShotAlphaKey is the reference the keyer is checked against: one
// renaming and one printing, no interning and no cache.
func oneShotAlphaKey(e ocal.Expr) string {
	ren := &renamer{params: map[string]string{}}
	return ocal.String(ren.expr(e, nil))
}

// TestAlphaIDMatchesAlphaEquivalence is the memoization invariant the
// search's dedup rests on: interned AlphaIDs agree exactly with the
// historical alpha-key strings — equal IDs ⇔ alpha-equivalent programs.
func TestAlphaIDMatchesAlphaEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	pool := []string{"x", "y", "z", "w"}
	k := NewKeyer()
	var progs []ocal.Expr
	for i := 0; i < 400; i++ {
		p := randProg(r, 1+r.Intn(4), pool)
		progs = append(progs, p)
		// Every program travels with an alpha-renamed twin.
		progs = append(progs, renameBound(p, fmt.Sprintf("_%d", i)))
	}
	type keyed struct {
		id  uint64
		key string
	}
	var ks []keyed
	for _, p := range progs {
		ks = append(ks, keyed{id: k.AlphaID(p), key: oneShotAlphaKey(p)})
	}
	for i := range ks {
		for j := i + 1; j < len(ks); j++ {
			if (ks[i].id == ks[j].id) != (ks[i].key == ks[j].key) {
				t.Fatalf("alpha identity disagrees for\n  %s\n  %s\n  ids %d/%d keys %q/%q",
					ocal.String(progs[i]), ocal.String(progs[j]),
					ks[i].id, ks[j].id, ks[i].key, ks[j].key)
			}
		}
	}
}

// TestKeyerAlphaKeyMatchesOneShot pins the cached keyer rendering, which
// plan fingerprints are built from, to the uncached one-shot rendering.
func TestKeyerAlphaKeyMatchesOneShot(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	pool := []string{"x", "y"}
	k := NewKeyer()
	for i := 0; i < 200; i++ {
		p := randProg(r, 1+r.Intn(4), pool)
		if got, want := k.AlphaKey(p), oneShotAlphaKey(p); got != want {
			t.Fatalf("keyer alpha key %q != one-shot %q for %s", got, want, ocal.String(p))
		}
	}
}

// TestKeyerConcurrent resolves the same programs from many goroutines; IDs
// must be stable. Under -race this exercises the alpha-cache CAS paths.
func TestKeyerConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	pool := []string{"x", "y", "z"}
	var progs []ocal.Expr
	for i := 0; i < 100; i++ {
		progs = append(progs, randProg(r, 4, pool))
	}
	k := NewKeyer()
	want := make([]uint64, len(progs))
	for i, p := range progs {
		want[i] = k.AlphaID(p)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 1000; i++ {
				j := r.Intn(len(progs))
				if got := k.AlphaID(progs[j]); got != want[j] {
					t.Errorf("prog %d alpha id changed concurrently", j)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	st := k.Stats()
	if st.AlphaHits == 0 || st.InternedNodes == 0 {
		t.Fatalf("expected cache activity, got %+v", st)
	}
}
