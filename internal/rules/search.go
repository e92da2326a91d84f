package rules

import (
	"context"
	"runtime"
	"sync"

	"ocas/internal/ocal"
	"ocas/internal/par"
)

// rootOnly is implemented by rules that rewrite the whole program rather
// than arbitrary subexpressions (hash-part).
type rootOnly interface{ RootOnly() bool }

// Rewrite is one rule application: the resulting program and the rule name.
type Rewrite struct {
	Expr ocal.Expr
	Rule string
}

// position is one rewritable subexpression of a program: the node, the
// binder scope in force there, and the link to its parent needed to rebuild
// the whole program when a rule fires here. Collecting positions once per
// Step (instead of re-traversing the program once per rule, as the search
// originally did) computes each node's scope and child list a single time;
// rules are then applied against the flat list, and only actual rewrites
// pay for spine rebuilding.
type position struct {
	e        ocal.Expr
	scope    Scope
	parent   int // index into the positions slice; -1 for the root
	childIdx int // which child of the parent this node is
	kids     []ocal.Expr
}

// collectPositions appends the pre-order positions of e (the order
// rewriteEverywhere historically visited) to ps.
func collectPositions(ps []position, e ocal.Expr, s Scope, parent, childIdx int) []position {
	self := len(ps)
	kids := ocal.Children(e)
	ps = append(ps, position{e: e, scope: s, parent: parent, childIdx: childIdx, kids: kids})
	for i, kid := range kids {
		ks := s
		switch t := e.(type) {
		case ocal.Lam:
			for _, p := range t.Params {
				ks = ks.with(p, BinderInfo{Kind: KindLam})
			}
		case ocal.For:
			if i == 1 { // body position
				info := BinderInfo{Kind: KindFor}
				if !t.K.IsOne() {
					// Block variable: one level deeper than its source.
					if src, ok := t.Src.(ocal.Var); ok {
						if pi, in := s[src.Name]; in && pi.Kind == KindFor {
							info.BlockDepth = pi.BlockDepth + 1
						} else {
							info.BlockDepth = 1
						}
					} else {
						info.BlockDepth = 1
					}
				}
				ks = ks.with(t.X, info)
			}
		}
		ps = collectPositions(ps, kid, ks, self, i)
	}
	return ps
}

// rebuild reconstructs the whole program with the node at position i
// replaced by sub, copying each spine level exactly once.
func rebuild(ps []position, i int, sub ocal.Expr) ocal.Expr {
	for ps[i].parent >= 0 {
		p := ps[i].parent
		nk := make([]ocal.Expr, len(ps[p].kids))
		copy(nk, ps[p].kids)
		nk[ps[i].childIdx] = sub
		sub = ocal.WithChildren(ps[p].e, nk)
		i = p
	}
	return sub
}

// Step performs every single-step rewrite of prog under the rule library:
// for each rule and each position where it applies, one rewritten program.
// Results are ordered rule-major, positions in pre-order — the historical
// enumeration order, which the search's first-derivation-wins dedup
// depends on.
func Step(prog ocal.Expr, rs []Rule, c *Context) []Rewrite {
	scope := Scope{}
	for name := range c.InputLoc {
		scope[name] = BinderInfo{Kind: KindInput}
	}
	ps := collectPositions(make([]position, 0, 64), prog, scope, -1, 0)
	var out []Rewrite
	for _, r := range rs {
		if ro, ok := r.(rootOnly); ok && ro.RootOnly() {
			for _, e := range r.Apply(prog, scope, c) {
				out = append(out, Rewrite{Expr: e, Rule: r.Name()})
			}
			continue
		}
		for i := range ps {
			for _, e := range r.Apply(ps[i].e, ps[i].scope, c) {
				out = append(out, Rewrite{Expr: rebuild(ps, i, e), Rule: r.Name()})
			}
		}
	}
	return out
}

// Derivation is a program reached by the search together with the chain of
// rule applications that produced it.
type Derivation struct {
	Expr  ocal.Expr
	Steps []string
}

// SearchStats reports what the BFS explored (the paper's Table 1 "Search
// space" and "Steps" columns).
type SearchStats struct {
	SpaceSize int // distinct programs encountered
	MaxDepth  int // longest derivation chain
	Truncated bool
	// Levels breaks the exploration down per BFS depth, for tracing: how
	// many rewrites each level produced, how many were duplicates of
	// already-seen programs, and how many new programs were kept.
	Levels []LevelStats
}

// LevelStats is one BFS level's exploration counts.
type LevelStats struct {
	Depth    int // rule applications from the start program
	Expanded int // rewrites produced by the level's expansions
	Deduped  int // rewrites discarded as alpha-equivalent to seen programs
	Kept     int // new distinct programs added to the space
}

// renameEnv is the persistent bound-variable mapping of the renamer: most
// recent binding first, tail shared with the enclosing scope (programs bind
// few variables, so the linear lookup beats a map copy per binder).
type renameEnv struct {
	from, to string
	parent   *renameEnv
}

func (env *renameEnv) lookup(name string) (string, bool) {
	for ; env != nil; env = env.parent {
		if env.from == name {
			return env.to, true
		}
	}
	return "", false
}

// renamer alpha-normalizes a program: bound variables and symbolic
// parameters are renamed in first-occurrence order, so two derivation paths
// reaching the same structure yield one program even when their fresh-name
// counters differ. AlphaKey prints its output; Key numbers the names in the
// same order without building the renamed tree.
type renamer struct {
	params map[string]string
	nv, np int
}

func (r *renamer) bind(name string) string {
	r.nv++
	return normalName('v', r.nv)
}

func (r *renamer) param(p ocal.Param) ocal.Param {
	if p.Sym == "" {
		return p
	}
	if n, ok := r.params[p.Sym]; ok {
		return ocal.SymP(n)
	}
	r.np++
	n := normalName('p', r.np)
	r.params[p.Sym] = n
	return ocal.SymP(n)
}

// expr renames under env (bound-variable mapping); free variables (inputs)
// keep their names.
func (r *renamer) expr(e ocal.Expr, env *renameEnv) ocal.Expr {
	switch t := e.(type) {
	case ocal.Var:
		if n, ok := env.lookup(t.Name); ok {
			return ocal.Var{Name: n}
		}
		return t
	case ocal.Lam:
		ne := env
		np := make([]string, len(t.Params))
		for i, p := range t.Params {
			np[i] = r.bind(p)
			ne = &renameEnv{from: p, to: np[i], parent: ne}
		}
		return ocal.Lam{Params: np, Body: r.expr(t.Body, ne)}
	case ocal.For:
		src := r.expr(t.Src, env)
		nx := r.bind(t.X)
		ne := &renameEnv{from: t.X, to: nx, parent: env}
		return ocal.For{X: nx, K: r.param(t.K), Src: src,
			OutK: r.param(t.OutK), Seq: t.Seq, Body: r.expr(t.Body, ne)}
	case ocal.TreeFold:
		return ocal.TreeFold{K: r.param(t.K), Init: r.expr(t.Init, env),
			Fn: r.expr(t.Fn, env), OutK: r.param(t.OutK)}
	case ocal.UnfoldR:
		return ocal.UnfoldR{Fn: r.expr(t.Fn, env), K: r.param(t.K), Hint: t.Hint,
			OutK: r.param(t.OutK)}
	case ocal.PartitionF:
		return ocal.PartitionF{S: r.param(t.S)}
	default:
		kids := ocal.Children(e)
		if len(kids) == 0 {
			return e
		}
		nk := make([]ocal.Expr, len(kids))
		for i, k := range kids {
			nk[i] = r.expr(k, env)
		}
		return ocal.WithChildren(e, nk)
	}
}

// expansion is one frontier item's rewrites with their dedup keys, which
// the workers compute so that the sequential merge only compares. The keys
// are packed back to back: rewrite j's Key is keys[ends[j-1]:ends[j]].
type expansion struct {
	rws  []Rewrite
	keys []byte
	ends []int
}

// Search is the paper's search: breadth-first enumeration of every program
// reachable from start ("OCAS exhaustively searches the space of equivalent
// programs"), alpha-deduplicated on Key. Frontier expansion fans out across
// workers (<=0 means GOMAXPROCS); results are merged in frontier order against
// a single dedup set, and the Context's fresh-name counters advance
// level-synchronously, so the returned derivations and their order do not
// depend on the worker count or on goroutine scheduling.
//
// Cancellation is checked at every expansion chunk (and inside the chunk, per
// frontier item), so an abandoned search stops within one chunk's worth of
// work; it returns whatever it discovered so far, marked Truncated, and
// callers decide whether a partial space is usable by inspecting ctx.Err().
func Search(ctx context.Context, start ocal.Expr, rs []Rule, c *Context, maxDepth, maxSpace, workers int) ([]Derivation, SearchStats) {
	if maxDepth <= 0 {
		maxDepth = 8
	}
	if maxSpace <= 0 {
		maxSpace = 100_000
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// The key bytes themselves are the set's keys: membership is exact, and
	// a lookup with a converted slice copies nothing; only a kept program's
	// key is copied into the set.
	seen := map[string]struct{}{Key(start): {}}
	all := []Derivation{{Expr: start}}
	frontier := []Derivation{{Expr: start}}
	stats := SearchStats{SpaceSize: 1}
	for depth := 1; depth <= maxDepth && len(frontier) > 0; depth++ {
		stats.Levels = append(stats.Levels, LevelStats{Depth: depth})
		lv := &stats.Levels[len(stats.Levels)-1]
		// Every expansion at this level forks the fresh-name counters from
		// the same snapshot, so names are independent of scheduling; the
		// parent context advances by the level's maximum consumption.
		snapParam, snapVar := c.nParam, c.nVar
		maxParam, maxVar := 0, 0
		var next []Derivation
		// Expand in chunks so a maxSpace truncation mid-level does not pay
		// for the whole level; merge per chunk in frontier order, which
		// reproduces the sequential visit order exactly.
		chunk := workers * 8
		if chunk < 32 {
			chunk = 32
		}
		for lo := 0; lo < len(frontier); lo += chunk {
			if ctx.Err() != nil {
				c.nParam, c.nVar = snapParam+maxParam, snapVar+maxVar
				stats.Truncated = true
				return all, stats
			}
			hi := lo + chunk
			if hi > len(frontier) {
				hi = len(frontier)
			}
			results, mp, mv := expandFrontier(ctx, frontier[lo:hi], rs, c, snapParam, snapVar, workers)
			if mp > maxParam {
				maxParam = mp
			}
			if mv > maxVar {
				maxVar = mv
			}
			for bi, ex := range results {
				d := frontier[lo+bi]
				from := 0
				for j, rw := range ex.rws {
					key := ex.keys[from:ex.ends[j]]
					from = ex.ends[j]
					lv.Expanded++
					if _, dup := seen[string(key)]; dup {
						lv.Deduped++
						continue
					}
					seen[string(key)] = struct{}{}
					lv.Kept++
					nd := Derivation{
						Expr:  rw.Expr,
						Steps: append(append([]string(nil), d.Steps...), rw.Rule),
					}
					all = append(all, nd)
					next = append(next, nd)
					stats.SpaceSize++
					if stats.MaxDepth < depth {
						stats.MaxDepth = depth
					}
					if stats.SpaceSize >= maxSpace {
						stats.Truncated = true
						c.nParam, c.nVar = snapParam+maxParam, snapVar+maxVar
						return all, stats
					}
				}
			}
		}
		c.nParam, c.nVar = snapParam+maxParam, snapVar+maxVar
		frontier = next
	}
	return all, stats
}

// expandFrontier runs Step on every frontier item concurrently and keys
// every rewrite with the worker's encoder. Each item gets a Context forked
// at the level snapshot, so fresh names never depend on which worker picked
// the item up; the returned maxima say how far the counters must advance.
// Results are indexed by frontier position.
func expandFrontier(ctx context.Context, items []Derivation, rs []Rule, c *Context, snapParam, snapVar, workers int) ([]expansion, int, int) {
	out := make([]expansion, len(items))
	var mu sync.Mutex
	maxParam, maxVar := 0, 0
	par.For(workers, len(items), func(i int) {
		if ctx.Err() != nil {
			return
		}
		fc := c.fork(snapParam, snapVar)
		ex := expansion{rws: Step(items[i].Expr, rs, fc)}
		ex.ends = make([]int, len(ex.rws))
		enc := encoders.Get().(*alphaEncoder)
		for j, rw := range ex.rws {
			ex.keys = enc.appendKey(ex.keys, rw.Expr)
			ex.ends[j] = len(ex.keys)
		}
		encoders.Put(enc)
		out[i] = ex
		mu.Lock()
		if d := fc.nParam - snapParam; d > maxParam {
			maxParam = d
		}
		if d := fc.nVar - snapVar; d > maxVar {
			maxVar = d
		}
		mu.Unlock()
	})
	return out, maxParam, maxVar
}
