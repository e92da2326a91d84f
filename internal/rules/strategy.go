package rules

import (
	"context"
	"math"
	"runtime"
	"sort"
	"sync"

	"ocas/internal/ocal"
	"ocas/internal/par"
)

// SearchStrategy explores the space of programs equivalent to a start
// program. Implementations must be deterministic: two calls with the same
// arguments return the same derivations in the same order, regardless of
// how many workers run the expansion. The Context's fresh-name counters are
// advanced level-synchronously so that the result does not depend on
// goroutine scheduling.
//
// Cancelling ctx stops the search promptly (workers are re-checked at every
// expansion chunk); a cancelled search returns whatever it discovered so
// far, and callers decide whether a partial space is usable by inspecting
// ctx.Err().
type SearchStrategy interface {
	Name() string
	Search(ctx context.Context, start ocal.Expr, rs []Rule, c *Context, maxDepth, maxSpace int) ([]Derivation, SearchStats)
}

// Exhaustive is the paper's strategy: breadth-first enumeration of every
// reachable program ("OCAS exhaustively searches the space of equivalent
// programs"). Frontier expansion fans out across a worker pool; results are
// merged in frontier order against a single dedup set, so the output is
// identical to a sequential run.
type Exhaustive struct {
	// Workers bounds the expansion fan-out; <=0 means GOMAXPROCS.
	Workers int
}

func (Exhaustive) Name() string { return "exhaustive" }

func (x Exhaustive) Search(ctx context.Context, start ocal.Expr, rs []Rule, c *Context, maxDepth, maxSpace int) ([]Derivation, SearchStats) {
	return bfs(ctx, start, rs, c, maxDepth, maxSpace, x.Workers, nil)
}

// Beam is a bounded-frontier variant: after each depth level only the Width
// best-ranked programs are expanded further. Every discovered program is
// still reported (and thus costed by the synthesizer); the bound only cuts
// the exponential growth of the frontier. With a cost-based Rank the
// shortlist keeps the promising derivation prefixes, trading completeness
// for search time on deep rewrite chains.
type Beam struct {
	// Width is the frontier bound per depth level (default 64).
	Width int
	// Workers bounds the expansion fan-out; <=0 means GOMAXPROCS.
	Workers int
	// Rank scores a program; lower is better (expanded first). Ties are
	// broken by discovery order, keeping the result deterministic. Nil
	// ranks by AST size, preferring more-rewritten (larger) programs;
	// core.Synthesizer injects a cheap cost pre-estimate instead.
	Rank func(ocal.Expr) float64
	// Trace, when non-nil, records every pruning decision (one TraceLevel
	// per level that actually dropped candidates). A beam's result depends
	// on the ranks, which depend on input cardinalities; the trace lets a
	// plan template replayed at fresh cardinalities verify that the same
	// search space would be discovered, without re-running the search.
	Trace *[]TraceLevel
}

// TraceLevel is one recorded beam pruning: the level's freshly discovered
// block occupied indices [Start,End) of the returned derivation slice, and
// Kept lists the block-relative indices that survived, in rank order. Levels
// that fit within the beam width (no pruning) are not recorded — they cannot
// depend on the ranking.
type TraceLevel struct {
	Start int
	End   int
	Kept  []int
}

func (Beam) Name() string { return "beam" }

func (b Beam) Search(ctx context.Context, start ocal.Expr, rs []Rule, c *Context, maxDepth, maxSpace int) ([]Derivation, SearchStats) {
	width := b.Width
	if width <= 0 {
		width = 64
	}
	rank := b.Rank
	if rank == nil {
		rank = func(e ocal.Expr) float64 { return -float64(exprSize(e)) }
	}
	prune := func(next []Derivation, spaceLen int) []Derivation {
		if len(next) <= width {
			return next
		}
		type ranked struct {
			d     Derivation
			idx   int
			score float64
		}
		scored := make([]ranked, len(next))
		par.For(b.Workers, len(next), func(i int) {
			if ctx.Err() != nil {
				scored[i] = ranked{d: next[i], idx: i, score: math.Inf(1)}
				return
			}
			score := rank(next[i].Expr)
			if math.IsNaN(score) {
				score = math.Inf(1)
			}
			scored[i] = ranked{d: next[i], idx: i, score: score}
		})
		sort.SliceStable(scored, func(i, j int) bool { return scored[i].score < scored[j].score })
		out := make([]Derivation, width)
		for i := range out {
			out[i] = scored[i].d
		}
		if b.Trace != nil {
			kept := make([]int, width)
			for i := range kept {
				kept[i] = scored[i].idx
			}
			*b.Trace = append(*b.Trace, TraceLevel{Start: spaceLen - len(next), End: spaceLen, Kept: kept})
		}
		return out
	}
	return bfs(ctx, start, rs, c, maxDepth, maxSpace, b.Workers, prune)
}

func exprSize(e ocal.Expr) int {
	n := 1
	for _, k := range ocal.Children(e) {
		n += exprSize(k)
	}
	return n
}

// expansion is one frontier item's rewrites with their dedup keys, which
// the workers compute so that the sequential merge only compares. The keys
// are packed back to back: rewrite j's Key is keys[ends[j-1]:ends[j]].
type expansion struct {
	rws  []Rewrite
	keys []byte
	ends []int
}

// bfs is the shared level-synchronous search loop. prune, when non-nil,
// bounds the next frontier after each level (beam search); the full set of
// discovered programs is returned either way. Cancellation is checked at
// every expansion chunk (and inside the chunk, per frontier item), so an
// abandoned search stops within one chunk's worth of work.
func bfs(ctx context.Context, start ocal.Expr, rs []Rule, c *Context, maxDepth, maxSpace, workers int, prune func(next []Derivation, spaceLen int) []Derivation) ([]Derivation, SearchStats) {
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
		if prune != nil {
			// len(all) is the space size after this level's appends: the
			// level block is all[len(all)-len(next) : len(all)].
			next = prune(next, len(all))
		}
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
