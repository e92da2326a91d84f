package cost

import (
	"sync"
	"sync/atomic"

	"ocas/internal/memory"
	"ocas/internal/ocal"
)

// Memo caches Estimate results by program key, for one synthesis run. The
// synthesizer's beam search costs every frontier it ranks and the screening
// pass then costs every discovered program; both ask about the same
// programs, so the second asker gets the first's Result instead of
// re-walking the program and re-deriving its cost formula. Failed estimates
// are cached too — a program the estimator rejects once is rejected for the
// whole synthesis.
//
// The key is the search's dedup key (rules.Key), which names a whole
// alpha-equivalence class. That is exact here because both askers only see
// members of one alpha-deduped search space, where a class has one member.
// The hierarchy and placement are fixed for the run (core.Synthesizer
// creates one Memo per call), which makes the program key a complete key.
type Memo struct {
	H *memory.Hierarchy
	P Placement

	mu   sync.Mutex
	m    map[string]memoEntry
	hits atomic.Uint64
}

type memoEntry struct {
	res *Result
	err error
}

// NewMemo returns an empty memo for one (hierarchy, placement) pair.
func NewMemo(h *memory.Hierarchy, p Placement) *Memo {
	return &Memo{H: h, P: p, m: map[string]memoEntry{}}
}

// Estimate costs prog, serving repeats of key from the cache.
func (m *Memo) Estimate(key string, prog ocal.Expr) (*Result, error) {
	m.mu.Lock()
	e, ok := m.m[key]
	m.mu.Unlock()
	if ok {
		m.hits.Add(1)
		return e.res, e.err
	}
	res, err := Estimate(m.H, m.P, prog)
	m.mu.Lock()
	m.m[key] = memoEntry{res: res, err: err}
	m.mu.Unlock()
	return res, err
}

// MemoStats reports cache activity.
type MemoStats struct {
	// Entries is the number of distinct programs costed.
	Entries int
	// Hits is the number of Estimate calls served from the cache.
	Hits uint64
}

// Stats returns a snapshot of the memo's counters.
func (m *Memo) Stats() MemoStats {
	m.mu.Lock()
	n := len(m.m)
	m.mu.Unlock()
	return MemoStats{Entries: n, Hits: m.hits.Load()}
}
