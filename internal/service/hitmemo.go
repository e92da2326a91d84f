package service

import (
	"crypto/sha256"
	"net/http"
	"sync"
	"time"

	"ocas/internal/obs"
	"ocas/internal/plan"
	"ocas/internal/plancache"
)

// hitMemo answers a /synthesize body that was answered "hit" before from
// the bytes of that answer, with no decode, compile or encode. It is keyed
// by the SHA-256 of the raw body: the body alone fixes the fingerprint,
// since no server setting reaches a synthesis answer. An entry is served
// only while the plan tier still holds its plan, so the memo answers
// exactly what the full path would answer "hit", and a hit on it counts as
// one on the plan tier. It holds at most the plan tier's capacity of
// entries and evicts an arbitrary one when full.
type hitMemo struct {
	mu       sync.Mutex
	capacity int
	entries  map[[sha256.Size]byte]memoEntry
}

// memoEntry is one recorded hit: the body's fingerprint, the plan the tier
// held for it and that plan's encoded bytes.
type memoEntry struct {
	fp    string
	plan  *plan.Plan
	bytes []byte
}

func newHitMemo(capacity int) *hitMemo {
	return &hitMemo{capacity: capacity, entries: map[[sha256.Size]byte]memoEntry{}}
}

func (m *hitMemo) get(key [sha256.Size]byte) (memoEntry, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[key]
	return e, ok
}

func (m *hitMemo) put(key [sha256.Size]byte, e memoEntry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.entries[key]; !ok && len(m.entries) >= m.capacity {
		for k := range m.entries {
			delete(m.entries, k)
			break
		}
	}
	m.entries[key] = e
}

// serveMemo answers a /synthesize body from its memo entry, if it has one
// whose fingerprint the plan tier still holds, and reports whether it did.
// A tier that re-synthesized the fingerprint since holds a new plan: that
// plan is the hit, and its bytes replace the entry's.
func (s *Server) serveMemo(w http.ResponseWriter, r *http.Request, key [sha256.Size]byte, startedAt time.Time) bool {
	e, ok := s.memo.get(key)
	if !ok {
		return false
	}
	p, ok := s.store.Hit(e.fp)
	if !ok {
		return false
	}
	_, sp := obs.Start(r.Context(), "resolve")
	if p != e.plan {
		e = memoEntry{fp: e.fp, plan: p, bytes: plan.Encode(p)}
		s.memo.put(key, e)
	}
	sp.Attr("outcome", string(plancache.Hit))
	sp.Attr("memo", true)
	sp.End()
	s.writePlan(w, e.bytes, string(plancache.Hit), time.Since(startedAt))
	return true
}
