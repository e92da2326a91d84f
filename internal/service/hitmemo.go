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

// hitMemo answers a /synthesize body that was answered "hit" before with
// the plan tier's bytes for it (Store.Encoded), with no decode or compile.
// It maps the SHA-256 of the raw body to the body's fingerprint: the body
// alone fixes the fingerprint, since no server setting reaches a synthesis
// answer. A body is served only while the plan tier holds its fingerprint,
// so the memo answers exactly what the full path would answer "hit", and a
// hit on it counts as one on the plan tier. It holds at most the plan
// tier's capacity of entries and evicts an arbitrary one when full.
type hitMemo struct {
	mu       sync.Mutex
	capacity int
	entries  map[[sha256.Size]byte]string // body hash → fingerprint
	store    *plancache.Store
}

// memoEntry is what a memoized body resolves to: its fingerprint, the plan
// the tier holds for it and that plan's bytes.
type memoEntry struct {
	fp    string
	plan  *plan.Plan
	bytes []byte
}

func newHitMemo(capacity int, store *plancache.Store) *hitMemo {
	return &hitMemo{capacity: capacity, entries: map[[sha256.Size]byte]string{}, store: store}
}

// get resolves a memoized body without counting a hit.
func (m *hitMemo) get(key [sha256.Size]byte) (memoEntry, bool) { return m.resolve(key, false) }

// resolve looks a memoized body's fingerprint up in the plan tier; hit
// counts the lookup as a plan-tier hit.
func (m *hitMemo) resolve(key [sha256.Size]byte, hit bool) (memoEntry, bool) {
	m.mu.Lock()
	fp, ok := m.entries[key]
	m.mu.Unlock()
	e := memoEntry{fp: fp}
	if ok {
		e.plan, e.bytes, ok = m.store.Encoded(fp, hit)
	}
	return e, ok
}

func (m *hitMemo) put(key [sha256.Size]byte, fp string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.entries[key]; !ok && len(m.entries) >= m.capacity {
		for k := range m.entries {
			delete(m.entries, k)
			break
		}
	}
	m.entries[key] = fp
}

// serveMemo answers a /synthesize body from the plan tier, if the body is
// memoized and the tier still holds its fingerprint, and reports whether it
// did.
func (s *Server) serveMemo(w http.ResponseWriter, r *http.Request, key [sha256.Size]byte, startedAt time.Time) bool {
	e, ok := s.memo.resolve(key, true)
	if !ok {
		return false
	}
	_, sp := obs.Start(r.Context(), "resolve")
	sp.Attr("outcome", string(plancache.Hit))
	sp.Attr("memo", true)
	sp.End()
	s.writePlan(w, e.bytes, string(plancache.Hit), time.Since(startedAt))
	return true
}
