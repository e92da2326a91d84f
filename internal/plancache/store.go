package plancache

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"

	"ocas/internal/plan"
)

// errNoTemplate is the sentinel a template-tier compute returns when the
// capture run produced a plan but no template (a space larger than
// core.CaptureLimit). Errors are never cached, so such shapes simply bypass
// the template tier every time.
var errNoTemplate = errors.New("plancache: run produced no template")

// ResolveFuncs are the synthesis entry points Resolve orchestrates. The
// caller (the service) wraps admission control around Capture — the full
// search — but not Instantiate, which is cheap by construction.
type ResolveFuncs struct {
	// Synthesize is never called: a shared waiter on a shape too large to
	// template runs Capture and drops the nil template. The field stays only
	// because the benchmark module's in-process replay still sets it.
	Synthesize func(ctx context.Context) (*plan.Plan, error)
	// Capture is the full search, returning the run's template as well (nil
	// template with a valid plan when the space was too large to keep).
	Capture func(ctx context.Context) (*plan.Plan, *plan.Template, error)
	// Instantiate binds the request's cardinalities into a cached template;
	// plan.ErrTemplateStale sends the request down the Capture path and
	// replaces the template.
	Instantiate func(ctx context.Context, t *plan.Template) (*plan.Plan, error)
}

// Store is the two-tier plan cache: a plan tier keyed by the full request
// fingerprint and a template tier keyed by the template (shape)
// fingerprint. A request that misses both synthesizes once and seeds both
// tiers; a request that misses the plan tier but hits the template tier is
// served by instantiation — amortizing the search across every cardinality
// of a shape.
type Store struct {
	plans     *tier[*plan.Plan]
	templates *tier[*plan.Template]

	mu             sync.Mutex
	instantiations int64
	guardRejects   int64
}

// StoreStats snapshots both tiers plus the template-path counters.
type StoreStats struct {
	Plans          Stats `json:"plans"`
	Templates      Stats `json:"templates"`
	Instantiations int64 `json:"instantiations"`
	GuardRejects   int64 `json:"guardRejects"`
}

// NewStore returns a store with the given per-tier capacities (minimum 1
// each).
func NewStore(planCapacity, templateCapacity int) *Store {
	return &Store{plans: newTier[*plan.Plan](planCapacity),
		templates: newTier[*plan.Template](templateCapacity)}
}

// Get returns the cached plan for a full fingerprint, if any, marking it
// recently used. It does not count as a hit or miss; use it for read-only
// lookups (GET /plans/{fingerprint}).
func (s *Store) Get(fullKey string) (*plan.Plan, bool) { return s.plans.Get(fullKey) }

// Resolve serves one request through both tiers. Outcomes:
//
//   - Hit: the plan tier had the exact plan;
//   - Shared: this call joined another call's in-flight synthesis;
//   - TemplateHit: the plan tier missed, but a cached template for the
//     request's shape instantiated successfully;
//   - Miss: a full search ran — cold, too large to keep a template, or
//     template guard-rejected (the fresh capture replaces the stale template).
//
// Singleflight holds at both tiers: N concurrent requests for the same
// plan share one synthesis, and N concurrent requests for different
// cardinalities of one cold shape share one capture run (the non-leaders
// instantiate the captured template instead of searching).
func (s *Store) Resolve(ctx context.Context, fullKey, tmplKey string, f ResolveFuncs) (*plan.Plan, Outcome, error) {
	usedTemplate := false
	p, out, err := s.plans.GetOrCompute(ctx, fullKey, func(cctx context.Context) (*plan.Plan, error) {
		// This closure runs in the plan tier's leader goroutine; close(done)
		// orders its writes (usedTemplate included) before GetOrCompute
		// returns in every waiter.
		return s.resolveTemplate(cctx, tmplKey, f, &usedTemplate)
	})
	if err != nil {
		return nil, out, err
	}
	if out == Miss && usedTemplate {
		out = TemplateHit
	}
	return p, out, nil
}

// resolveTemplate is the plan tier's compute: consult the template tier,
// instantiate on a hit, capture on a miss, and fall back to a fresh capture
// when a guard rejects the cached template.
func (s *Store) resolveTemplate(ctx context.Context, tmplKey string, f ResolveFuncs, usedTemplate *bool) (*plan.Plan, error) {
	// leaderPlan is written by the template compute closure only when this
	// very call is the template-tier leader; the tier's close(done) orders
	// that write before GetOrCompute returns here.
	var leaderPlan *plan.Plan
	tm, _, err := s.templates.GetOrCompute(ctx, tmplKey, func(cctx context.Context) (*plan.Template, error) {
		p, t, err := f.Capture(cctx)
		if err != nil {
			return nil, err
		}
		leaderPlan = p
		if t == nil {
			return nil, errNoTemplate
		}
		return t, nil
	})
	switch {
	case err == nil && leaderPlan != nil:
		// This call ran the capture itself; its plan is the cold answer.
		return leaderPlan, nil
	case errors.Is(err, errNoTemplate):
		if leaderPlan != nil {
			return leaderPlan, nil
		}
		// A shared waiter on a shape too large to template: search for
		// itself, and drop the template its run cannot have either.
		p, _, err := f.Capture(ctx)
		return p, err
	case err != nil:
		return nil, err
	}

	// Template served from the cache (or a shared capture): instantiate.
	p, err := f.Instantiate(ctx, tm)
	if err == nil {
		*usedTemplate = true
		s.mu.Lock()
		s.instantiations++
		s.mu.Unlock()
		return p, nil
	}
	if !errors.Is(err, plan.ErrTemplateStale) {
		return nil, err
	}
	// A guard rejected the template (hierarchy constants or the spec text
	// changed): run the full search and let the fresh capture replace the
	// stale template.
	s.mu.Lock()
	s.guardRejects++
	s.mu.Unlock()
	p, t, err := f.Capture(ctx)
	if err != nil {
		return nil, err
	}
	if t != nil {
		s.templates.Put(tmplKey, t)
	}
	return p, nil
}

// Stats snapshots the store.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	st := StoreStats{Instantiations: s.instantiations, GuardRejects: s.guardRejects}
	s.mu.Unlock()
	st.Plans = s.plans.Stats()
	st.Templates = s.templates.Stats()
	return st
}

// persistedStore is the version-2 snapshot: the plan tier, least- to
// most-recently used so that reloading it in order reproduces the LRU order.
// Templates are not in it — restoring one costs what searching its shape
// again costs — and the "templates" key of a file that has one is ignored.
type persistedStore struct {
	Version int              `json:"version"`
	Plans   []persistedEntry `json:"plans"`
}

type persistedEntry struct {
	Key  string     `json:"key"`
	Plan *plan.Plan `json:"plan"`
}

// Save writes the plan tier to path: a temp file in the same directory,
// synced, then renamed over it, so path holds the old snapshot or the new
// one, whole.
func (s *Store) Save(path string) error {
	snap := persistedStore{Version: 2}
	for _, e := range s.plans.snapshot() {
		snap.Plans = append(snap.Plans, persistedEntry{Key: e.key, Plan: e.v})
	}
	data, err := json.MarshalIndent(snap, "", " ")
	if err != nil {
		return fmt.Errorf("plancache: %w", err)
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("plancache: %w", err)
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		return fmt.Errorf("plancache: %w", err)
	}
	return nil
}

// Load merges a snapshot written by Save into the store. A missing file is
// not an error (first daemon start); a corrupt file is, and installs nothing:
// every entry is checked — a key, a plan, and the key being that plan's
// fingerprint, or the plan would be served for another request — before the
// first one is put.
func (s *Store) Load(path string) error {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("plancache: %w", err)
	}
	var snap persistedStore
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("plancache: corrupt snapshot %s: %w", path, err)
	}
	if snap.Version != 2 {
		return fmt.Errorf("plancache: unsupported snapshot version %d", snap.Version)
	}
	for i, e := range snap.Plans {
		switch {
		case e.Key == "" || e.Plan == nil:
			return fmt.Errorf("plancache: corrupt snapshot %s: plan entry %d is empty", path, i)
		case e.Key != e.Plan.Fingerprint:
			return fmt.Errorf("plancache: corrupt snapshot %s: plan entry %d has key %s but fingerprint %s",
				path, i, e.Key, e.Plan.Fingerprint)
		}
	}
	for _, e := range snap.Plans {
		s.plans.Put(e.Key, e.Plan)
	}
	return nil
}
