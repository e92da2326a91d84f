// Package plancache is the content-addressed plan cache behind ocasd: the
// synthesize-once/serve-many layer. A Store holds two tiers, each bounded by
// an LRU policy and deduplicated in flight by a singleflight mechanism (N
// concurrent identical requests trigger exactly one computation): plans keyed
// by the request fingerprint (internal/plan), and templates keyed by the
// coarser template fingerprint, so that requests that miss the plan tier but
// share a shape with a previous synthesis are served by instantiating that
// shape's template instead of searching from scratch (see internal/plan's
// template documentation for the equivalence guarantee and its guards). The
// plan tier is optionally persisted to a JSON file across daemon restarts;
// templates are not (Store.Save).
package plancache

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"log"
	"runtime/debug"
	"sync"
)

// ErrInternal wraps a panic inside a computation: every caller waiting on
// it gets the error, nothing is cached, and the process stays up.
var ErrInternal = errors.New("plancache: internal error")

// Outcome says how a GetOrCompute call was served.
type Outcome string

const (
	// Hit: the plan was already cached.
	Hit Outcome = "hit"
	// Miss: this call started the synthesis: a search, or, when a guard
	// refused the shape's template, a recapture of it under the request's
	// own hierarchy.
	Miss Outcome = "miss"
	// Shared: this call joined a synthesis another call had started.
	Shared Outcome = "shared"
	// TemplateHit: the plan was not cached, but a template for its shape
	// was, and instantiating it replaced the full search.
	TemplateHit Outcome = "template-hit"
)

// Stats are a tier's monotonic counters plus its current occupancy.
type Stats struct {
	Hits      int64 `json:"hits"`   // served from the cache
	Misses    int64 `json:"misses"` // triggered a synthesis
	Shared    int64 `json:"shared"` // joined an in-flight synthesis instead of starting one
	Evictions int64 `json:"evictions"`
	Size      int   `json:"size"`
	Capacity  int   `json:"capacity"`
}

// tier is one bounded, singleflight-deduplicated LRU level of the cache,
// generic over the cached value (plans in the full-fingerprint tier,
// templates in the shape tier).
type tier[V any] struct {
	mu       sync.Mutex
	capacity int
	entries  map[string]*list.Element // key -> lru element
	lru      *list.List               // front = most recently used
	inflight map[string]*call[V]
	stats    Stats
}

type entry[V any] struct {
	key   string
	v     V
	bytes []byte // v's encoding, from the first encoded call for it on
}

// call is one in-flight computation. Waiters join by incrementing waiters
// and selecting on done; the last waiter to abandon cancels the compute and
// marks the call abandoned, so later requests start a fresh computation
// instead of inheriting the doomed one's context error.
type call[V any] struct {
	done      chan struct{}
	v         V
	err       error
	waiters   int
	cancel    context.CancelFunc
	abandoned bool
}

func newTier[V any](capacity int) *tier[V] {
	if capacity < 1 {
		capacity = 1
	}
	return &tier[V]{
		capacity: capacity,
		entries:  map[string]*list.Element{},
		lru:      list.New(),
		inflight: map[string]*call[V]{},
	}
}

// Get returns the cached value for key, if any, marking it recently used.
// It does not count as a hit or miss; use it for read-only lookups
// (GET /plans/{fingerprint}).
func (c *tier[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lookup(key, false)
}

// encoded is Get, counted as a hit when count is set, returning also the
// value's encoding: enc runs at the first encoded call for the value, and
// its bytes stay with the value until it leaves the tier.
func (c *tier[V]) encoded(key string, count bool, enc func(V) []byte) (V, []byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.lookup(key, count)
	if !ok {
		return v, nil, false
	}
	e := c.entries[key].Value.(*entry[V])
	if e.bytes == nil {
		e.bytes = enc(v)
	}
	return v, e.bytes, true
}

// lookup finds key under c.mu, marking it recently used and, with count,
// counting a hit.
func (c *tier[V]) lookup(key string, count bool) (V, bool) {
	el, ok := c.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.lru.MoveToFront(el)
	if count {
		c.stats.Hits++
	}
	return el.Value.(*entry[V]).v, true
}

// GetOrCompute returns the value for key, computing it on a miss. The
// context compute receives is detached from any single caller: it is
// cancelled only when every request waiting on the key has gone away.
// Concurrent calls for the same key share one computation: the first caller
// starts it, later callers wait for its result. A caller whose ctx is
// cancelled while waiting returns ctx.Err() immediately; the computation
// itself keeps running until its result is cached or until every waiting
// caller has been cancelled, whichever comes first. Errors are never
// cached — the next request retries.
func (c *tier[V]) GetOrCompute(ctx context.Context, key string, compute func(ctx context.Context) (V, error)) (V, Outcome, error) {
	c.mu.Lock()
	if v, ok := c.lookup(key, true); ok {
		c.mu.Unlock()
		return v, Hit, nil
	}
	if cl, ok := c.inflight[key]; ok && !cl.abandoned {
		cl.waiters++
		c.stats.Shared++
		c.mu.Unlock()
		v, err := c.wait(ctx, cl)
		return v, Shared, err
	}
	// Leader: start the computation on a context that outlives this request —
	// other requests may join it — but dies with the last interested waiter.
	cctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	cl := &call[V]{done: make(chan struct{}), waiters: 1, cancel: cancel}
	c.inflight[key] = cl
	c.stats.Misses++
	c.mu.Unlock()

	go func() {
		v, err := recovered(cctx, compute)
		cancel()
		c.mu.Lock()
		cl.v, cl.err = v, err
		// An abandoned call may already have been replaced by a fresh one;
		// only remove the entry this call still owns.
		if c.inflight[key] == cl {
			delete(c.inflight, key)
		}
		if err == nil {
			c.insert(key, v)
		}
		c.mu.Unlock()
		close(cl.done)
	}()
	v, err := c.wait(ctx, cl)
	return v, Miss, err
}

// recovered runs compute, turning a panic — nothing else would catch one on
// the leader's goroutine — into an error wrapping ErrInternal, and logging
// its stack.
func recovered[V any](ctx context.Context, compute func(ctx context.Context) (V, error)) (v V, err error) {
	defer func() {
		if p := recover(); p != nil {
			log.Printf("plancache: computation panicked: %v\n%s", p, debug.Stack())
			err = fmt.Errorf("%w: %v", ErrInternal, p)
		}
	}()
	return compute(ctx)
}

// wait blocks until the call completes or ctx is cancelled. The waiter
// refcount keeps the computation alive exactly as long as someone wants it.
func (c *tier[V]) wait(ctx context.Context, cl *call[V]) (V, error) {
	select {
	case <-cl.done:
		return cl.v, cl.err
	case <-ctx.Done():
		c.mu.Lock()
		cl.waiters--
		abandon := cl.waiters == 0
		if abandon {
			cl.abandoned = true
		}
		c.mu.Unlock()
		if abandon {
			cl.cancel()
		}
		var zero V
		return zero, ctx.Err()
	}
}

// insert adds a value under c.mu, evicting from the LRU tail as needed.
func (c *tier[V]) insert(key string, v V) {
	if el, ok := c.entries[key]; ok {
		*el.Value.(*entry[V]) = entry[V]{key: key, v: v}
		c.lru.MoveToFront(el)
		return
	}
	for c.lru.Len() >= c.capacity {
		tail := c.lru.Back()
		c.lru.Remove(tail)
		delete(c.entries, tail.Value.(*entry[V]).key)
		c.stats.Evictions++
	}
	c.entries[key] = c.lru.PushFront(&entry[V]{key: key, v: v})
}

// Put stores a value directly (used when loading persisted state, and by
// the Store to replace a guard-rejected template).
func (c *tier[V]) Put(key string, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insert(key, v)
}

// Stats returns a snapshot of the counters.
func (c *tier[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Size = c.lru.Len()
	s.Capacity = c.capacity
	return s
}

// snapshot returns the entries ordered least- to most-recently used, so
// that re-Putting them in order reproduces the LRU order.
func (c *tier[V]) snapshot() []entry[V] {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []entry[V]
	for el := c.lru.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*entry[V])
		out = append(out, entry[V]{key: e.key, v: e.v})
	}
	return out
}
