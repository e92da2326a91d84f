package plancache

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ocas/internal/plan"
)

func mkPlan(fp string) *plan.Plan {
	return &plan.Plan{
		Fingerprint: fp,
		Spec:        "for (x <- R) [x]",
		Program:     "for (x[B1] <- R) [x]",
		Derivation:  []string{"intro-blocks"},
		Params:      map[string]int64{"B1": 4096},
		Seconds:     1.5,
		SpecSeconds: 3.0,
		Speedup:     2.0,
	}
}

func ret(p *plan.Plan) func(context.Context) (*plan.Plan, error) {
	return func(context.Context) (*plan.Plan, error) { return p, nil }
}

// The tier-level tests run on a plan tier; the template tier is the same
// generic type.
func newPlanTier(capacity int) *tier[*plan.Plan] { return newTier[*plan.Plan](capacity) }

func TestGetOrComputeCachesAndHits(t *testing.T) {
	c := newPlanTier(4)
	calls := 0
	compute := func(context.Context) (*plan.Plan, error) {
		calls++
		return mkPlan("a"), nil
	}
	for i := 0; i < 3; i++ {
		p, _, err := c.GetOrCompute(context.Background(), "a", compute)
		if err != nil || p.Fingerprint != "a" {
			t.Fatalf("got %v, %v", p, err)
		}
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 1 || s.Size != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	c := newPlanTier(4)
	boom := errors.New("boom")
	calls := 0
	compute := func(context.Context) (*plan.Plan, error) {
		calls++
		if calls == 1 {
			return nil, boom
		}
		return mkPlan("a"), nil
	}
	if _, _, err := c.GetOrCompute(context.Background(), "a", compute); !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	p, _, err := c.GetOrCompute(context.Background(), "a", compute)
	if err != nil || p == nil {
		t.Fatalf("retry after error failed: %v, %v", p, err)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2", calls)
	}
}

// TestPanicIsInternalError: a compute that panics fails its leader and the
// caller that joined it with ErrInternal instead of exiting the process,
// caches nothing, and the next call computes afresh.
func TestPanicIsInternalError(t *testing.T) {
	c := newPlanTier(4)
	release := make(chan struct{})
	var calls atomic.Int64
	compute := func(context.Context) (*plan.Plan, error) {
		if calls.Add(1) == 1 {
			<-release
			panic("boom")
		}
		return mkPlan("a"), nil
	}
	errs := make([]error, 2)
	outcomes := make([]Outcome, 2)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, outcomes[0], errs[0] = c.GetOrCompute(context.Background(), "a", compute)
	}()
	for c.Stats().Misses == 0 {
		time.Sleep(time.Millisecond)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, outcomes[1], errs[1] = c.GetOrCompute(context.Background(), "a", compute)
	}()
	for c.Stats().Shared == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	for i, want := range []Outcome{Miss, Shared} {
		if outcomes[i] != want || !errors.Is(errs[i], ErrInternal) {
			t.Errorf("caller %d: %s, %v; want %s and ErrInternal", i, outcomes[i], errs[i], want)
		}
	}
	if s := c.Stats(); s.Size != 0 {
		t.Fatalf("a panicked compute cached something: %+v", s)
	}
	for _, want := range []Outcome{Miss, Hit} {
		p, out, err := c.GetOrCompute(context.Background(), "a", compute)
		if err != nil || p == nil || out != want {
			t.Fatalf("after the panic: %v, %s, %v; want a plan and %s", p, out, err, want)
		}
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("compute ran %d times, want 2", got)
	}
}

func TestLRUEviction(t *testing.T) {
	c := newPlanTier(3)
	for _, k := range []string{"a", "b", "c"} {
		if _, _, err := c.GetOrCompute(context.Background(), k, ret(mkPlan(k))); err != nil {
			t.Fatal(err)
		}
	}
	// Touch "a" so "b" becomes the LRU victim.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing")
	}
	if _, _, err := c.GetOrCompute(context.Background(), "d", ret(mkPlan("d"))); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s should still be cached", k)
		}
	}
	if s := c.Stats(); s.Evictions != 1 || s.Size != 3 {
		t.Fatalf("stats %+v", s)
	}
}

// TestSingleflight: N concurrent identical requests run exactly one
// synthesis and all receive its result.
func TestSingleflight(t *testing.T) {
	c := newPlanTier(4)
	const n = 32
	var calls atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	compute := func(context.Context) (*plan.Plan, error) {
		calls.Add(1)
		close(started)
		<-release
		return mkPlan("a"), nil
	}

	var wg sync.WaitGroup
	errs := make([]error, n)
	plans := make([]*plan.Plan, n)
	outcomes := make([]Outcome, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			plans[i], outcomes[i], errs[i] = c.GetOrCompute(context.Background(), "a", compute)
		}(i)
	}
	<-started
	// Let every goroutine reach the wait; then release the one synthesis.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		cl := c.inflight["a"]
		w := 0
		if cl != nil {
			w = cl.waiters
		}
		c.mu.Unlock()
		if w == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d waiters joined", w, n)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("compute ran %d times for %d concurrent requests, want 1", got, n)
	}
	misses, shared := 0, 0
	for i := 0; i < n; i++ {
		if errs[i] != nil || plans[i] == nil || plans[i].Fingerprint != "a" {
			t.Fatalf("request %d: %v, %v", i, plans[i], errs[i])
		}
		switch outcomes[i] {
		case Miss:
			misses++
		case Shared:
			shared++
		}
	}
	if misses != 1 || shared != n-1 {
		t.Fatalf("outcomes: %d misses, %d shared; want 1 and %d", misses, shared, n-1)
	}
	s := c.Stats()
	if s.Misses != 1 || s.Shared != n-1 {
		t.Fatalf("stats %+v, want 1 miss and %d shared", s, n-1)
	}
}

// TestAbandonedComputeIsCancelled: when every waiter gives up, the compute
// context is cancelled so the synthesis stops burning workers.
func TestAbandonedComputeIsCancelled(t *testing.T) {
	c := newPlanTier(4)
	cancelled := make(chan struct{})
	compute := func(ctx context.Context) (*plan.Plan, error) {
		<-ctx.Done()
		close(cancelled)
		return nil, ctx.Err()
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	if _, _, err := c.GetOrCompute(ctx, "a", compute); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	select {
	case <-cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("compute context was not cancelled after the last waiter left")
	}
}

// TestWaiterKeepsComputeAlive: one waiter abandoning does not cancel a
// synthesis another waiter still wants.
func TestWaiterKeepsComputeAlive(t *testing.T) {
	c := newPlanTier(4)
	release := make(chan struct{})
	compute := func(ctx context.Context) (*plan.Plan, error) {
		select {
		case <-release:
			return mkPlan("a"), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	shortCtx, shortCancel := context.WithCancel(context.Background())
	first := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrCompute(shortCtx, "a", compute)
		first <- err
	}()
	// Second waiter joins, then the first abandons.
	second := make(chan error, 1)
	go func() {
		deadline := time.Now().Add(5 * time.Second)
		for {
			c.mu.Lock()
			joined := c.inflight["a"] != nil
			c.mu.Unlock()
			if joined || time.Now().After(deadline) {
				break
			}
			time.Sleep(time.Millisecond)
		}
		p, _, err := c.GetOrCompute(context.Background(), "a", compute)
		if err == nil && p == nil {
			err = errors.New("nil plan")
		}
		second <- err
	}()
	time.Sleep(50 * time.Millisecond)
	shortCancel()
	if err := <-first; !errors.Is(err, context.Canceled) {
		t.Fatalf("first waiter: want Canceled, got %v", err)
	}
	close(release)
	if err := <-second; err != nil {
		t.Fatalf("second waiter should have received the plan, got %v", err)
	}
}

// TestJoinAfterAbandonStartsFresh: a request arriving after the last
// waiter abandoned an in-flight synthesis (but before the doomed compute
// noticed its cancellation) must start a fresh synthesis rather than
// inherit the stale call's context error.
func TestJoinAfterAbandonStartsFresh(t *testing.T) {
	c := newPlanTier(4)
	stuck := make(chan struct{})
	// Simulates the window between cancel() and the search actually
	// stopping: the compute ignores its context until released.
	computeStuck := func(context.Context) (*plan.Plan, error) {
		<-stuck
		return nil, context.Canceled
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	first := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrCompute(ctx1, "a", computeStuck)
		first <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		started := c.inflight["a"] != nil
		c.mu.Unlock()
		if started {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first compute never started")
		}
		time.Sleep(time.Millisecond)
	}
	cancel1()
	if err := <-first; !errors.Is(err, context.Canceled) {
		t.Fatalf("first: want Canceled, got %v", err)
	}

	// The abandoned call is still "in flight" (computeStuck is blocked).
	p, outcome, err := c.GetOrCompute(context.Background(), "a", ret(mkPlan("a")))
	if err != nil || p == nil || p.Fingerprint != "a" {
		t.Fatalf("fresh request inherited the doomed call: %v, %v", p, err)
	}
	if outcome != Miss {
		t.Fatalf("outcome %s, want miss (a fresh synthesis)", outcome)
	}

	// Let the stale compute finish; its error must not clobber the cached
	// plan or the in-flight table.
	close(stuck)
	time.Sleep(50 * time.Millisecond)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("fresh plan missing after stale compute exited")
	}
	if _, outcome, err := c.GetOrCompute(context.Background(), "a", ret(mkPlan("a"))); err != nil || outcome != Hit {
		t.Fatalf("want a hit after everything settled, got outcome=%s err=%v", outcome, err)
	}
}
