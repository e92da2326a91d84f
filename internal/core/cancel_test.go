package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"ocas/internal/memory"
)

// bigTask is a join synthesis on the three-level cache hierarchy (extra
// blocking level => much larger rewrite space) with a search deep enough
// that a full run takes hundreds of milliseconds — far over the deadlines
// used below.
func bigTask() (*Synthesizer, Task) {
	s := &Synthesizer{H: memory.HDDRAMCache(32 * memory.MiB), MaxDepth: 12, MaxSpace: 500_000}
	t := Task{
		Spec:      JoinSpec(true),
		InputLoc:  map[string]string{"R": "hdd", "S": "hdd"},
		InputRows: map[string]int64{"R": 1 << 22, "S": 1 << 18},
	}
	return s, t
}

// TestSynthesizeCtxDeadline: a synthesis with a deadline far shorter than a
// full run must return context.DeadlineExceeded promptly and must not leak
// its worker goroutines.
func TestSynthesizeCtxDeadline(t *testing.T) {
	before := runtime.NumGoroutine()
	s, task := bigTask()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := s.SynthesizeCtx(ctx, task)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got res=%v err=%v", res, err)
	}
	if res != nil {
		t.Fatalf("cancelled synthesis must not return a partial result, got %+v", res)
	}
	// "Promptly": within one chunk of search work, far below a full run.
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %s, not prompt", elapsed)
	}

	// Worker pools are join-on-return, so no goroutines may outlive the
	// call. Allow the runtime a moment to retire exiting goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// TestSynthesizeCtxCancel: an explicit cancel, arriving while the search
// runs, stops the synthesis and surfaces context.Canceled.
func TestSynthesizeCtxCancel(t *testing.T) {
	s, task := bigTask()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var err error
	go func() {
		defer close(done)
		_, err = s.SynthesizeCtx(ctx, task)
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled synthesis did not return within 10s")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestSynthesizeCtxBackground: a background context changes nothing — the
// result is identical to plain Synthesize.
func TestSynthesizeCtxBackground(t *testing.T) {
	s, task := bigTask()
	s.H = memory.HDDRAM(32 * memory.MiB)
	s.MaxDepth, s.MaxSpace = 4, 1500
	a, err := s.Synthesize(task)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.SynthesizeCtx(context.Background(), task)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := b.Best.Seconds, a.Best.Seconds; got != want {
		t.Fatalf("SynthesizeCtx best %v != Synthesize best %v", got, want)
	}
}
