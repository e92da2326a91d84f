package par

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"testing"
)

// goroutineID returns the "goroutine N" prefix of the caller's stack header.
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	id, _, _ := bytes.Cut(buf, []byte(" ["))
	return string(id)
}

func TestForRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 2, 7, 100} {
		for _, n := range []int{0, 1, 5, 64} {
			hits := make([]atomic.Int32, n)
			For(workers, n, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Errorf("workers=%d n=%d: index %d ran %d times", workers, n, i, got)
				}
			}
		}
	}
}

// TestForOneWorkerIsSequential pins what the deterministic callers rely on
// at Workers=1: index order, on the calling goroutine.
func TestForOneWorkerIsSequential(t *testing.T) {
	caller := goroutineID()
	var order []int
	For(1, 10, func(i int) {
		if id := goroutineID(); id != caller {
			t.Errorf("index %d ran on %s, caller is %s", i, id, caller)
		}
		order = append(order, i)
	})
	for i, got := range order {
		if got != i {
			t.Fatalf("order %v, want ascending", order)
		}
	}
	if len(order) != 10 {
		t.Fatalf("ran %d indices, want 10", len(order))
	}
}

// TestForPanicReachesCaller: a panic at one index of a parallel For is
// recovered in its worker and raised again on the calling goroutine, after
// every other index has run.
func TestForPanicReachesCaller(t *testing.T) {
	const n = 64
	var ran atomic.Int32
	defer func() {
		if v := recover(); v != "boom at 17" {
			t.Fatalf("recovered %v, want the worker's panic", v)
		}
		if got := ran.Load(); got != n-1 {
			t.Errorf("%d indices ran besides the panicking one, want %d", got, n-1)
		}
	}()
	For(4, n, func(i int) {
		if i == 17 {
			panic("boom at 17")
		}
		ran.Add(1)
	})
	t.Fatal("For returned normally")
}

// TestGoPanicReachesWaiter: wait returns once fn has, and a panic in fn is
// raised again on the goroutine that calls wait.
func TestGoPanicReachesWaiter(t *testing.T) {
	var ran atomic.Bool
	Go(func() { ran.Store(true) })()
	if !ran.Load() {
		t.Fatal("wait returned before fn ran")
	}
	wait := Go(func() { panic("boom") })
	defer func() {
		if v := recover(); v != "boom" {
			t.Fatalf("recovered %v, want fn's panic", v)
		}
	}()
	wait()
	t.Fatal("wait returned normally")
}
