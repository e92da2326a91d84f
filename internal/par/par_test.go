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
