// Package par provides the one worker-pool primitive the parallel
// synthesis pipeline and the executor are built on. It is deliberately
// tiny: deterministic callers (the rewrite search, candidate costing,
// parameter optimization, the executor's partition tasks) write results
// into index-addressed slots and fold them in index order, so the pool
// only needs to guarantee that every index runs exactly once. Go runs a
// background goroutine whose panic its waiter re-raises.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// For runs fn(0..n-1) on up to `workers` goroutines (<=0 means GOMAXPROCS).
// Calls for distinct indices may run concurrently; For returns when all
// have finished. With one worker everything runs on the calling goroutine
// in index order. A call that panics ends its worker; once the others have
// finished, For panics on the caller with the first value recovered, so a
// panic reaches whatever handler the caller has instead of exiting the
// process.
func For(workers, n int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var idx int64 = -1
	var wg sync.WaitGroup
	var panicked sync.Once
	var pv any
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					panicked.Do(func() { pv = v })
				}
			}()
			for {
				i := int(atomic.AddInt64(&idx, 1))
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if pv != nil {
		panic(pv)
	}
}

// Go runs fn on a new goroutine and returns wait, which blocks until fn has
// returned. If fn panicked, wait panics on its caller with the recovered
// value, so a panic on a background goroutine reaches the handler of the
// goroutine that waits for it instead of exiting the process.
func Go(fn func()) (wait func()) {
	done := make(chan struct{})
	var pv any
	go func() {
		defer close(done)
		defer func() { pv = recover() }()
		fn()
	}()
	return func() {
		<-done
		if pv != nil {
			panic(pv)
		}
	}
}
