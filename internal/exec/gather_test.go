package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ocas/internal/storage"
)

// probe is what a gather's scripted partitions report to the test.
type probe struct {
	mu     sync.Mutex
	opens  []int // Open calls per partition
	closes []int // Close calls per partition
	active int   // partitions open right now
	peak   int   // most partitions ever open at once
}

// scriptedPart is a partition operator that emits one-row batches of its
// index, charging one virtual second in Open, and misbehaves as told.
type scriptedPart struct {
	i         int
	batches   int
	failOpen  error
	failAt    int // Next call (1-based) that returns failNext; 0 = never
	failNext  error
	failClose error
	// atNext runs at the start of every Next with the call's number.
	atNext func(n int)
	// checksCtx makes Next report a cancelled context, as every operator
	// over a block reader does.
	checksCtx bool

	p    *probe
	c    *Ctx
	n    int
	cols [1][]int32
}

func (o *scriptedPart) Open(c *Ctx) error {
	o.c = c
	c.cpu(1, 1)
	o.p.mu.Lock()
	o.p.opens[o.i]++
	o.p.active++
	o.p.peak = max(o.p.peak, o.p.active)
	o.p.mu.Unlock()
	return o.failOpen
}

func (o *scriptedPart) Next(b *Batch) (bool, error) {
	o.n++
	if o.atNext != nil {
		o.atNext(o.n)
	}
	if o.checksCtx {
		if err := o.c.err(); err != nil {
			return false, err
		}
	}
	if o.failAt == o.n {
		return false, o.failNext
	}
	if o.n > o.batches {
		return false, nil
	}
	o.cols[0] = append(o.cols[0][:0], int32(o.i))
	*b = Batch{Arity: 1, Cols: o.cols[:]}
	return true, nil
}

func (o *scriptedPart) Close() error {
	o.p.mu.Lock()
	o.p.closes[o.i]++
	o.p.active--
	o.p.mu.Unlock()
	return o.failClose
}

// gatherRig is one Gather over scripted partitions on a fresh simulator.
type gatherRig struct {
	g     *Gather
	c     *Ctx
	p     *probe
	parts []*scriptedPart
	base  int // goroutines before Open
}

func newGatherRig(t *testing.T, n, workers int, ordered bool, ctx context.Context) *gatherRig {
	t.Helper()
	sim := newSim(t)
	d, _ := sim.Device("hdd")
	r := &gatherRig{p: &probe{opens: make([]int, n), closes: make([]int, n)}}
	ops := make([]Operator, n)
	for i := range ops {
		sp := &scriptedPart{i: i, batches: 40, p: r.p}
		r.parts = append(r.parts, sp)
		ops[i] = sp
	}
	r.g = &Gather{Parts: ops, Ordered: ordered}
	r.c = &Ctx{Sim: sim, Pool: storage.NewBufferPool(0), Scratch: d,
		Workers: workers, Context: ctx, shared: &sharedState{}}
	r.base = runtime.NumGoroutine()
	return r
}

// drain opens the gather and pulls until the stream ends or fails.
func (r *gatherRig) drain() (rows int, err error) {
	if err := r.g.Open(r.c); err != nil {
		return 0, err
	}
	var b Batch
	for {
		ok, err := r.g.Next(&b)
		if err != nil || !ok {
			return rows, err
		}
		rows += b.Rows()
	}
}

// settle closes the gather and checks what must hold however the stream
// ended: Close repeats the stream's error, every opened partition was closed
// once, every opened partition's second reached the root clock through its
// adopted context, and no goroutine of the gather is left.
func (r *gatherRig) settle(t *testing.T, name string, want error) {
	t.Helper()
	if err := r.g.Close(); !errors.Is(err, want) {
		t.Errorf("%s: Close returned %v, want %v", name, err, want)
	}
	opened := 0
	for i := range r.parts {
		if r.p.opens[i] > 1 || r.p.closes[i] != r.p.opens[i] {
			t.Errorf("%s: partition %d opened %d times, closed %d", name, i, r.p.opens[i], r.p.closes[i])
		}
		opened += r.p.opens[i]
	}
	if got := r.c.acct().Seconds(); got != float64(opened) {
		t.Errorf("%s: root clock %v s, want the %d opened partitions' %d s", name, got, opened, opened)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > r.base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > r.base {
		t.Errorf("%s: %d goroutines after Close, %d before Open", name, n, r.base)
	}
}

// gatherModes is the matrix the failure tests run over: both delivery modes
// at one worker and at four.
func gatherModes(f func(name string, workers int, ordered bool)) {
	for _, workers := range []int{1, 4} {
		for _, ordered := range []bool{false, true} {
			f(fmt.Sprintf("workers %d ordered %v", workers, ordered), workers, ordered)
		}
	}
}

var errBoom = errors.New("boom")

// TestGatherPartitionFailsInOpen: the failing partition's error is the
// stream's error, and no partition is started once it is known.
func TestGatherPartitionFailsInOpen(t *testing.T) {
	gatherModes(func(name string, workers int, ordered bool) {
		r := newGatherRig(t, 6, workers, ordered, nil)
		r.parts[0].failOpen = errBoom
		// A sibling lane's partition ends only after the failure is known,
		// so what it would run next is known not to start.
		for _, sp := range r.parts[1:] {
			sp.atNext = func(int) {
				for !r.g.failed.Load() {
					runtime.Gosched()
				}
			}
		}
		if _, err := r.drain(); !errors.Is(err, errBoom) {
			t.Errorf("%s: stream ended with %v, want %v", name, err, errBoom)
		}
		r.settle(t, name, errBoom)
		// On one lane, nothing runs after partition 0; on four, only the
		// other lanes' first partitions can have started before it failed.
		limit := 1
		if workers > 1 && !ordered {
			limit = 4
		}
		opened := 0
		for _, n := range r.p.opens {
			opened += n
		}
		if opened > limit {
			t.Errorf("%s: %d partitions opened after a failure in the first, want at most %d", name, opened, limit)
		}
	})
}

// TestGatherPartitionFailsMidStream: a partition failing in Next after
// delivering rows fails the stream with its error; when two fail, the one
// earlier in partition order wins.
func TestGatherPartitionFailsMidStream(t *testing.T) {
	errLater := errors.New("later")
	gatherModes(func(name string, workers int, ordered bool) {
		r := newGatherRig(t, 6, workers, ordered, nil)
		r.parts[1].failAt, r.parts[1].failNext = 4, errBoom
		r.parts[3].failAt, r.parts[3].failNext = 2, errLater
		// On lanes, partition 3 may only fail once partition 1 is under way:
		// a partition that never started has no error to win with.
		started := make(chan struct{})
		r.parts[1].atNext = func(n int) {
			if n == 1 {
				close(started)
			}
		}
		r.parts[3].atNext = func(int) { <-started }
		rows, err := r.drain()
		if !errors.Is(err, errBoom) {
			t.Errorf("%s: stream ended with %v, want %v", name, err, errBoom)
		}
		if rows < 3 {
			t.Errorf("%s: %d rows before the failure, want partition 1's first 3 at least", name, rows)
		}
		r.settle(t, name, errBoom)
	})
}

// TestGatherPartitionFailsInClose: a partition that delivered everything and
// then fails to close fails the stream; one the consumer abandons fails Close.
func TestGatherPartitionFailsInClose(t *testing.T) {
	gatherModes(func(name string, workers int, ordered bool) {
		r := newGatherRig(t, 6, workers, ordered, nil)
		r.parts[2].failClose = errBoom
		rows, err := r.drain()
		if !errors.Is(err, errBoom) {
			t.Errorf("%s: stream ended with %v, want %v", name, err, errBoom)
		}
		if rows < 40 {
			t.Errorf("%s: %d rows, want partition 2's 40 at least", name, rows)
		}
		r.settle(t, name, errBoom)
	})
	for _, workers := range []int{1, 4} {
		name := fmt.Sprintf("abandoned, workers %d", workers)
		r := newGatherRig(t, 6, workers, true, nil)
		r.parts[0].failClose = errBoom
		if err := r.g.Open(r.c); err != nil {
			t.Fatal(err)
		}
		var b Batch
		if ok, err := r.g.Next(&b); !ok || err != nil {
			t.Fatalf("%s: first batch: %v %v", name, ok, err)
		}
		r.settle(t, name, errBoom)
	}
}

// TestGatherCancelledMidStream cancels the context from inside a partition.
// One variant has partitions that notice (they fail mid-stream with the
// context's error); the other has partitions that run on regardless, so the
// cancellation is caught where the next partition would start.
func TestGatherCancelledMidStream(t *testing.T) {
	for _, checks := range []bool{true, false} {
		gatherModes(func(name string, workers int, ordered bool) {
			name = fmt.Sprintf("%s partitions check %v", name, checks)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			r := newGatherRig(t, 6, workers, ordered, ctx)
			for _, sp := range r.parts {
				sp.checksCtx = checks
			}
			r.parts[0].atNext = func(n int) {
				if n == 5 {
					cancel()
				}
			}
			// Partitions 1-4 wait for the cancellation: every worker is busy
			// until it, so "the last never started" is deterministic.
			for _, sp := range r.parts[1:5] {
				sp.atNext = func(int) { <-ctx.Done() }
			}
			if _, err := r.drain(); !errors.Is(err, context.Canceled) {
				t.Errorf("%s: stream ended with %v, want %v", name, err, context.Canceled)
			}
			r.settle(t, name, context.Canceled)
			if r.p.opens[5] != 0 {
				t.Errorf("%s: the last partition started after the cancellation", name)
			}
		})
	}
}

// TestGatherClosedMidStream: the consumer walks away after one batch while
// producers still have rows — and, on lanes, sit blocked on the full channel.
// Close must stop and drain them.
func TestGatherClosedMidStream(t *testing.T) {
	gatherModes(func(name string, workers int, ordered bool) {
		r := newGatherRig(t, 6, workers, ordered, nil)
		var produced atomic.Int64
		for _, sp := range r.parts {
			sp.batches = 1000
			sp.atNext = func(int) { produced.Add(1) }
		}
		if err := r.g.Open(r.c); err != nil {
			t.Fatal(err)
		}
		var b Batch
		if ok, err := r.g.Next(&b); !ok || err != nil {
			t.Fatalf("%s: first batch: %v %v", name, ok, err)
		}
		if workers > 1 && !ordered {
			// Let the lanes fill the channel, so Close finds them blocked.
			for produced.Load() < int64(cap(r.g.ch)) {
				runtime.Gosched()
			}
		}
		r.settle(t, name, nil)
		if n := produced.Load(); n >= 6*1000 {
			t.Errorf("%s: the partitions ran to completion (%d batches) after Close", name, n)
		}
	})
}

// TestOrderedGatherRunsInOrder: an ordered gather has one lane at every
// worker count — one partition open at a time, rows in partition order.
func TestOrderedGatherRunsInOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		r := newGatherRig(t, 6, workers, true, nil)
		if err := r.g.Open(r.c); err != nil {
			t.Fatal(err)
		}
		var got []int32
		var b Batch
		for {
			ok, err := r.g.Next(&b)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			got = append(got, b.Cols[0]...)
		}
		if len(got) != 6*40 {
			t.Fatalf("workers %d: %d rows, want %d", workers, len(got), 6*40)
		}
		for j, v := range got {
			if int(v) != j/40 {
				t.Fatalf("workers %d: row %d comes from partition %d, want partition order", workers, j, v)
			}
		}
		if r.p.peak != 1 {
			t.Errorf("workers %d: %d partitions open at once", workers, r.p.peak)
		}
		r.settle(t, fmt.Sprintf("ordered, workers %d", workers), nil)
	}
}

// TestGatherPartPanicReachesConsumer: a panic in a partition operator is
// raised on the goroutine that pulls the gather, on one lane as on four,
// and leaves no goroutine of the gather running.
func TestGatherPartPanicReachesConsumer(t *testing.T) {
	gatherModes(func(name string, workers int, ordered bool) {
		r := newGatherRig(t, 6, workers, ordered, nil)
		r.parts[2].atNext = func(n int) {
			if n == 3 {
				panic(errBoom)
			}
		}
		got := func() (v any) {
			defer func() { v = recover() }()
			r.drain()
			return nil
		}()
		if got != errBoom {
			t.Errorf("%s: recovered %v, want the partition's panic", name, got)
		}
		if err := r.g.Close(); err != nil {
			t.Errorf("%s: Close after the panic returned %v", name, err)
		}
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > r.base && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > r.base {
			t.Errorf("%s: %d goroutines after the panic, %d before Open", name, n, r.base)
		}
	})
}

// TestGatherClosedWhenMaterializeFails: a join whose streamed inner side, a
// gather, cannot be materialized on a full scratch device fails the run with
// the device's error and still closes the gather: every partition it opened
// is closed once and none of its goroutines is left.
func TestGatherClosedWhenMaterializeFails(t *testing.T) {
	for _, workers := range []int{1, 4} {
		r := newGatherRig(t, 6, workers, false, nil)
		outer := loadTableSim(r.c.Sim, "hdd", 1, []int32{1, 2, 3})
		r.c.Scratch.Node.Size = r.c.Scratch.AllocatedBytes() + 40
		j := &BNLJoin{L: TableInput(outer), R: OpInput(r.g), K1: 2, K2: 2}
		err := programOf(j, &Sink{Sim: r.c.Sim}, r.c).Run()
		if err == nil || !strings.Contains(err.Error(), "full") {
			t.Fatalf("workers %d: want the scratch device's full error, got %v", workers, err)
		}
		for i := range r.parts {
			if r.p.opens[i] > 1 || r.p.closes[i] != r.p.opens[i] {
				t.Errorf("workers %d: partition %d opened %d times, closed %d", workers, i, r.p.opens[i], r.p.closes[i])
			}
		}
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > r.base && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > r.base {
			t.Errorf("workers %d: %d goroutines after the run, %d before", workers, n, r.base)
		}
	}
}
