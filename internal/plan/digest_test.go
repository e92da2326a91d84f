package plan

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ocas/internal/exec"
	"ocas/internal/ocal"
)

// digestRows is the output digest's definition, one row at a time and one
// byte at a time — the spec bagDigest's chunks, limbs and helper strand are
// tested against, and the differential tests' side of every comparison.
func digestRows(rows [][]int32) string {
	var acc [sha256.Size]byte
	for _, row := range rows {
		buf := binary.LittleEndian.AppendUint32(nil, uint32(len(row)))
		for _, v := range row {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		}
		h := sha256.Sum256(buf)
		carry := uint16(0)
		for i := sha256.Size - 1; i >= 0; i-- {
			s := uint16(acc[i]) + uint16(h[i]) + carry
			acc[i] = byte(s)
			carry = s >> 8
		}
	}
	return hex.EncodeToString(acc[:])
}

// randomBag draws batches of mixed arity (1-5) and random length whose rows
// pack into exactly words uint32s (a row of arity a packs into 1+a), so a
// bag can be sized against the chunk boundary.
func randomBag(r *rand.Rand, words int) (batches []*exec.Batch, rows [][]int32) {
	for rem := words; rem >= 2; {
		a := 1 + r.Intn(5)
		k := 1 + r.Intn(300)
		if k*(1+a) > rem {
			k = rem / (1 + a)
		}
		switch {
		case k == 0: // rem is 2..5: one row takes it all
			a, k = rem-1, 1
		case rem-k*(1+a) == 1 && k > 1: // a single word cannot hold a row
			k--
		case rem-k*(1+a) == 1: // rem is 1+a+1, 4..7
			a = rem - 1
			if a > 5 {
				a = 2
			}
		}
		b := &exec.Batch{Arity: a, Cols: make([][]int32, a)}
		for c := range b.Cols {
			b.Cols[c] = make([]int32, k)
			for i := range b.Cols[c] {
				b.Cols[c][i] = int32(r.Uint32())
			}
		}
		for i := 0; i < k; i++ {
			row := make([]int32, a)
			for c, col := range b.Cols {
				row[c] = col[i]
			}
			rows = append(rows, row)
		}
		batches = append(batches, b)
		rem -= k * (1 + a)
	}
	return batches, rows
}

// FuzzBagDigest: a bag fed batch-wise through the chunks and the helper
// strand digests exactly as the per-row definition says, whatever the mix of
// arities, the split into batches and the position of the chunk boundaries.
func FuzzBagDigest(f *testing.F) {
	const chunk = digestChunkBytes / 4
	sizes := []int{0, chunk - 1, chunk, chunk + 1, 3*chunk + 7}
	for i := range sizes {
		f.Add(int64(i), uint16(i))
	}
	f.Add(int64(99), uint16(len(sizes)+1234))
	f.Fuzz(func(t *testing.T, seed int64, size uint16) {
		r := rand.New(rand.NewSource(seed))
		words := int(size) - len(sizes)
		if int(size) < len(sizes) {
			words = sizes[size]
		}
		batches, rows := randomBag(r, words)
		var d bagDigest
		defer d.stop()
		packed := 0
		for _, b := range batches {
			d.add(b)
			packed += 4 * b.Rows() * (1 + b.Arity)
		}
		if packed <= digestChunkBytes && d.full != nil {
			t.Errorf("%d packed bytes started the helper strand; a chunk is %d", packed, digestChunkBytes)
		}
		if packed > 2*digestChunkBytes && d.full == nil {
			t.Errorf("%d packed bytes and no helper strand", packed)
		}
		if got, want := d.hex(), digestRows(rows); got != want {
			t.Errorf("%d rows in %d batches, %d bytes: digest %s, definition %s", len(rows), len(batches), packed, got, want)
		}
	})
}

// waitGoroutines polls until the goroutine count is back at base: a stopped
// strand has handed over its sum but may not have left the scheduler yet.
func waitGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, %d before the run", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// settledGoroutines is the goroutine count once it has stopped falling.
// A worker pool's Wait returns when every worker has signalled, not when
// every worker has exited, so right after a synthesis (the search and the
// optimizer fan out) a few of its workers may still be on their way out; a
// count read then is too high by those.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for steady := 0; steady < 10; {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m < n {
			n, steady = m, 0
		} else {
			steady++
		}
	}
	return n
}

// cancelAfter cancels itself at the n-th look at Done — the executor looks
// once per batch and per block read — and records how many goroutines were
// running at that moment.
type cancelAfter struct {
	context.Context
	cancel context.CancelFunc
	left   atomic.Int64
	seen   atomic.Int64
}

func (c *cancelAfter) Done() <-chan struct{} {
	if c.left.Add(-1) == 0 {
		c.seen.Store(int64(runtime.NumGoroutine()))
		c.cancel()
	}
	return c.Context.Done()
}

// TestDigestStrandEnds: the helper strand of a run's digest does not outlive
// RunBound, however the run ends, and the run does not wait for it.
func TestDigestStrandEnds(t *testing.T) {
	t.Run("stalled helper", func(t *testing.T) {
		// A helper that does not get to run until the last row is packed,
		// and three spare chunks: the emitter queues three chunks, folds the
		// other thirty-odd itself, and the digest is the definition's.
		base := settledGoroutines()
		batches, rows := randomBag(rand.New(rand.NewSource(3)), 40*digestChunkBytes/4)
		d := bagDigest{
			full:   make(chan []byte, digestChunks),
			spare:  make(chan []byte, digestChunks),
			folded: make(chan sum256, 1),
		}
		defer d.stop()
		const spares = 3
		for i := 0; i < spares; i++ {
			d.spare <- make([]byte, 0, digestChunkBytes)
		}
		release := make(chan struct{})
		go func() {
			<-release
			d.help()
		}()
		for _, b := range batches {
			d.add(b)
		}
		if len(d.full) != spares || len(d.spare) != 0 {
			t.Errorf("%d chunks queued and %d spare behind a stalled helper, want %d and 0", len(d.full), len(d.spare), spares)
		}
		if d.sum == (sum256{}) {
			t.Error("the emitter folded nothing")
		}
		close(release)
		if got, want := d.hex(), digestRows(rows); got != want {
			t.Errorf("digest %s with the emitter folding, definition %s", got, want)
		}
		waitGoroutines(t, base, "digest behind a stalled helper")
	})

	// An identity scan written to a second disk: 2^17 rows of 12 packed
	// bytes are 96 chunks, so the strand is up long before any run below ends.
	c, err := Compile(Request{
		Program: "for (x <- R) [x]", Hier: "two-hdd", Output: "hdd2",
		Inputs: map[string]Input{"R": {Node: "hdd", Rows: 1 << 17}},
		Depth:  3, Space: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	t.Run("completed", func(t *testing.T) {
		base := settledGoroutines()
		rep, err := ExecutePlan(context.Background(), c, p, ExecOptions{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if rep.OutRows != 1<<17 {
			t.Fatalf("%d output rows, want %d", rep.OutRows, 1<<17)
		}
		waitGoroutines(t, base, "completed run")
	})

	t.Run("cancelled", func(t *testing.T) {
		base := settledGoroutines()
		ctx := &cancelAfter{}
		ctx.Context, ctx.cancel = context.WithCancel(context.Background())
		defer ctx.cancel()
		ctx.left.Store(600)
		_, err := ExecutePlan(ctx, c, p, ExecOptions{Seed: 1})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled run returned %v, want context.Canceled", err)
		}
		if got := ctx.seen.Load(); got != int64(base)+1 {
			t.Errorf("%d goroutines when the run was cancelled, want the test's %d and the strand", got, base)
		}
		waitGoroutines(t, base, "cancelled run")
	})

	t.Run("lower error", func(t *testing.T) {
		base := settledGoroutines()
		prog, err := ocal.ParseFile(`unfoldR(\g -> <[], <g.1>>)(<R>)`)
		if err != nil {
			t.Fatal(err)
		}
		_, err = RunProgram(context.Background(), c.H, prog, p.Params, c.Task, ExecOptions{Seed: 1})
		if err == nil || !strings.Contains(err.Error(), "plan: lower") {
			t.Fatalf("run returned %v, want a lowering error", err)
		}
		waitGoroutines(t, base, "run failing in Lower")
	})

	t.Run("volume overflow", func(t *testing.T) {
		// Room for one growth chunk of the output (64k rows of 8 bytes) and
		// not two: the storage layer panics at row 65537 and Program.Run
		// recovers.
		base := settledGoroutines()
		small, err := Compile(c.Req)
		if err != nil {
			t.Fatal(err)
		}
		small.H.Node("hdd2").Size = 1<<20 - 1
		_, err = ExecutePlan(context.Background(), small, p, ExecOptions{Seed: 1})
		if err == nil || !strings.Contains(err.Error(), "storage:") {
			t.Fatalf("run returned %v, want the storage layer's overflow", err)
		}
		waitGoroutines(t, base, "run overflowing its output volume")
	})
}
