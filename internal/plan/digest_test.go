package plan

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ocas/internal/exec"
	"ocas/internal/obs"
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

// bagArities are the arities randomBag draws: the narrow rows most plans
// emit, and 12, 13 and 14, which pack into 52, 56 and 60 bytes — the last
// row that SHA-256 pads into one block and the first two that need two.
var bagArities = []int{1, 2, 3, 4, 5, 12, 13, 14}

// randomBag draws batches of mixed arity (bagArities) and random length
// that fill exactly words of a chunk (a batch of k rows of arity a is one
// segment of 2+k*a words), so a bag can be sized against the chunk
// boundary.
func randomBag(r *rand.Rand, words int) (batches []*exec.Batch, rows [][]int32) {
	for rem := words; rem >= 3; {
		a := bagArities[r.Intn(len(bagArities))]
		k := min(1+r.Intn(300), (rem-2)/a)
		left := rem - 2 - k*a
		for k > 1 && left > 0 && left < 3 { // too few words for a segment
			k, left = k-1, left+a
		}
		if k == 0 || left > 0 && left < 3 { // one row takes it all
			a, k = rem-2, 1
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
		rem -= 2 + k*a
	}
	return batches, rows
}

// FuzzBagDigest: a bag fed batch-wise through the chunks and the helper
// strand digests exactly as the per-row definition says, whatever the mix of
// arities, the split into batches and the position of the chunk boundaries.
func FuzzBagDigest(f *testing.F) {
	const chunk = digestChunkWords
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
		copied := 0
		for _, b := range batches {
			d.add(b)
			copied += 2 + b.Rows()*b.Arity
		}
		if copied <= chunk && d.full != nil {
			t.Errorf("%d words of segments started the helper strand; a chunk is %d", copied, chunk)
		}
		if copied > chunk && d.full == nil {
			t.Errorf("%d words of segments and no helper strand; a chunk is %d", copied, chunk)
		}
		if got, want := d.hex(), digestRows(rows); got != want {
			t.Errorf("%d rows in %d batches, %d words: digest %s, definition %s", len(rows), len(batches), copied, got, want)
		}
	})
}

// TestDigestLanesMatchSHA256: segments hashed sixteen rows at a time by the
// lane kernel sum as crypto/sha256 says, at every arity that fits one block,
// 0 to 12 values, in order through one fold (so the message template follows
// each change of arity), and at segments of 1 to 40 rows and one of a full
// chunk (so every tail of 1 to 15 lanes). The words after each segment are
// random and nonzero, so a lane read or summed past the segment's end shows.
func TestDigestLanesMatchSHA256(t *testing.T) {
	if !useAVX512 {
		t.Skip("no AVX-512 kernel in this build or on this CPU: rows hash through crypto/sha256")
	}
	r := rand.New(rand.NewSource(1))
	f := new(digestFold)
	for a := 0; a <= 12; a++ {
		for k := 1; k <= 41; k++ {
			n := k // rows: 1 to 40, then a full chunk's
			if k == 41 {
				n = (digestChunkWords - 2) / max(a, 1)
			}
			chunk := []int32{int32(a), int32(n)}
			for range a*n + 16 {
				chunk = append(chunk, int32(r.Uint32()|1))
			}
			chunk = chunk[:2+a*n]
			var sum, want sum256
			f.add(&sum, chunk)
			for i := 0; i < n; i++ {
				msg := binary.LittleEndian.AppendUint32(nil, uint32(a))
				for c := 0; c < a; c++ {
					msg = binary.LittleEndian.AppendUint32(msg, uint32(chunk[2+c*n+i]))
				}
				h := sha256.Sum256(msg)
				want.add(sum256{
					binary.BigEndian.Uint64(h[24:]),
					binary.BigEndian.Uint64(h[16:]),
					binary.BigEndian.Uint64(h[8:]),
					binary.BigEndian.Uint64(h[0:]),
				})
			}
			if sum != want {
				t.Fatalf("%d rows of %d values: sum %x, crypto/sha256 %x", n, a, sum, want)
			}
		}
	}
}

// digestBenchArities are the arities the digest benchmarks run: 1, 2 and 4
// (the rows of grace and product) take the lane kernel where there is one,
// 13 (56 bytes) always takes crypto/sha256.
var digestBenchArities = []int{1, 2, 4, 13}

// benchBatch is a batch of the executor's default size, of one arity.
func benchBatch(arity int) *exec.Batch {
	r := rand.New(rand.NewSource(1))
	b := &exec.Batch{Arity: arity, Cols: make([][]int32, arity)}
	for c := range b.Cols {
		b.Cols[c] = make([]int32, exec.DefaultBatchRows)
		for i := range b.Cols[c] {
			b.Cols[c][i] = int32(r.Uint32())
		}
	}
	return b
}

// BenchmarkBagDigestEmit is the emitting strand's share per row: add
// copying batches of the executor's default size into one chunk, which is
// never handed off (the helper parked, as it were, with spares to give).
func BenchmarkBagDigestEmit(b *testing.B) {
	for _, arity := range digestBenchArities {
		b.Run(fmt.Sprintf("arity=%d", arity), func(b *testing.B) {
			batch := benchBatch(arity)
			perChunk := digestChunkWords / (2 + arity*exec.DefaultBatchRows)
			var d bagDigest
			for b.Loop() {
				d.chunk = d.chunk[:0]
				for range perChunk {
					d.add(batch)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*perChunk*exec.DefaultBatchRows), "ns/row")
		})
	}
}

// BenchmarkBagDigestFold is the folding side's share per row: one full
// chunk of such batches hashed into a sum. The sha256 cases hash the same
// chunks through addMessages alone, the road a CPU without AVX-512 takes.
func BenchmarkBagDigestFold(b *testing.B) {
	for _, arity := range digestBenchArities {
		b.Run(fmt.Sprintf("arity=%d", arity), func(b *testing.B) {
			benchFold(b, arity, (*digestFold).add)
		})
	}
	messages := func(f *digestFold, s *sum256, chunk []int32) {
		for len(chunk) > 0 {
			a, n := int(chunk[0]), int(chunk[1])
			f.addMessages(s, a, n, chunk[2:2+a*n])
			chunk = chunk[2+a*n:]
		}
	}
	for _, arity := range []int{1, 2} {
		b.Run(fmt.Sprintf("sha256/arity=%d", arity), func(b *testing.B) {
			benchFold(b, arity, messages)
		})
	}
}

// benchFold times fold over one full chunk of batches of one arity.
func benchFold(b *testing.B, arity int, fold func(*digestFold, *sum256, []int32)) {
	batch := benchBatch(arity)
	perChunk := digestChunkWords / (2 + arity*exec.DefaultBatchRows)
	var d bagDigest
	for range perChunk {
		d.add(batch)
	}
	f := new(digestFold)
	var s sum256
	for b.Loop() {
		fold(f, &s, d.chunk)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*perChunk*exec.DefaultBatchRows), "ns/row")
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
		// A helper that does not get to run until the last row is copied,
		// and three spare chunks: the emitter queues three chunks, folds the
		// other thirty-odd itself, and the digest is the definition's.
		base := settledGoroutines()
		batches, rows := randomBag(rand.New(rand.NewSource(3)), 40*digestChunkWords)
		d := bagDigest{
			full:   make(chan []int32, digestChunks),
			spare:  make(chan []int32, digestChunks),
			folded: make(chan sum256, 1),
		}
		defer d.stop()
		const spares = 3
		for i := 0; i < spares; i++ {
			d.spare <- make([]int32, 0, digestChunkWords)
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

	// An identity scan written to a second disk: 2^17 rows of two values
	// fill 65 chunks, so the strand is up long before any run below ends.
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
		// not two: the sink's eviction past row 65536 fails with the storage
		// layer's error and Program.Run stops on it.
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

// TestDigestChunkCounts: the exec.run span counts the output chunks each
// strand folded. An output of one chunk is folded by the emitter at the
// end of the run, with no helper started; the chunks of a long one are
// shared between the strands however their race goes, the last one always
// the emitter's.
func TestDigestChunkCounts(t *testing.T) {
	for _, tc := range []struct {
		rows, chunks int64
	}{{100, 1}, {1 << 17, 66}} {
		c, err := Compile(Request{
			Program: "for (x <- R) [x]", Hier: "two-hdd", Output: "hdd2",
			Inputs: map[string]Input{"R": {Node: "hdd", Rows: tc.rows}},
			Depth:  3, Space: 200,
		})
		if err != nil {
			t.Fatal(err)
		}
		p, err := c.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTrace("digest")
		root := tr.StartSpan("test", nil)
		if _, err := ExecutePlan(obs.ContextWith(context.Background(), root), c, p, ExecOptions{Seed: 1}); err != nil {
			t.Fatal(err)
		}
		var attrs map[string]any
		for _, sp := range tr.Snapshot().Spans {
			if sp.Name == "exec.run" {
				attrs = sp.Attrs
			}
		}
		helped, _ := attrs["digestHelperChunks"].(int)
		own, _ := attrs["digestOwnChunks"].(int)
		if int64(helped+own) != tc.chunks || own < 1 || tc.chunks == 1 && helped != 0 {
			t.Errorf("%d rows: the helper folded %d chunks and the emitter %d, want %d in all, the emitter's at least the last",
				tc.rows, helped, own, tc.chunks)
		}
	}
}
