package storage

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ocas/internal/memory"
)

// flat gathers a spill's payload row-major without charging.
func flat(sp *Spill) []int32 {
	cols, n := sp.View(0, sp.Records(), nil)
	var out []int32
	for i := int64(0); i < n; i++ {
		for _, col := range cols {
			out = append(out, col[i])
		}
	}
	return out
}

// replayCase is one draw of FuzzChargeReplay: the kind of run (0 reads, 1
// evictions, 2 a repeated CPU charge), a device, where the run starts, its
// block size and count, and the seed of everything else — the record width,
// the per-row or per-byte cost, and the charges that move the arm and the
// erase window before it.
type replayCase struct {
	kind          int
	flash         bool
	window        int64 // the flash device's MaxSeqW in bytes; 0 leaves the paper's 256 KiB
	start, k, n   int64
	moves         int
	seed          int64
	child, byCall bool
}

// replayState is everything a strand's charges leave behind.
type replayState struct {
	Clock   uint64 // math.Float64bits of the shared clock (after Adopt, for a child)
	Strand  uint64 // and of the strand's own seconds before it
	Ledgers map[string]Ledger
	Totals  [4]int64 // the strand's bytesRead, bytesWrite, readInits, writeInits
	Cursors []string
	Records int64 // the run spill's write position
	Claimed int64 // and its device's claim
	Payload []int32
}

// run plays the case on a fresh simulator: the run-length calls when byCall
// is unset, the calls they stand for otherwise.
func (c replayCase) run(t *testing.T) replayState {
	t.Helper()
	h := memory.HDDFlash(64 * memory.MiB)
	if c.window > 0 {
		h.Node("ssd").MaxSeqW = c.window
	}
	sim := NewSim(h)
	sim.DefaultCPU()
	name := "hdd"
	if c.flash {
		name = "ssd"
	}
	d, err := sim.Device(name)
	if err != nil {
		t.Fatal(err)
	}
	a := sim.Root()
	if c.child {
		a = sim.NewAcct()
	}
	r := rand.New(rand.NewSource(c.seed))
	width := int64(4 * (1 + r.Intn(2)))
	rows := c.k * c.n
	if c.kind == 0 && r.Intn(2) == 0 {
		rows -= r.Int63n(c.k) // a read run's last block may be short
	}
	sp, _ := d.NewSpill(width, 0)
	other, _ := d.NewSpill(width, 0)
	stored := c.start
	if c.kind == 0 {
		stored += rows
	}
	if err := sp.PreloadCols(columns(make([]int32, stored*width/4), width)); err != nil {
		t.Fatal(err)
	}
	recs := func(n int64) []int32 {
		out := make([]int32, n*width/4)
		for i := range out {
			out[i] = int32(r.Uint32())
		}
		return out
	}
	for i := 0; i < c.moves; i++ {
		switch m := r.Intn(5); {
		case m == 0:
			appendRows(t, a, other, recs(1+r.Int63n(8)))
		case m == 1 && sp.Records() > 0:
			sp.ReadColsAt(a, r.Int63n(sp.Records()), 1+r.Int63n(8), nil)
		case m == 2:
			a.CPU(1+r.Int63n(100), sim.CmpSeconds)
		case m == 3 && c.kind == 0 && c.start > 0:
			// Leave the arm where the run starts: no seek for its first block.
			back := 1 + r.Int63n(c.start)
			sp.ReadColsAt(a, c.start-back, back, nil)
		case m == 4 && c.kind == 1:
			appendRows(t, a, sp, recs(1+r.Int63n(8))) // the run starts later, still at the end
		}
	}
	switch c.kind {
	case 0:
		perRow := []float64{0, sim.CmpSeconds, sim.HashSeconds}[r.Intn(3)]
		if !c.byCall {
			sp.ChargeReads(a, c.start, c.k, rows, perRow)
			break
		}
		for idx := c.start; idx < c.start+rows; {
			_, got := sp.ReadColsAt(a, idx, min(c.k, c.start+rows-idx), nil)
			a.CPU(got, perRow)
			idx += got
		}
	case 1:
		perByte := []float64{0, sim.MoveSeconds}[r.Intn(2)]
		if !c.byCall {
			if err := sp.ChargeAppends(a, c.k, c.n, perByte); err != nil {
				t.Fatal(err)
			}
			break
		}
		cols := columns(recs(rows), width)
		for i := int64(0); i < c.n; i++ {
			a.CPU(c.k*width, perByte)
			block := make([][]int32, len(cols))
			for j := range cols {
				block[j] = cols[j][i*c.k:]
			}
			sp.AppendCols(a, block, c.k)
		}
	default:
		if !c.byCall {
			a.CPUTimes(c.n, c.k, sim.CmpSeconds)
			break
		}
		for i := int64(0); i < c.n; i++ {
			a.CPU(c.k, sim.CmpSeconds)
		}
	}

	label := func(s *Spill) string {
		switch s {
		case sp:
			return "run"
		case other:
			return "other"
		}
		return "none"
	}
	st := replayState{
		Strand:  math.Float64bits(a.Seconds()),
		Totals:  [4]int64{a.BytesRead(), a.BytesWrite(), a.ReadInits(), a.WriteInits()},
		Records: sp.Records(),
		Claimed: d.AllocatedBytes(),
		Payload: flat(sp),
	}
	for _, cu := range a.cursors {
		st.Cursors = append(st.Cursors, fmt.Sprintf("%s arm=%s@%d erase=%s[%d,%d)", cu.dev.Node.Name,
			label(cu.stream), cu.pos, label(cu.eraseStream), cu.eraseStart, cu.eraseEnd))
	}
	if c.child {
		sim.Root().Adopt(a)
	}
	st.Clock = math.Float64bits(sim.Clock.Seconds())
	st.Ledgers = map[string]Ledger{}
	for n, dev := range sim.Devices {
		st.Ledgers[n] = dev.Led
	}
	return st
}

// FuzzChargeReplay: a run-length charge — block reads each followed by their
// CPU charge, evictions each preceded by theirs, a CPU charge repeated —
// leaves the clock (bit for bit), the device ledgers, the strand's totals,
// its arm and erase cursors and the spill exactly as the calls it stands for
// leave them: on the root, and on a child strand adopted afterwards. The
// evictions' run is ChargeAppends, which stores no payload: its spill is
// compared by write position and claim.
func FuzzChargeReplay(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		for kind := uint8(0); kind < 3; kind++ {
			f.Add(seed, kind, false, uint16(0), uint16(17*seed), uint8(3*seed), uint16(300), uint8(5))
			f.Add(seed, kind, true, uint16(0), uint16(65000), uint8(64), uint16(2000), uint8(2))
			f.Add(seed, kind, true, uint16(24*seed), uint16(5), uint8(7), uint16(50), uint8(9))
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, kind uint8, flash bool, window, start uint16, k uint8, n uint16, moves uint8) {
		c := replayCase{kind: int(kind % 3), flash: flash, window: int64(window), start: int64(start),
			k: int64(k) + 1, n: int64(n)%2048 + 1, moves: int(moves) % 16, seed: seed}
		for _, c.child = range []bool{false, true} {
			c.byCall = false
			got := c.run(t)
			c.byCall = true
			want := c.run(t)
			if c.kind == 1 {
				got.Payload, want.Payload = nil, nil // ChargeAppends stores nothing
			}
			if !reflect.DeepEqual(got, want) {
				got.Payload, want.Payload = nil, nil
				t.Errorf("%+v:\n one run: %+v\nits calls: %+v", c, got, want)
			}
		}
	})
}
