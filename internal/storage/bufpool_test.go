package storage

import (
	"testing"

	"ocas/internal/memory"
)

func TestPoolBudgetEnforced(t *testing.T) {
	p := NewBufferPool(256)
	f, err := p.PinUpTo(32, 32, 8) // exactly the budget
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.PinUpTo(1, 1, 8); err == nil {
		t.Fatal("pin beyond a fully pinned budget must fail")
	}
	// PinUpTo grants what fits after the pinned set shrinks.
	f.Release()
	f.Release() // idempotent: the bytes come back once
	if st := p.Stats(); st.UsedBytes != 0 || st.PeakBytes != 256 || st.Pins != 1 {
		t.Errorf("used/peak/pins after release = %d/%d/%d want 0/256/1", st.UsedBytes, st.PeakBytes, st.Pins)
	}
	g, err := p.PinUpTo(64, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if c := g.Cap(8); c < 1 || c > 32 {
		t.Errorf("grant %d rows outside budget", c)
	}
}

// TestSpillLedgerCharges verifies spill traffic lands on the device ledger
// as the paper's two events: InitCom (a seek per discontinuity) and UnitTr
// (per byte transferred).
func TestSpillLedgerCharges(t *testing.T) {
	sim := NewSim(memory.HDDRAM(64 * memory.MiB))
	d, err := sim.Device("hdd")
	if err != nil {
		t.Fatal(err)
	}
	p := NewBufferPool(0)
	sp, err := p.NewSpill(d, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Stats().Spills; got != 1 {
		t.Errorf("spill count = %d want 1", got)
	}
	rows := make([]int32, 2*1000)
	for i := range rows {
		rows[i] = int32(i)
	}
	before := sim.Clock.Seconds()
	appendRows(t, sim.Root(), sp, rows)
	if d.Led.BytesWrite != 8000 {
		t.Errorf("ledger bytesWrite = %d want 8000", d.Led.BytesWrite)
	}
	if d.Led.WriteInits != 1 {
		t.Errorf("sequential spill append must charge one InitCom, got %d", d.Led.WriteInits)
	}
	if sim.Clock.Seconds() <= before {
		t.Error("spill append must advance the virtual clock")
	}
	// Sequential read-back: one seek, all bytes.
	for idx := int64(0); idx < sp.Records(); idx += 100 {
		if cols, n := sp.ReadColsAt(sim.Root(), idx, 100, nil); len(cols) != 2 || n != 100 {
			t.Fatalf("read %d columns of %d records want 2 of 100", len(cols), n)
		}
	}
	if d.Led.BytesRead != 8000 {
		t.Errorf("ledger bytesRead = %d want 8000", d.Led.BytesRead)
	}
	if d.Led.ReadInits != 1 {
		t.Errorf("sequential spill reads must charge one InitCom, got %d", d.Led.ReadInits)
	}
}

// TestSpillGrowth crosses the chunk boundary of a growable spill and checks
// the data survives intact.
func TestSpillGrowth(t *testing.T) {
	sim := NewSim(memory.HDDRAM(64 * memory.MiB))
	d, _ := sim.Device("hdd")
	sp, err := d.NewSpill(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(spillChunkRecords + 1000)
	buf := make([]int32, 512)
	var next int32
	for written := int64(0); written < n; {
		m := int64(len(buf))
		if n-written < m {
			m = n - written
		}
		for i := int64(0); i < m; i++ {
			buf[i] = next
			next++
		}
		appendRows(t, sim.Root(), sp, buf[:m])
		written += m
	}
	if sp.Records() != n {
		t.Fatalf("records = %d want %d", sp.Records(), n)
	}
	// Read across the chunk boundary.
	blk, _ := sp.ReadColsAt(sim.Root(), spillChunkRecords-5, 10, nil)
	for i, v := range blk[0] {
		if want := int32(spillChunkRecords - 5 + i); v != want {
			t.Fatalf("cross-chunk read wrong at %d: %d want %d", i, v, want)
		}
	}
}

// TestPoolChildAdopt: child pools enforce their own fixed budgets and fold
// their counters into the parent deterministically.
func TestPoolChildAdopt(t *testing.T) {
	p := NewBufferPool(256)
	c1 := p.Child()
	c2 := p.Child()
	f, err := c1.PinUpTo(32, 32, 8) // exactly the inherited budget
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.PinUpTo(1, 1, 8); err == nil {
		t.Fatal("child budget must be enforced locally")
	}
	g, err := c2.PinUpTo(64, 1, 8) // shrinks within the sibling's own budget
	if err != nil {
		t.Fatal(err)
	}
	if c := g.Cap(8); c > 32 {
		t.Errorf("child grant %d rows beyond its 256-byte budget", c)
	}
	if p.Stats().Pins != 0 {
		t.Error("child activity must not leak into the parent before Adopt")
	}
	f.Release()
	g.Release()
	p.Adopt(c1, c2)
	st := p.Stats()
	if st.Pins != 2 {
		t.Errorf("adopted pins = %d want 2", st.Pins)
	}
	if st.Shrinks == 0 {
		t.Error("the shrunken child grant must surface in the adopted stats")
	}
	if st.PeakBytes != 256 {
		t.Errorf("adopted peak = %d want 256 (max per-pool peak)", st.PeakBytes)
	}
}
