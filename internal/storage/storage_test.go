package storage

import (
	"math"
	"strings"
	"sync"
	"testing"

	"ocas/internal/memory"
)

func newHDDSim(t *testing.T) (*Sim, *Device) {
	t.Helper()
	s := NewSim(memory.HDDRAM(64 * memory.MiB))
	d, err := s.Device("hdd")
	if err != nil {
		t.Fatal(err)
	}
	return s, d
}

// preloadedSpill returns a spill holding n records of the given width.
func preloadedSpill(t *testing.T, d *Device, n, width int64) *Spill {
	t.Helper()
	sp, err := d.NewSpill(width, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.PreloadCols(columns(make([]int32, n*width/4), width)); err != nil {
		t.Fatal(err)
	}
	return sp
}

// columns stripes row-major records of width bytes into column vectors.
func columns(recs []int32, width int64) [][]int32 {
	cols := make([][]int32, width/4)
	for c := range cols {
		cols[c] = make([]int32, 0, int64(len(recs))*4/width)
	}
	for i, v := range recs {
		cols[i%len(cols)] = append(cols[i%len(cols)], v)
	}
	return cols
}

// appendRows appends row-major records to sp, failing the test (from any
// goroutine) when the device cannot hold them.
func appendRows(t testing.TB, a *Acct, sp *Spill, recs []int32) {
	if err := sp.AppendCols(a, columns(recs, sp.width), int64(len(recs))*4/sp.width); err != nil {
		t.Error(err)
	}
}

func TestSequentialReadChargesOneSeek(t *testing.T) {
	s, d := newHDDSim(t)
	sp := preloadedSpill(t, d, 1000, 8)
	for i := int64(0); i < 1000; i += 100 {
		sp.ReadColsAt(s.Root(), i, 100, nil)
	}
	if d.Led.ReadInits != 1 {
		t.Errorf("sequential blocked read should seek once, got %d", d.Led.ReadInits)
	}
	wantBytes := int64(1000 * 8)
	if d.Led.BytesRead != wantBytes {
		t.Errorf("read %d bytes want %d", d.Led.BytesRead, wantBytes)
	}
	wantSecs := memory.HDDSeek + float64(wantBytes)*memory.HDDUnitTr
	if math.Abs(s.Clock.Seconds()-wantSecs) > 1e-9 {
		t.Errorf("clock %v want %v", s.Clock.Seconds(), wantSecs)
	}
}

func TestRandomReadsSeekEachTime(t *testing.T) {
	s, d := newHDDSim(t)
	sp := preloadedSpill(t, d, 1000, 8)
	for i := 0; i < 10; i++ {
		sp.ReadColsAt(s.Root(), int64((i*37)%900), 1, nil)
	}
	if d.Led.ReadInits < 9 {
		t.Errorf("random reads should seek nearly every time, got %d", d.Led.ReadInits)
	}
}

func TestInterleavedReadWriteSeeks(t *testing.T) {
	// Alternating read and append between two streams of one disk forces
	// arm movement both ways — the same-disk write-out effect of Table 1.
	s, d := newHDDSim(t)
	in := preloadedSpill(t, d, 100, 8)
	out, err := d.NewSpill(8, 100)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]int32, 2)
	for i := int64(0); i < 50; i++ {
		in.ReadColsAt(s.Root(), i, 1, nil)
		appendRows(t, s.Root(), out, row)
	}
	if d.Led.ReadInits < 49 || d.Led.WriteInits < 49 {
		t.Errorf("interleaving must seek per op: reads %d writes %d",
			d.Led.ReadInits, d.Led.WriteInits)
	}
}

func TestFlashEraseBlocks(t *testing.T) {
	s := NewSim(memory.HDDFlash(64 * memory.MiB))
	d, err := s.Device("ssd")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := d.NewSpill(4, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	// Write 1 MiB sequentially: erase block is 256K -> 4 erases.
	buf := make([]int32, 1<<10)
	for i := 0; i < 1<<8; i++ {
		appendRows(t, s.Root(), sp, buf) // 4 KiB per append
	}
	if d.Led.WriteInits != 4 {
		t.Errorf("expected 4 erases for 1MiB/256K, got %d", d.Led.WriteInits)
	}
	// Flash reads have no seek penalty (InitComUp = 0).
	before := s.Clock.Seconds()
	sp.ReadColsAt(s.Root(), 0, 1, nil)
	sp.ReadColsAt(s.Root(), 100000, 1, nil)
	perByte := memory.SSDUnitTr
	if got := s.Clock.Seconds() - before; math.Abs(got-8*perByte) > 1e-12 {
		t.Errorf("flash random reads should cost transfer only, got %v", got)
	}
}

// TestDeviceFullIsAnError: every claim a device cannot hold — a reservation,
// a growth chunk, a preload — fails its call with the storage error and
// leaves the spill, the device's claim and the ledger as they were.
func TestDeviceFullIsAnError(t *testing.T) {
	s, d := newHDDSim(t)
	d.Node.Size = 3 * spillChunkRecords * 4
	if _, err := d.NewSpill(1024, 1<<40); err == nil || !strings.Contains(err.Error(), "storage: device hdd full") {
		t.Errorf("reserving beyond the device: %v", err)
	}
	if got := d.AllocatedBytes(); got != 0 {
		t.Fatalf("a refused reservation claimed %d bytes", got)
	}
	// Reserve all of the device but one growth chunk of 4-byte records, and
	// fill the reservation: the first chunk fits, the second does not.
	reserve := (d.Node.Size - spillChunkRecords*4) / 4
	sp, err := d.NewSpill(4, reserve)
	if err != nil {
		t.Fatal(err)
	}
	appendRows(t, s.Root(), sp, make([]int32, reserve))
	appendRows(t, s.Root(), sp, make([]int32, spillChunkRecords))
	led, claimed := d.Led, d.AllocatedBytes()
	if err := sp.AppendCols(s.Root(), [][]int32{{1}}, 1); err == nil || !strings.Contains(err.Error(), "storage: device hdd full") {
		t.Errorf("append past the device: %v", err)
	}
	if sp.Records() != reserve+spillChunkRecords || d.Led != led || d.AllocatedBytes() != claimed {
		t.Errorf("a refused append moved the spill to %d records, the ledger to %+v, the claim to %d",
			sp.Records(), d.Led, d.AllocatedBytes())
	}
	empty, err := d.NewSpill(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := empty.PreloadCols([][]int32{{1, 2}}); err == nil || empty.Records() != 0 {
		t.Errorf("preload past the device: %v, %d records", err, empty.Records())
	}
	sp.Free()
	if got := d.AllocatedBytes(); got != 0 {
		t.Errorf("%d bytes claimed once the spills are freed", got)
	}
}

// TestChargeOnlySpillHoldsNoRows: ChargeAppends advances the write position
// and the claim like AppendCols, but stores nothing, so View and ReadColsAt
// of a spill that only took charges return no rows; ReadColsAt charges none.
func TestChargeOnlySpillHoldsNoRows(t *testing.T) {
	s, d := newHDDSim(t)
	sp, err := d.NewSpill(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.ChargeAppends(s.Root(), 100, 3, s.MoveSeconds); err != nil {
		t.Fatal(err)
	}
	if sp.Records() != 300 || d.AllocatedBytes() != spillChunkRecords*8 || d.Led.BytesWrite != 300*8 {
		t.Fatalf("charged 300 records: %d records, %d bytes claimed, ledger %+v", sp.Records(), d.AllocatedBytes(), d.Led)
	}
	if cols, n := sp.View(0, 300, nil); n != 0 || cols != nil {
		t.Errorf("View of a charge-only spill: %d rows", n)
	}
	led := d.Led
	if cols, n := sp.ReadColsAt(s.Root(), 10, 50, nil); n != 0 || cols != nil || d.Led != led {
		t.Errorf("ReadColsAt of a charge-only spill: %d rows, ledger %+v", n, d.Led)
	}
}

// TestPutThenChargeStoresOnce: Reserve sizes the host vectors and claims
// nothing; Put stores records in place, without regrowing the reserved
// vectors, and the ChargeAppends after them claims, charges and counts them
// as AppendCols would. A device too full for the records fails the charge.
func TestPutThenChargeStoresOnce(t *testing.T) {
	s, d := newHDDSim(t)
	sp, err := d.NewSpill(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 1000
	sp.Reserve(n)
	if d.AllocatedBytes() != 0 {
		t.Fatalf("Reserve claimed %d device bytes", d.AllocatedBytes())
	}
	blk := [][]int32{make([]int32, n), make([]int32, n)}
	for i := range blk[0] {
		blk[0][i], blk[1][i] = int32(i), int32(-i)
	}
	sp.Put(blk, 0)
	first, _ := sp.View(0, 1, nil)
	for i := int64(1); i < n; i++ {
		sp.Put(blk, i)
	}
	if sp.Records() != 0 || d.Led.BytesWrite != 0 {
		t.Fatalf("Put alone: %d records, ledger %+v", sp.Records(), d.Led)
	}
	if err := sp.ChargeAppends(s.Root(), n, 1, s.MoveSeconds); err != nil {
		t.Fatal(err)
	}
	if sp.Records() != n || d.AllocatedBytes() != spillChunkRecords*8 || d.Led.BytesWrite != n*8 || d.Led.WriteInits != 1 {
		t.Fatalf("charged %d records: %d records, %d bytes claimed, ledger %+v", n, sp.Records(), d.AllocatedBytes(), d.Led)
	}
	cols, got := sp.View(0, n, nil)
	if got != n || &cols[0][0] != &first[0][0] {
		t.Fatalf("View: %d rows, vectors regrown: %v", got, &cols[0][0] != &first[0][0])
	}
	for i := range cols[0] {
		if cols[0][i] != int32(i) || cols[1][i] != int32(-i) {
			t.Fatalf("record %d is <%d, %d>", i, cols[0][i], cols[1][i])
		}
	}

	d.Node.Size = spillChunkRecords * 8
	full, err := d.NewSpill(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	full.Reserve(2 * spillChunkRecords)
	full.Put(blk, 0)
	if err := full.ChargeAppends(s.Root(), 1, 1, 0); err == nil || !strings.Contains(err.Error(), "storage: device hdd full") {
		t.Errorf("a charge past the device: %v", err)
	}
}

func TestSpillFreeReturnsSpace(t *testing.T) {
	s, d := newHDDSim(t)
	before := d.AllocatedBytes()
	sp, err := d.NewSpill(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	appendRows(t, s.Root(), sp, make([]int32, 2*(spillChunkRecords+5)))
	if d.AllocatedBytes() <= before {
		t.Fatal("growable spill must claim device space")
	}
	sp.Free()
	if got := d.AllocatedBytes(); got != before {
		t.Errorf("free must return all claimed space: %d, started at %d", got, before)
	}
	sp.Free() // idempotent
	if got := d.AllocatedBytes(); got != before {
		t.Errorf("double free changed allocation to %d", got)
	}
}

func TestCPUCharging(t *testing.T) {
	s := NewSim(memory.HDDRAM(64 * memory.MiB))
	s.DefaultCPU()
	before := s.Clock.Seconds()
	s.CPU(1000, s.CmpSeconds)
	if got := s.Clock.Seconds() - before; math.Abs(got-1000*s.CmpSeconds) > 1e-15 {
		t.Errorf("CPU charge %v", got)
	}
	s.CPU(1000, 0) // disabled model: no charge
	if s.Clock.Seconds() != before+1000*s.CmpSeconds {
		t.Error("zero per-op cost must not charge")
	}
}

// TestAcctAdoptMatchesSequential: charging a workload through worker
// strands and adopting them must yield the same ledgers and clock as
// charging it on the root directly, and the totals must not depend on the
// number of strands the partitions are spread over.
func TestAcctAdoptMatchesSequential(t *testing.T) {
	run := func(strands int) (Ledger, float64) {
		s, d := newHDDSim(t)
		sp := preloadedSpill(t, d, 1024, 8)
		// 8 partitions of 128 records, each read in 4 sequential blocks.
		accts := make([]*Acct, 8)
		for p := range accts {
			accts[p] = s.NewAcct()
		}
		var wg sync.WaitGroup
		for w := 0; w < strands; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for p := w; p < 8; p += strands {
					lo := int64(p) * 128
					for b := int64(0); b < 4; b++ {
						sp.ReadColsAt(accts[p], lo+b*32, 32, nil)
					}
				}
			}(w)
		}
		wg.Wait()
		s.Root().Adopt(accts...)
		return d.Led, s.Clock.Seconds()
	}
	led1, sec1 := run(1)
	led4, sec4 := run(4)
	if led1 != led4 {
		t.Errorf("ledger depends on strand count: %+v vs %+v", led1, led4)
	}
	if sec1 != sec4 {
		t.Errorf("clock depends on strand count: %v vs %v", sec1, sec4)
	}
	// 8 partitions, each seeking once then reading sequentially.
	if led1.ReadInits != 8 {
		t.Errorf("expected one seek per partition, got %d", led1.ReadInits)
	}
	if led1.BytesRead != 1024*8 {
		t.Errorf("bytes read %d want %d", led1.BytesRead, 1024*8)
	}
}

// TestAcctStreamRelativeSeeks: two strands writing their own spills charge
// the same totals no matter how chunk allocation interleaved.
func TestAcctStreamRelativeSeeks(t *testing.T) {
	s, d := newHDDSim(t)
	a1, a2 := s.NewAcct(), s.NewAcct()
	sp1, _ := d.NewSpill(4, 0)
	sp2, _ := d.NewSpill(4, 0)
	var wg sync.WaitGroup
	write := func(a *Acct, sp *Spill) {
		defer wg.Done()
		buf := make([]int32, 1000)
		for i := 0; i < 200; i++ { // crosses several growth chunks
			appendRows(t, a, sp, buf)
		}
	}
	wg.Add(2)
	go write(a1, sp1)
	go write(a2, sp2)
	wg.Wait()
	s.Root().Adopt(a1, a2)
	// Each strand appends sequentially to its own stream: one seek each,
	// chunk boundaries and allocation interleaving notwithstanding.
	if d.Led.WriteInits != 2 {
		t.Errorf("sequential per-stream writes should seek once each, got %d", d.Led.WriteInits)
	}
	if d.Led.BytesWrite != 2*200*1000*4 {
		t.Errorf("bytes written %d", d.Led.BytesWrite)
	}
}

func TestCacheModelScan(t *testing.T) {
	c := NewCacheModel(1024, 64)
	// Region fits: first pass misses, later passes hit.
	c.ScanMisses(512, 10)
	if c.Misses() != 8 || c.Hits() != 72 {
		t.Errorf("fit case: misses %d hits %d", c.Misses(), c.Hits())
	}
	// Region exceeds cache: every pass misses.
	c2 := NewCacheModel(1024, 64)
	c2.ScanMisses(4096, 10)
	if c2.Misses() != 640 || c2.Hits() != 0 {
		t.Errorf("overflow case: misses %d hits %d", c2.Misses(), c2.Hits())
	}
	if r := c2.MissRatio(); r != 1 {
		t.Errorf("ratio %v", r)
	}
	if (&CacheModel{}).MissRatio() != 0 {
		t.Error("empty model ratio should be 0")
	}
}

func TestUnknownDevice(t *testing.T) {
	s := NewSim(memory.HDDRAM(64 * memory.MiB))
	if _, err := s.Device("ram"); err == nil {
		t.Error("RAM is not a simulated device")
	}
	if _, err := s.Device("nope"); err == nil {
		t.Error("unknown device must error")
	}
}
