package storage

import (
	"math"
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
	sp.Preload(make([]int32, n*width/4))
	return sp
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
		out.Append(s.Root(), row)
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
		sp.Append(s.Root(), buf) // 4 KiB per append
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

func TestVolumeAllocationBounds(t *testing.T) {
	s := NewSim(memory.HDDRAM(64 * memory.MiB))
	d, _ := s.Device("hdd")
	if _, err := d.NewVolume(1<<40, 1024); err == nil {
		t.Error("allocating beyond device size must fail")
	}
	sp, err := d.NewSpill(8, 10)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("append beyond capacity must panic")
		}
	}()
	sp.Append(s.Root(), make([]int32, 11*2))
}

func TestSpillFreeReturnsSpace(t *testing.T) {
	s, d := newHDDSim(t)
	before := d.AllocatedBytes()
	sp, err := d.NewSpill(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	sp.Append(s.Root(), make([]int32, 2*(spillChunkRecords+5)))
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
			sp.Append(a, buf)
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
