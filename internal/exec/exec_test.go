package exec

import (
	"math/rand"
	"sort"
	"testing"

	"ocas/internal/memory"
	"ocas/internal/ocal"
	"ocas/internal/storage"
)

func newSim(t *testing.T) *storage.Sim {
	t.Helper()
	return storage.NewSim(memory.HDDRAM(64 * memory.MiB))
}

func loadTable(t *testing.T, sim *storage.Sim, dev string, arity int, rows []int32) *Table {
	t.Helper()
	return loadTableSim(sim, dev, arity, rows)
}

func loadTableSim(sim *storage.Sim, dev string, arity int, rows []int32) *Table {
	d, err := sim.Device(dev)
	if err != nil {
		panic(err)
	}
	tb, err := NewTable(d, arity, int64(len(rows)/arity)+4)
	if err != nil {
		panic(err)
	}
	if err := tb.Preload(rows); err != nil {
		panic(err)
	}
	return tb
}

func pairsOf(vals ...int32) []int32 { return vals }

// runCtx builds an execution context over the simulator's scratch device.
func runCtx(sim *storage.Sim, dev string, poolBytes int64) *Ctx {
	d, err := sim.Device(dev)
	if err != nil {
		panic(err)
	}
	return &Ctx{Sim: sim, Pool: storage.NewBufferPool(poolBytes), Scratch: d}
}

// drainOp runs an operator tree to completion through a sink.
// Row gathers the i-th row into dst (grown as needed) and returns it: the
// tests' row-at-a-time view of a batch.
func (b *Batch) Row(i int, dst []int32) []int32 {
	if cap(dst) >= b.Arity {
		dst = dst[:b.Arity]
	} else {
		dst = make([]int32, b.Arity)
	}
	for c := 0; c < b.Arity; c++ {
		dst[c] = b.Cols[c][i]
	}
	return dst
}

// Flat gathers the batch row-major.
func (b *Batch) Flat() []int32 {
	n := b.Rows()
	out := make([]int32, 0, n*b.Arity)
	var row []int32
	for i := 0; i < n; i++ {
		row = b.Row(i, row)
		out = append(out, row...)
	}
	return out
}

// Flat gathers the table row-major without charging: the tests' look at an
// output table.
func (t *Table) Flat() []int32 { return flatSpill(t.Spill) }

func flatSpill(sp *storage.Spill) []int32 {
	cols, n := sp.View(0, sp.Records(), nil)
	if n == 0 {
		return nil
	}
	out := make([]int32, 0, int(n)*len(cols))
	for i := int64(0); i < n; i++ {
		for _, col := range cols {
			out = append(out, col[i])
		}
	}
	return out
}

// columnsOf stripes row-major rows of the given arity into column vectors.
func columnsOf(rows []int32, arity int) [][]int32 {
	cols := make([][]int32, arity)
	for i, v := range rows {
		cols[i%arity] = append(cols[i%arity], v)
	}
	return cols
}

// tapRows adapts a row-at-a-time observer to Sink.Tap.
func tapRows(f func(row []int32)) func(*Batch) {
	var row []int32
	return func(b *Batch) {
		for i := 0; i < b.Rows(); i++ {
			row = b.Row(i, row)
			f(row)
		}
	}
}

func drainOp(t *testing.T, c *Ctx, op Operator, sink *Sink) {
	t.Helper()
	if err := programOf(op, sink, c).Run(); err != nil {
		t.Fatal(err)
	}
}

// programOf assembles a program by hand: op under sink, run on c.
func programOf(op Operator, sink *Sink, c *Ctx) *Program {
	sink.in = op
	return &Program{Root: sink, c: c}
}

func TestBNLJoinCorrectAndCharges(t *testing.T) {
	sim := newSim(t)
	R := loadTable(t, sim, "hdd", 2, pairsOf(1, 10, 2, 20, 3, 30))
	S := loadTable(t, sim, "hdd", 2, pairsOf(1, 100, 3, 300, 1, 101))
	sink := &Sink{Sim: sim} // discarded output still counts rows
	j := &BNLJoin{L: TableInput(R), R: TableInput(S), K1: 2, K2: 2, EquiKeys: &[2]int{0, 0}}
	drainOp(t, runCtx(sim, "hdd", 0), j, sink)
	if sink.RowsWritten != 3 {
		t.Errorf("join produced %d rows want 3", sink.RowsWritten)
	}
	if sim.Clock.Seconds() <= 0 {
		t.Error("join must charge simulated time")
	}
	d, _ := sim.Device("hdd")
	if d.Led.BytesRead == 0 {
		t.Error("join must read from the device")
	}
}

func TestBNLJoinBlockingReducesTime(t *testing.T) {
	mk := func(k1, k2 int64) float64 {
		sim := newSim(t)
		r := rand.New(rand.NewSource(1))
		var rrows, srows []int32
		for i := 0; i < 2000; i++ {
			rrows = append(rrows, int32(r.Intn(50)), int32(i))
		}
		for i := 0; i < 1000; i++ {
			srows = append(srows, int32(r.Intn(50)), int32(i))
		}
		R := loadTable(t, sim, "hdd", 2, rrows)
		S := loadTable(t, sim, "hdd", 2, srows)
		j := &BNLJoin{L: TableInput(R), R: TableInput(S), K1: k1, K2: k2, EquiKeys: &[2]int{0, 0}}
		drainOp(t, runCtx(sim, "hdd", 0), j, &Sink{Sim: sim})
		return sim.Clock.Seconds()
	}
	naive := mk(1, 1)
	blocked := mk(500, 500)
	if blocked >= naive {
		t.Errorf("blocked join (%v s) must beat naive (%v s)", blocked, naive)
	}
	if naive/blocked < 50 {
		t.Errorf("blocking should win by orders of magnitude, ratio %v", naive/blocked)
	}
}

func TestBNLJoinWriteOutSameVsOtherDisk(t *testing.T) {
	run := func(h *memory.Hierarchy, outDev string) float64 {
		sim := storage.NewSim(h)
		r := rand.New(rand.NewSource(2))
		var rrows, srows []int32
		for i := 0; i < 300; i++ {
			rrows = append(rrows, int32(r.Intn(10)), int32(i))
		}
		for i := 0; i < 300; i++ {
			srows = append(srows, int32(r.Intn(10)), int32(i))
		}
		d, err := sim.Device(outDev)
		if err != nil {
			panic(err)
		}
		out, err := NewTable(d, 4, 300*300+8)
		if err != nil {
			panic(err)
		}
		R := loadTableSim(sim, "hdd", 2, rrows)
		S := loadTableSim(sim, "hdd", 2, srows)
		j := &BNLJoin{L: TableInput(R), R: TableInput(S), K1: 64, K2: 64}
		drainOp(t, runCtx(sim, "hdd", 0), j, &Sink{Out: out, Bout: 64, Sim: sim})
		return sim.Clock.Seconds()
	}
	same := run(memory.TwoHDD(64*memory.MiB), "hdd")
	other := run(memory.TwoHDD(64*memory.MiB), "hdd2")
	if other >= same {
		t.Errorf("writing to the other disk (%v s) must beat the input disk (%v s): interleaved writes force seeks", other, same)
	}
	flash := run(memory.HDDFlash(64*memory.MiB), "ssd")
	if flash >= other {
		t.Errorf("flash write-out (%v s) should beat second HDD (%v s)", flash, other)
	}
}

func TestCacheTilingReducesMisses(t *testing.T) {
	run := func(tileY int64) *storage.CacheModel {
		h := memory.HDDRAMCache(64 * memory.MiB)
		sim := storage.NewSim(h)
		var rrows, srows []int32
		for i := 0; i < 4000; i++ {
			rrows = append(rrows, int32(i), int32(i))
			srows = append(srows, int32(i), int32(i))
		}
		R := loadTableSim(sim, "hdd", 2, rrows)
		S := loadTableSim(sim, "hdd", 2, srows)
		j := &BNLJoin{L: TableInput(R), R: TableInput(S), K1: 4000, K2: 4000,
			EquiKeys: &[2]int{0, 0}, TileY: tileY, TileX: 256}
		drainOp(t, runCtx(sim, "hdd", 0), j, &Sink{Sim: sim})
		return sim.Cache
	}
	untiled := run(0)
	tiled := run(256)
	if untiled == nil || tiled == nil {
		t.Fatal("cache model missing")
	}
	if tiled.Misses() >= untiled.Misses() {
		t.Skipf("inner block fits the 3MB cache at this scale: untiled=%d tiled=%d",
			untiled.Misses(), tiled.Misses())
	}
}

func TestHashJoinMatchesBNL(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var rrows, srows []int32
	for i := 0; i < 500; i++ {
		rrows = append(rrows, int32(r.Intn(40)), int32(i))
		srows = append(srows, int32(r.Intn(40)), int32(i))
	}
	countBNL := func() int64 {
		sim := newSim(t)
		R := loadTableSim(sim, "hdd", 2, rrows)
		S := loadTableSim(sim, "hdd", 2, srows)
		sink := &Sink{Sim: sim}
		j := &BNLJoin{L: TableInput(R), R: TableInput(S), K1: 100, K2: 100, EquiKeys: &[2]int{0, 0}}
		drainOp(t, runCtx(sim, "hdd", 0), j, sink)
		return sink.RowsWritten
	}
	countHash := func() int64 {
		sim := newSim(t)
		R := loadTableSim(sim, "hdd", 2, rrows)
		S := loadTableSim(sim, "hdd", 2, srows)
		sink := &Sink{Sim: sim}
		j := &HashJoin{L: TableInput(R), R: TableInput(S), Buckets: 8,
			KRead: 64, BufW: 32, KJoin: 128, EquiKeys: &[2]int{0, 0}}
		drainOp(t, runCtx(sim, "hdd", 0), j, sink)
		return sink.RowsWritten
	}
	a, b := countBNL(), countHash()
	if a != b {
		t.Errorf("hash join produced %d rows, BNL %d", b, a)
	}
}

// sortRows is a test helper: the expected output of ExtSort.
func sortRows(rows []int32, arity, key int) []int32 {
	n := len(rows) / arity
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return rows[idx[a]*arity+key] < rows[idx[b]*arity+key]
	})
	out := make([]int32, 0, len(rows))
	for _, i := range idx {
		out = append(out, rows[i*arity:(i+1)*arity]...)
	}
	return out
}

func TestExtSortSorts(t *testing.T) {
	for _, way := range []int{2, 4, 8} {
		sim := newSim(t)
		r := rand.New(rand.NewSource(int64(way)))
		var rows []int32
		for i := 0; i < 1000; i++ {
			rows = append(rows, int32(r.Intn(1<<20)))
		}
		in := loadTableSim(sim, "hdd", 1, rows)
		d, _ := sim.Device("hdd")
		out, err := NewTable(d, 1, int64(len(rows))+8)
		if err != nil {
			t.Fatal(err)
		}
		p := &ExtSort{In: TableInput(in), Way: way, Bin: 64, Bout: 64}
		drainOp(t, runCtx(sim, "hdd", 0), p, &Sink{Out: out, Bout: 64, Sim: sim})
		want := sortRows(rows, 1, 0)
		got := out.Flat()
		if len(got) != len(want) {
			t.Fatalf("way=%d: wrong output size %d", way, len(got))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("way=%d: output not sorted at %d", way, i)
			}
		}
	}
}

func TestExtSortHigherFanInFewerPasses(t *testing.T) {
	passes := func(way int) (int, float64) {
		sim := newSim(t)
		r := rand.New(rand.NewSource(9))
		var rows []int32
		for i := 0; i < 4096; i++ {
			rows = append(rows, int32(r.Intn(1<<20)))
		}
		in := loadTableSim(sim, "hdd", 1, rows)
		p := &ExtSort{In: TableInput(in), Way: way, Bin: 256, Bout: 256}
		drainOp(t, runCtx(sim, "hdd", 0), p, &Sink{Sim: sim})
		return p.Passes, sim.Clock.Seconds()
	}
	p2, t2 := passes(2)
	p8, t8 := passes(8)
	if p8 >= p2 {
		t.Errorf("8-way should need fewer passes: %d vs %d", p8, p2)
	}
	if t8 >= t2 {
		t.Errorf("8-way should be faster here: %v vs %v", t8, t2)
	}
}

// mergeTree compiles the two-list merge step.
func mergeTree(t *testing.T) *stepNode {
	t.Helper()
	tree, err := parseUnfoldStep(ocal.Mrg{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestUnfoldRStreamMergesSorted(t *testing.T) {
	sim := newSim(t)
	A := loadTableSim(sim, "hdd", 1, []int32{1, 3, 5, 7})
	B := loadTableSim(sim, "hdd", 1, []int32{2, 3, 6})
	d, _ := sim.Device("hdd")
	out, err := NewTable(d, 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	p := &UnfoldR{Ins: []Input{TableInput(A), TableInput(B)}, K: 2,
		tree: mergeTree(t), StateArity: 2}
	drainOp(t, runCtx(sim, "hdd", 0), p, &Sink{Out: out, Bout: 4, Sim: sim})
	want := []int32{1, 2, 3, 3, 5, 6, 7}
	got := out.Flat()
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

// sumKernel compiles foldL(0, \<a, x> -> a + x.col) the way Lower does.
func sumKernel(t *testing.T, col int) *foldKernelSpec {
	t.Helper()
	step := ocal.Lam{Params: []string{"a", "x"},
		Body: ocal.Prim{Op: ocal.OpAdd, Args: []ocal.Expr{
			ocal.Var{Name: "a"}, ocal.Proj{E: ocal.Var{Name: "x"}, I: col}}}}
	kern, err := parseFoldKernel(ocal.IntLit{V: 0}, step, nil)
	if err != nil {
		t.Fatal(err)
	}
	return kern
}

func TestFoldAggregates(t *testing.T) {
	sim := newSim(t)
	in := loadTableSim(sim, "hdd", 2, pairsOf(1, 10, 2, 20, 3, 30))
	p := &Fold{In: TableInput(in), K: 2, kern: sumKernel(t, 2)}
	drainOp(t, runCtx(sim, "hdd", 0), p, &Sink{Sim: sim})
	if !ocal.ValueEq(p.Final, ocal.Int(60)) {
		t.Errorf("sum = %s want 60", p.Final)
	}
}

func TestSinkBuffering(t *testing.T) {
	sim := newSim(t)
	d, _ := sim.Device("hdd")
	out, err := NewTable(d, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	s := &Sink{Out: out, Bout: 10, Sim: sim}
	for i := 0; i < 25; i++ {
		if err := s.write(&Batch{Arity: 1, Cols: [][]int32{{int32(i)}}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.flush(); err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 25 {
		t.Errorf("sink wrote %d rows want 25", out.Rows())
	}
	// Sequential appends: at most one seek for the whole stream.
	if d.Led.WriteInits > 1 {
		t.Errorf("sequential buffered writes should seek once, got %d", d.Led.WriteInits)
	}
}

func TestFlashEraseAccounting(t *testing.T) {
	h := memory.HDDFlash(64 * memory.MiB)
	sim := storage.NewSim(h)
	d, err := sim.Device("ssd")
	if err != nil {
		t.Fatal(err)
	}
	out, err := NewTable(d, 1, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	s := &Sink{Out: out, Bout: 1024, Sim: sim}
	rows := int64(300_000) // 1.2 MB; erase block is 256K -> ~5 erases
	for i := int64(0); i < rows; i++ {
		if err := s.write(&Batch{Arity: 1, Cols: [][]int32{{int32(i)}}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.flush(); err != nil {
		t.Fatal(err)
	}
	if d.Led.WriteInits < 4 || d.Led.WriteInits > 6 {
		t.Errorf("expected ~5 erase events for 1.2MB/256K, got %d", d.Led.WriteInits)
	}
}

// TestOpenFailureClosesCleanly runs programs whose Open cannot complete
// (a buffer pool too small to pin even one working frame): Run must
// return the error, not panic in Close on half-initialized operators.
func TestOpenFailureClosesCleanly(t *testing.T) {
	sim := newSim(t)
	R := loadTableSim(sim, "hdd", 2, pairsOf(1, 10, 2, 20))
	S := loadTableSim(sim, "hdd", 2, pairsOf(1, 100))
	d, _ := sim.Device("hdd")
	join := &BNLJoin{L: TableInput(R), R: TableInput(S), K1: 2, K2: 2, EquiKeys: &[2]int{0, 0}}
	p := programOf(join, &Sink{Sim: sim}, &Ctx{Sim: sim, Pool: storage.NewBufferPool(4), Scratch: d})
	if err := p.Run(); err == nil {
		t.Fatal("a 4-byte pool cannot run a join of 8-byte rows")
	}
	unf := &UnfoldR{Ins: []Input{TableInput(R), OpInput(join)}, K: 2,
		tree: mergeTree(t), StateArity: 2}
	p2 := programOf(unf, &Sink{Sim: sim}, &Ctx{Sim: sim, Pool: storage.NewBufferPool(4), Scratch: d})
	if err := p2.Run(); err == nil {
		t.Fatal("expected an error from the starved unfold")
	}
}

// TestComposedOperators pipes a join into a sort into a fold: the
// compositional executor runs operator trees the legacy whole-program
// lowerings could never express.
func TestComposedOperators(t *testing.T) {
	sim := newSim(t)
	R := loadTableSim(sim, "hdd", 2, pairsOf(3, 30, 1, 10, 2, 20))
	S := loadTableSim(sim, "hdd", 2, pairsOf(2, 200, 1, 100, 3, 300, 2, 201))
	join := &BNLJoin{L: TableInput(R), R: TableInput(S), K1: 2, K2: 2, EquiKeys: &[2]int{0, 0}}
	srt := &ExtSort{In: OpInput(join), Way: 2, Bin: 2, Bout: 2}
	fold := &Fold{In: OpInput(srt), K: 2, kern: sumKernel(t, 4)}
	c := runCtx(sim, "hdd", 0)
	drainOp(t, c, fold, &Sink{Sim: sim})
	// Matches: 1-100, 2-200, 2-201, 3-300 -> payload sum 801.
	if !ocal.ValueEq(fold.Final, ocal.Int(801)) {
		t.Errorf("composed pipeline result %s want 801", fold.Final)
	}
	if sim.Clock.Seconds() <= 0 {
		t.Error("composed pipeline must charge simulated time")
	}
	if c.Pool.Stats().Spills == 0 {
		t.Error("sorting a streamed join must spool through a scratch spill")
	}
}
