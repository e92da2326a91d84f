package exec

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ocas/internal/memory"
	"ocas/internal/ocal"
	"ocas/internal/storage"
)

// rowSink is the sink as it was while Program.Run gathered every row out of
// its batch: one Write per row, a row-major buffer evicted whole. It is the
// spec the Sink's batch-wise write must charge like.
type rowSink struct {
	Out         *Table
	Bout        int64
	Sim         *storage.Sim
	Alloc       func(arity int) (*Table, error)
	buf         []int32
	rows        int64
	RowsWritten int64
}

func (s *rowSink) Write(row []int32) {
	s.RowsWritten++
	if s.Out == nil && s.Alloc != nil {
		s.Out, _ = s.Alloc(len(row))
		s.Alloc = nil
	}
	if s.Out == nil {
		return
	}
	s.buf = append(s.buf, row...)
	s.rows++
	bout := s.Bout
	if bout <= 0 {
		bout = 1
	}
	if s.rows >= bout {
		s.Flush()
	}
}

func (s *rowSink) Flush() {
	if s.Out == nil || s.rows == 0 {
		return
	}
	a := s.Sim.Root()
	a.CPU(int64(len(s.buf))*4, s.Sim.MoveSeconds)
	s.Out.AppendCols(a, columnsOf(s.buf, s.Out.Arity), s.rows)
	s.buf = s.buf[:0]
	s.rows = 0
}

// TestSinkWriteBatchMatchesWrite: the batch-wise sink evicts at exactly the
// rows the row-at-a-time sink evicted at, whatever the batch size, so the
// output device's ledger and claim and the clock are the same, and the rows
// it taps are, in order, the rows the reference stored.
func TestSinkWriteBatchMatchesWrite(t *testing.T) {
	const rows, arity = 2500, 2
	r := rand.New(rand.NewSource(1))
	data := make([]int32, rows*arity)
	for i := range data {
		data[i] = int32(r.Uint32())
	}
	for _, bout := range []int64{1, 3, 64, 1000} {
		for _, batch := range []int{1, 64} {
			for _, lazy := range []bool{false, true} {
				t.Run(fmt.Sprintf("bout=%d/batch=%d/lazy=%v", bout, batch, lazy), func(t *testing.T) {
					// The output table is made before the run, or by Alloc
					// at the first row.
					out := func(sim *storage.Sim) func(int) (*Table, error) {
						d, _ := sim.Device("hdd")
						if lazy {
							return func(ar int) (*Table, error) { return NewTable(d, ar, 0) }
						}
						tb, err := NewTable(d, arity, 0)
						if err != nil {
							t.Fatal(err)
						}
						return outTo(tb)
					}
					simW, simB := newSim(t), newSim(t)
					simW.DefaultCPU()
					simB.DefaultCPU()
					want := &rowSink{Bout: bout, Sim: simW, Alloc: out(simW)}
					for i := 0; i < rows; i++ {
						want.Write(data[i*arity : (i+1)*arity])
					}
					want.Flush()

					var tapped []int32
					got := &Sink{Bout: bout, Sim: simB, Alloc: out(simB), Tap: tapInto(&tapped)}
					for lo := 0; lo < rows; lo += batch {
						n := min(batch, rows-lo)
						b := &Batch{Arity: arity, Cols: make([][]int32, arity)}
						for c := range b.Cols {
							for i := lo; i < lo+n; i++ {
								b.Cols[c] = append(b.Cols[c], data[i*arity+c])
							}
						}
						if err := got.write(b); err != nil {
							t.Fatal(err)
						}
					}
					if err := got.flush(); err != nil {
						t.Fatal(err)
					}

					if got.RowsWritten != want.RowsWritten {
						t.Errorf("RowsWritten %d, row sink %d", got.RowsWritten, want.RowsWritten)
					}
					if g, w := simB.Clock.Seconds(), simW.Clock.Seconds(); math.Float64bits(g) != math.Float64bits(w) {
						t.Errorf("clock %v, row sink %v", g, w)
					}
					if g, w := simB.Devices["hdd"].Led, simW.Devices["hdd"].Led; g != w {
						t.Errorf("ledger %+v, row sink %+v", g, w)
					}
					if g, w := simB.Devices["hdd"].AllocatedBytes(), simW.Devices["hdd"].AllocatedBytes(); g != w {
						t.Errorf("output claim %d bytes, row sink %d", g, w)
					}
					if !reflect.DeepEqual(tapped, want.Out.Flat()) {
						t.Error("tapped rows differ from the row sink's table")
					}
				})
			}
		}
	}
}

// TestPreloadColsMatchesPreload: a table given its columns as they stand is
// the table Preload builds from the same rows — contents, scan charges and
// scanned rows — and columns that do not fit it or its device are an error.
func TestPreloadColsMatchesPreload(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, arity := range []int{1, 2, 3} {
		const rows = 1000
		flat := make([]int32, rows*arity)
		cols := make([][]int32, arity)
		for i := range flat {
			flat[i] = int32(r.Uint32())
			cols[i%arity] = append(cols[i%arity], flat[i])
		}
		type scanned struct {
			rows   [][]int32
			clock  uint64
			ledger storage.Ledger
			flat   []int32
		}
		scan := func(load func(*Table) error) scanned {
			sim := newSim(t)
			sim.DefaultCPU()
			d, _ := sim.Device("hdd")
			tb, err := NewTable(d, arity, rows+8)
			if err != nil {
				t.Fatal(err)
			}
			if err := load(tb); err != nil {
				t.Fatal(err)
			}
			var s scanned
			sink := &Sink{Sim: sim, Tap: tapRows(func(row []int32) { s.rows = append(s.rows, append([]int32(nil), row...)) })}
			drainOp(t, runCtx(sim, "hdd", 0), &Scan{In: TableInput(tb)}, sink)
			s.clock, s.ledger, s.flat = math.Float64bits(sim.Clock.Seconds()), d.Led, tb.Flat()
			return s
		}
		want := scan(func(tb *Table) error { return tb.Preload(flat) })
		got := scan(func(tb *Table) error { return tb.PreloadCols(cols) })
		if !reflect.DeepEqual(got, want) {
			t.Errorf("arity %d: a table preloaded from columns scans differently from one preloaded from rows", arity)
		}
	}

	sim := newSim(t)
	d, _ := sim.Device("hdd")
	d.Node.Size = 32 // room for four reserved rows of two attributes
	for name, cols := range map[string][][]int32{
		"ragged":      {{1, 2, 3}, {1, 2}},
		"device full": {{1, 2, 3, 4, 5}, {1, 2, 3, 4, 5}},
		"too few":     {{1, 2}},
		"too many":    {{1}, {2}, {3}},
	} {
		tb, err := NewTable(d, 2, 4)
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s columns: panic %v, want an error", name, r)
				}
			}()
			if err := tb.PreloadCols(cols); err == nil || !strings.Contains(err.Error(), "storage:") {
				t.Errorf("%s columns: error %v", name, err)
			}
			if tb.Rows() != 0 {
				t.Errorf("%s columns: a rejected preload left %d rows", name, tb.Rows())
			}
		}()
		tb.Free()
	}
	tb := loadTable(t, sim, "hdd", 1, []int32{7})
	if err := tb.PreloadCols([][]int32{{8}}); err == nil {
		t.Error("preloading columns into a table that holds rows: no error")
	}
}

// TestSinkFailureEndsRun: the sink's two failures — a lazy output
// allocation that fails, and an eviction the output device cannot hold —
// are what Program.Run returns, and the run's scratch spills (a GRACE
// join's partitions, on a device of their own) are freed either way.
func TestSinkFailureEndsRun(t *testing.T) {
	prog := ocal.MustParse(`flatMap(\<p1, p2> -> for (xB [k1] <- p1) for (yB [k2] <- p2) for (x <- xB) for (y <- yB) if x.1 == y.1 then [<x, y>] else [])(zip[2](partition[s](R), partition[s](S)))`)
	errAlloc := errors.New("no room for the output")
	for name, c := range map[string]struct {
		sink func(out *storage.Device) *Sink
		want func(error) bool
	}{
		"alloc": {
			func(*storage.Device) *Sink {
				return &Sink{Alloc: func(int) (*Table, error) { return nil, errAlloc }}
			},
			func(err error) bool { return errors.Is(err, errAlloc) },
		},
		"evict": {
			func(out *storage.Device) *Sink {
				out.Node.Size = out.AllocatedBytes() + 64 // four output rows
				return &Sink{Bout: 8, Alloc: func(ar int) (*Table, error) { return NewTable(out, ar, 0) }}
			},
			func(err error) bool { return err != nil && strings.Contains(err.Error(), "storage: device hdd full") },
		},
	} {
		sim := storage.NewSim(memory.TwoHDD(64 * memory.MiB))
		var keys []int32
		for i := range int32(64) {
			keys = append(keys, i%16, i)
		}
		inputs := map[string]*Table{"R": loadTableSim(sim, "hdd", 2, keys), "S": loadTableSim(sim, "hdd", 2, keys)}
		out, _ := sim.Device("hdd")
		scratch, _ := sim.Device("hdd2")
		s := c.sink(out)
		s.Sim = sim
		p, err := Lower(prog, LowerOpts{Sim: sim, Inputs: inputs,
			Params:  map[string]int64{"k1": 4, "k2": 4, "s": 4},
			Scratch: scratch, Sink: s, RAMBytes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Run(); !c.want(err) {
			t.Errorf("%s: Run returned %v", name, err)
		}
		if p.Pool().Stats().Spills == 0 {
			t.Errorf("%s: the join spilled no partitions", name)
		}
		if got := scratch.AllocatedBytes(); got != 0 {
			t.Errorf("%s: %d scratch bytes still claimed after the failed run", name, got)
		}
	}
}
