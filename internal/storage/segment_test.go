package storage

import (
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// rowMajor builds n rows of cols deterministic values.
func rowMajor(n, cols int, seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int32, n*cols)
	for i := range out {
		out[i] = int32(rng.Intn(1 << 20))
	}
	return out
}

func TestSegmentRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name      string
		rows      int
		cols      int
		chunkRows int64
	}{
		{"empty", 0, 2, 4},
		{"one-chunk", 3, 1, 8},
		{"exact-chunks", 16, 2, 4},
		{"ragged-tail", 17, 3, 4},
		{"default-chunk", 1000, 2, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, tc.name+".seg")
			want := rowMajor(tc.rows, tc.cols, 42)
			if err := WriteSegment(path, tc.cols, tc.chunkRows, want); err != nil {
				t.Fatalf("WriteSegment: %v", err)
			}
			seg, err := OpenSegment(path)
			if err != nil {
				t.Fatalf("OpenSegment: %v", err)
			}
			if seg.Rows() != int64(tc.rows) || seg.Cols() != tc.cols {
				t.Fatalf("got %d rows x %d cols, want %d x %d",
					seg.Rows(), seg.Cols(), tc.rows, tc.cols)
			}
			// Whole-segment read, then a partial one that straddles chunk
			// boundaries.
			for _, span := range [][2]int64{{0, int64(tc.rows)}, {1, int64(tc.rows - 2)}} {
				lo, n := span[0], span[1]
				if n < 0 {
					continue
				}
				colDst := make([][]int32, tc.cols)
				for c := range colDst {
					colDst[c] = make([]int32, n)
				}
				if err := seg.ReadCols(colDst, lo, n); err != nil {
					t.Fatalf("ReadCols(%d, %d): %v", lo, n, err)
				}
				for c := 0; c < tc.cols; c++ {
					for r := int64(0); r < n; r++ {
						if colDst[c][r] != want[(lo+r)*int64(tc.cols)+int64(c)] {
							t.Fatalf("read [%d,+%d): column %d row %d mismatch", lo, n, c, r)
						}
					}
				}
			}
			if err := seg.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
		})
	}
}

func TestSegmentRejectsCorruptHeader(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.seg")
	if err := WriteSegment(path, 2, 4, rowMajor(10, 2, 1)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	header := func(cols, chunkRows uint32, rows uint64) []byte {
		h := append([]byte(nil), raw[:segmentHeader]...)
		binary.LittleEndian.PutUint32(h[8:], cols)
		binary.LittleEndian.PutUint32(h[12:], chunkRows)
		binary.LittleEndian.PutUint64(h[16:], rows)
		return h
	}
	badMagic := append([]byte(nil), raw...)
	badMagic[0] ^= 0xff
	for name, file := range map[string][]byte{
		"bad magic":         badMagic,
		"truncated payload": raw[:len(raw)-4],
		// 2^62 rows x 4 cols x 4 bytes wraps to 0 in int64: a bare header
		// must not pass for a segment of that size.
		"row count overflows the size check": header(4, 4, 1<<62),
	} {
		path := filepath.Join(dir, "bad.seg")
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		if seg, err := OpenSegment(path); err == nil {
			seg.Close()
			t.Errorf("%s: OpenSegment accepted the file", name)
		}
	}

	// A valid empty segment may claim any chunk size; the read scratch is
	// bounded by the rows the file can hold, not by the header's claim.
	path = filepath.Join(dir, "hugechunk.seg")
	if err := os.WriteFile(path, header(2, 1<<32-1, 0), 0o644); err != nil {
		t.Fatal(err)
	}
	seg, err := OpenSegment(path)
	if err != nil {
		t.Fatalf("empty segment with a huge chunk size: %v", err)
	}
	defer seg.Close()
	if len(seg.scratch) != 0 {
		t.Fatalf("scratch for an empty segment is %d bytes", len(seg.scratch))
	}
}

func TestWriteSegmentValidates(t *testing.T) {
	dir := t.TempDir()
	if err := WriteSegment(filepath.Join(dir, "a.seg"), 0, 4, nil); err == nil {
		t.Fatal("expected cols validation error")
	}
	if err := WriteSegment(filepath.Join(dir, "b.seg"), 2, 4, make([]int32, 3)); err == nil {
		t.Fatal("expected payload-multiple validation error")
	}
	if err := WriteSegmentCols(filepath.Join(dir, "c.seg"), [][]int32{{1, 2}, {3}}, 4); err == nil {
		t.Fatal("expected ragged-columns validation error")
	}
}

// sliceBacking serves columns from an in-memory row-major payload.
type sliceBacking struct {
	data []int32
	cols int64
}

func (b sliceBacking) ReadCols(dst [][]int32, lo, n int64) error {
	for c := int64(0); c < b.cols; c++ {
		for r := int64(0); r < n; r++ {
			dst[c][r] = b.data[(lo+r)*b.cols+c]
		}
	}
	return nil
}

// TestBackedSpillChargesLikePreload is the charge-parity core of the durable
// path: a backed spill must produce byte-identical ledger events to a
// preloaded spill holding the same rows.
func TestBackedSpillChargesLikePreload(t *testing.T) {
	rows := rowMajor(500, 2, 7)

	run := func(build func(d *Device) (*Spill, error)) (Ledger, float64, []int32) {
		sim, dev := newHDDSim(t)
		sp, err := build(dev)
		if err != nil {
			t.Fatal(err)
		}
		var out []int32
		for idx := int64(0); idx < sp.Records(); idx += 64 {
			cols, n := sp.ReadColsAt(sim.Root(), idx, 64, nil)
			for i := int64(0); i < n; i++ {
				for _, col := range cols {
					out = append(out, col[i])
				}
			}
		}
		return dev.Led, sim.Clock.Seconds(), out
	}

	ledgerA, clockA, outA := run(func(d *Device) (*Spill, error) {
		sp, err := d.NewSpill(8, 500)
		if err != nil {
			return nil, err
		}
		sp.Preload(rows)
		return sp, nil
	})
	ledgerB, clockB, outB := run(func(d *Device) (*Spill, error) {
		return d.NewBackedSpill(8, 500, sliceBacking{data: rows, cols: 2})
	})

	if ledgerA != ledgerB {
		t.Fatalf("ledger mismatch: preload %+v backed %+v", ledgerA, ledgerB)
	}
	if clockA != clockB {
		t.Fatalf("clock mismatch: preload %v backed %v", clockA, clockB)
	}
	if len(outA) != len(outB) {
		t.Fatalf("payload length mismatch: %d vs %d", len(outA), len(outB))
	}
	for i := range outA {
		if outA[i] != outB[i] {
			t.Fatalf("payload value %d mismatch", i)
		}
	}
}

func TestBackedSpillRejectsWrites(t *testing.T) {
	sim, dev := newHDDSim(t)
	sp, err := dev.NewBackedSpill(8, 4, sliceBacking{data: make([]int32, 8), cols: 2})
	if err != nil {
		t.Fatal(err)
	}
	for name, fn := range map[string]func(){
		"append":  func() { sp.Append(sim.Root(), []int32{1, 2}) },
		"preload": func() { sp.Preload([]int32{1, 2}) },
		"reset":   func() { sp.Reset() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s on backed spill did not panic", name)
				}
			}()
			fn()
		}()
	}
}
