package catalog

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// sortRows is the ingest sort this package shipped before the columnar one,
// verbatim: the oracle sortCols is held to. It stable-sorts flat row-major
// rows on the key column indices.
func sortRows(flat []int32, arity int, key []int) {
	if len(key) == 0 || len(flat) == 0 {
		return
	}
	n := len(flat) / arity
	rows := make([][]int32, n)
	for i := range rows {
		rows[i] = flat[i*arity : (i+1)*arity]
	}
	sort.SliceStable(rows, func(i, j int) bool {
		for _, k := range key {
			if rows[i][k] != rows[j][k] {
				return rows[i][k] < rows[j][k]
			}
		}
		return false
	})
	sorted := make([]int32, 0, len(flat))
	for _, r := range rows {
		sorted = append(sorted, r...)
	}
	copy(flat, sorted)
}

// keyOrders returns every ordered subset of the column indices 0..arity-1,
// the empty key included.
func keyOrders(arity int) [][]int {
	out := [][]int{nil}
	var grow func(key []int, used int)
	grow = func(key []int, used int) {
		for c := 0; c < arity; c++ {
			if used&(1<<c) == 0 {
				next := append(append([]int(nil), key...), c)
				out = append(out, next)
				grow(next, used|1<<c)
			}
		}
	}
	grow(nil, 0)
	return out
}

// TestSortColsMatchesRowSort: on every shape — arity 1 to 4, every key subset
// in every order, n of 0, 1, 2, 300 and DefaultFlushRows+1, values that are
// random, narrow (many duplicates), extreme, all equal, sorted,
// reverse-sorted, constant in column 1, or spread over a span at each digit
// boundary (0, 1, 2 and 3 radix passes) — each entry of the sorter orders the
// rows exactly as sort.SliceStable did and says whether it had anything to
// do: in fresh vectors, which never write the input, or in place.
func TestSortColsMatchesRowSort(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	fills := map[string]func(r, c, n int) int32{
		"random":     func(int, int, int) int32 { return int32(rng.Uint32()) },
		"narrow":     func(int, int, int) int32 { return int32(rng.Intn(7)) - 3 },
		"extreme":    func(int, int, int) int32 { return [3]int32{math.MinInt32, 0, math.MaxInt32}[rng.Intn(3)] },
		"equal":      func(int, int, int) int32 { return 42 },
		"sorted":     func(r, _, _ int) int32 { return int32(r/3) - 5 },
		"reverse":    func(r, _, n int) int32 { return int32((n-r)/3) - 5 },
		"constant 1": func(_, c, _ int) int32 { return [2]int32{int32(rng.Intn(300)), 7}[min(c, 1)] },
	}
	for _, span := range []int64{0, 1, 1<<11 - 1, 1 << 11, 1<<22 - 1, 1 << 22, 1<<32 - 1} {
		lo := -(span + 1) / 2
		fills[fmt.Sprintf("span %d", span)] = func(r, _, _ int) int32 {
			switch r {
			case 0:
				return int32(lo + span)
			case 1:
				return int32(lo)
			}
			return int32(lo + rng.Int63n(span+1))
		}
	}
	shared := new(sorter)
	entries := map[string]struct {
		s       *sorter
		inPlace bool
	}{
		"fresh vectors":         {new(sorter), false},
		"fresh vectors, reused": {shared, false},
		"in place, reused":      {shared, true},
	}
	for arity := 1; arity <= 4; arity++ {
		for _, key := range keyOrders(arity) {
			for _, n := range []int{0, 1, 2, 300, DefaultFlushRows + 1} {
				// The big shape once per arity, on a two-column key where
				// there is one.
				if big := []int{arity - 1, arity - 2}[:min(arity, 2)]; n > 300 && !slices.Equal(key, big) {
					continue
				}
				for name, fill := range fills {
					flat := make([]int32, 0, n*arity)
					for r := 0; r < n; r++ {
						for c := 0; c < arity; c++ {
							flat = append(flat, fill(r, c, n))
						}
					}
					input := append([]int32(nil), flat...)
					sortRows(flat, arity, key)
					for entry, e := range entries {
						label := fmt.Sprintf("%s: arity %d key %v n %d %s", entry, arity, key, n, name)
						cols := make([][]int32, arity)
						for c := range cols {
							cols[c] = make([]int32, n)
							for r := range cols[c] {
								cols[c][r] = input[r*arity+c]
							}
						}
						got, sorted := e.s.sortCols(cols, key, e.inPlace)
						for c := range cols {
							for r := range cols[c] {
								if !e.inPlace && cols[c][r] != input[r*arity+c] {
									t.Fatalf("%s: input column %d written at row %d", label, c, r)
								}
								if got[c][r] != flat[r*arity+c] {
									t.Fatalf("%s: row %d column %d is %d, row sort has %d", label, r, c, got[c][r], flat[r*arity+c])
								}
							}
						}
						if wasSorted := slices.Equal(input, flat); sorted != wasSorted {
							t.Errorf("%s: sorted = %v, input in key order = %v", label, sorted, wasSorted)
						}
					}
				}
			}
		}
	}
}

// FuzzIngestSort holds the in-place sort, on one reused sorter, to the row
// sort: arity 1 to 4, any key order, values of any range.
func FuzzIngestSort(f *testing.F) {
	f.Add([]byte{3, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0}, uint8(0), uint8(1), uint8(0))
	f.Add([]byte{0, 0, 0, 0x80, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 5, 0, 0, 0}, uint8(1), uint8(3), uint8(0))
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice over"), uint8(2), uint8(7), uint8(20))
	s := new(sorter)
	f.Fuzz(func(t *testing.T, data []byte, a, keySel, shift uint8) {
		arity := int(a%4) + 1
		orders := keyOrders(arity)
		key := orders[int(keySel)%len(orders)]
		n := len(data) / (4 * arity)
		flat := make([]int32, n*arity)
		for i := range flat {
			flat[i] = int32(binary.LittleEndian.Uint32(data[4*i:])) >> (shift % 32)
		}
		cols := make([][]int32, arity)
		for c := range cols {
			cols[c] = make([]int32, n)
			for r := range cols[c] {
				cols[c][r] = flat[r*arity+c]
			}
		}
		input := append([]int32(nil), flat...)
		sortRows(flat, arity, key)
		_, sorted := s.sortCols(cols, key, true)
		for c := range cols {
			for r := range cols[c] {
				if cols[c][r] != flat[r*arity+c] {
					t.Fatalf("key %v: row %d column %d is %d, row sort has %d", key, r, c, cols[c][r], flat[r*arity+c])
				}
			}
		}
		if wasSorted := slices.Equal(input, flat); sorted != wasSorted {
			t.Fatalf("key %v: sorted = %v, input in key order = %v", key, sorted, wasSorted)
		}
	})
}

// TestCutAfterInPlaceSort: an unsorted batch of exactly FlushRows rows is
// sorted in place and cut as it is, into one segment in key order with
// honest bounds; two interleaved half-batches still make one sorted
// segment; a Handle opened between them reads the same rows after the second
// batch is sorted and cut; and the catalog keeps sort scratch for at most
// FlushRows rows.
func TestCutAfterInPlaceSort(t *testing.T) {
	const flush = 64
	c := mustOpen(t, t.TempDir(), Options{FlushRows: flush})
	defer c.Close()
	for _, name := range []string{"whole", "halves", "big"} {
		if err := c.Create(name, pairSchema()); err != nil {
			t.Fatal(err)
		}
	}
	// batch is rows unsorted rows: keys step by 7 mod 97 plus offset, and
	// the value column numbers the rows from id on.
	batch := func(rows, offset, id int) [][]int32 {
		cols := [][]int32{make([]int32, rows), make([]int32, rows)}
		for r := range rows {
			cols[0][r], cols[1][r] = int32(r*7%97*2+offset), int32(id+r)
		}
		return cols
	}
	sortedSegments := func(name string, wantRows int64) {
		t.Helper()
		c.mu.Lock()
		segs := append([]SegmentMeta(nil), c.man.Tables[name].Segments...)
		c.mu.Unlock()
		if len(segs) != 1 || segs[0].Rows != wantRows {
			t.Fatalf("%s: segments %+v, want one of %d rows", name, segs, wantRows)
		}
		all := readAll(t, c, name)
		for i := 2; i < len(all); i += 2 {
			if all[i] < all[i-2] || all[i] == all[i-2] && all[i+1] < all[i-1] {
				t.Fatalf("%s: row %d (%d,%d) after (%d,%d)", name, i/2, all[i], all[i+1], all[i-2], all[i-1])
			}
		}
		if lo, hi := all[0], all[2*wantRows-2]; segs[0].MinKey != lo || segs[0].MaxKey != hi {
			t.Fatalf("%s: bounds [%d, %d], rows span [%d, %d]", name, segs[0].MinKey, segs[0].MaxKey, lo, hi)
		}
	}

	res, err := c.AppendCols("whole", batch(flush, 0, 0))
	if err != nil || res.Sorted || res.Flushed != 1 {
		t.Fatalf("whole batch: %+v, %v", res, err)
	}
	sortedSegments("whole", flush)

	if _, err := c.AppendCols("halves", batch(flush/2, 0, 0)); err != nil {
		t.Fatal(err)
	}
	h, err := c.OpenTable("halves")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	read := func() []int32 {
		out := make([]int32, h.Rows()*2)
		if err := h.ReadRecords(out, 0, h.Rows()); err != nil {
			t.Fatal(err)
		}
		return out
	}
	before := read()
	if _, err := c.AppendCols("halves", batch(flush/2, 1, flush/2)); err != nil {
		t.Fatal(err)
	}
	if after := read(); !slices.Equal(before, after) || h.Rows() != flush/2 {
		t.Fatalf("snapshot read %v before the second batch, %v after", before, after)
	}
	sortedSegments("halves", flush)

	if cap(c.scratch.words) != flush {
		t.Fatalf("scratch holds %d words after %d-row batches", cap(c.scratch.words), flush)
	}
	if _, err := c.AppendCols("big", batch(flush+1, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if cap(c.scratch.words) != flush {
		t.Fatalf("scratch holds %d words after a %d-row batch, keeps at most %d", cap(c.scratch.words), flush+1, flush)
	}
}
