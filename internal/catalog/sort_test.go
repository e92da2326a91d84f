package catalog

import (
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
// in every order, n of 0, 1, 2, 300 and 65536, values that are random, narrow
// (many duplicates), extreme, all equal, sorted and reverse-sorted — the
// radix permutation orders the rows exactly as sort.SliceStable did, never
// writes its input, and says whether it had anything to do.
func TestSortColsMatchesRowSort(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	fills := map[string]func(r, n int) int32{
		"random":  func(int, int) int32 { return int32(rng.Uint32()) },
		"narrow":  func(int, int) int32 { return int32(rng.Intn(7)) - 3 },
		"extreme": func(int, int) int32 { return [3]int32{math.MinInt32, 0, math.MaxInt32}[rng.Intn(3)] },
		"equal":   func(int, int) int32 { return 42 },
		"sorted":  func(r, _ int) int32 { return int32(r/3) - 5 },
		"reverse": func(r, n int) int32 { return int32((n-r)/3) - 5 },
	}
	for arity := 1; arity <= 4; arity++ {
		for _, key := range keyOrders(arity) {
			for _, n := range []int{0, 1, 2, 300, 65536} {
				// The big shape once per arity, on a two-column key where
				// there is one.
				if big := []int{arity - 1, arity - 2}[:min(arity, 2)]; n == 65536 && !slices.Equal(key, big) {
					continue
				}
				for name, fill := range fills {
					flat := make([]int32, 0, n*arity)
					for r := 0; r < n; r++ {
						for c := 0; c < arity; c++ {
							flat = append(flat, fill(r, n))
						}
					}
					label := fmt.Sprintf("arity %d key %v n %d %s", arity, key, n, name)
					cols := make([][]int32, arity)
					for c := range cols {
						cols[c] = make([]int32, n)
						for r := range cols[c] {
							cols[c][r] = flat[r*arity+c]
						}
					}
					input := append([]int32(nil), flat...)
					sortRows(flat, arity, key)
					got, sorted := sortCols(cols, key)
					for c := range cols {
						for r := range cols[c] {
							if cols[c][r] != input[r*arity+c] {
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
