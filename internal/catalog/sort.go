package catalog

import "math/bits"

// digitBits is the widest radix digit: a 2048-bucket histogram per digit,
// three of which cover a 32-bit key span and fit on the stack.
const digitBits = 11

// sorter is ingest's one sort: a stable LSD radix over the key columns,
// last to first. Each column pass packs (value−min)<<32 | row into a word,
// so the digits cover only the column's range, and scatters the words once
// per digit. The scratch is kept between calls; a Catalog reuses one sorter
// under its mutex.
type sorter struct {
	words, tmp []uint64
	col        []int32 // gather scratch of an in-place sort
}

// sortCols returns cols (one vector per column, equal lengths) stable-sorted
// on the key column indices, most significant first, and whether the rows
// were in key order already. Sorted input — every generator-reproduction
// load — costs one comparison pass and comes back as cols itself. Otherwise
// inPlace permutes the rows in cols, vectors the caller owns; without it the
// rows come back in fresh vectors and cols is never written: a snapshot may
// share it.
func (s *sorter) sortCols(cols [][]int32, key []int, inPlace bool) (out [][]int32, sorted bool) {
	if len(key) == 0 || len(cols[0]) < 2 || inKeyOrder(cols, key) {
		return cols, true
	}
	words, packed, lo := s.order(cols, key)
	out = cols
	if !inPlace {
		out = make([][]int32, len(cols))
	}
	for c, col := range cols {
		dst := col
		if !inPlace {
			dst = make([]int32, len(col))
		}
		switch {
		case c == packed: // the last pass left its values in the words
			for i, w := range words {
				dst[i] = int32(int64(w>>32) + lo)
			}
		case inPlace:
			s.col = grow(s.col, len(col))
			for i, w := range words {
				s.col[i] = col[uint32(w)]
			}
			copy(col, s.col)
		default:
			for i, w := range words {
				dst[i] = col[uint32(w)]
			}
		}
		out[c] = dst
	}
	return out, false
}

// order returns the rows' stable key order as the low halves of words. The
// high halves hold column packed's values less lo, the column of the last
// pass that moved anything. A column whose values are all equal is skipped;
// the rows are not in key order, so some column moves.
func (s *sorter) order(cols [][]int32, key []int) (words []uint64, packed int, lo int64) {
	n := len(cols[0])
	s.words, s.tmp = grow(s.words, n), grow(s.tmp, n)
	words, tmp := s.words, s.tmp
	packed = -1
	for k := len(key) - 1; k >= 0; k-- {
		col := cols[key[k]]
		mn, mx := col[0], col[0]
		for _, v := range col {
			mn, mx = min(mn, v), max(mx, v)
		}
		if mn == mx {
			continue
		}
		lo = int64(mn)
		if packed < 0 {
			for i, v := range col {
				words[i] = uint64(int64(v)-lo)<<32 | uint64(i)
			}
		} else {
			for i, w := range words {
				r := uint32(w)
				words[i] = uint64(int64(col[r])-lo)<<32 | uint64(r)
			}
		}
		packed = key[k]
		words, tmp = radix(words, tmp, bits.Len64(uint64(int64(mx)-lo)))
	}
	s.words, s.tmp = words, tmp
	return words, packed, lo
}

// radix stable-sorts words on their high width bits, split into equal
// digits of at most digitBits, and returns the sorted words and the other
// buffer. Every digit's histogram is filled in one counting pass.
func radix(words, tmp []uint64, width int) ([]uint64, []uint64) {
	var count [(32 + digitBits - 1) / digitBits][1 << digitBits]uint32
	digits := (width + digitBits - 1) / digitBits
	w := uint((width + digits - 1) / digits)
	mask := uint64(1)<<w - 1
	// One loop per digit count: counting a digit that is always zero
	// serializes every row on one counter.
	switch digits {
	case 1:
		for _, x := range words {
			count[0][x>>32&mask]++
		}
	case 2:
		for _, x := range words {
			count[0][x>>32&mask]++
			count[1][x>>(32+w)&mask]++
		}
	default:
		for _, x := range words {
			count[0][x>>32&mask]++
			count[1][x>>(32+w)&mask]++
			count[2][x>>(32+2*w)&mask]++
		}
	}
	for d := range digits {
		scatter(tmp, words, &count[d], 32+uint(d)*w, mask)
		words, tmp = tmp, words
	}
	return words, tmp
}

// scatter moves src's words into dst, stably ordered on the digit at shift
// under mask, whose count per value cnt holds. It is a function of its own
// so that the loop keeps its values in registers.
func scatter(dst, src []uint64, cnt *[1 << digitBits]uint32, shift uint, mask uint64) {
	sum := uint32(0)
	for b, c := range cnt {
		cnt[b], sum = sum, sum+c
	}
	for _, x := range src {
		b := x >> (shift & 63) & mask & (1<<digitBits - 1)
		dst[cnt[b]] = x
		cnt[b]++
	}
}

// grow returns buf resliced to n, reallocated when its capacity is short.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// inKeyOrder reports whether no row sorts before its predecessor.
func inKeyOrder(cols [][]int32, key []int) bool {
	first := cols[key[0]]
	for i := 1; i < len(first); i++ {
		if first[i-1] < first[i] {
			continue
		}
		if first[i-1] > first[i] {
			return false
		}
		for _, k := range key[1:] {
			if a, b := cols[k][i-1], cols[k][i]; a != b {
				if a > b {
					return false
				}
				break
			}
		}
	}
	return true
}
