package catalog

// sortCols returns cols (one vector per column, equal lengths) stable-sorted
// on the key column indices, most significant first, and whether the rows
// were in key order already. Sorted input — every generator-reproduction
// load — costs one comparison pass and comes back as cols itself; anything
// else comes back in fresh vectors. cols is never written: a snapshot may
// share it.
func sortCols(cols [][]int32, key []int) (out [][]int32, sorted bool) {
	if len(key) == 0 || len(cols[0]) < 2 || inKeyOrder(cols, key) {
		return cols, true
	}
	perm := sortPerm(cols, key)
	out = make([][]int32, len(cols))
	for c, col := range cols {
		dst := make([]int32, len(col))
		for i, p := range perm {
			dst[i] = col[p]
		}
		out[c] = dst
	}
	return out, false
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

// sortPerm returns the stable sorting permutation of the rows: LSD radix
// over the key columns last to first, each int32 as two 16-bit digits of its
// sign-flipped image (so the unsigned digit order is the signed value order).
// Every pass is a stable counting sort, which makes the whole permutation
// stable. A digit on which all rows agree moves nothing and is skipped — the
// high half of small keys, typically.
func sortPerm(cols [][]int32, key []int) []uint32 {
	n := len(cols[0])
	perm, next := make([]uint32, n), make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	count := make([]uint32, 2<<16)
	lo, hi := count[:1<<16], count[1<<16:]
	for k := len(key) - 1; k >= 0; k-- {
		col := cols[key[k]]
		clear(count)
		for _, v := range col {
			u := uint32(v) ^ 1<<31
			lo[u&0xffff]++
			hi[u>>16]++
		}
		for d, cnt := range [2][]uint32{lo, hi} {
			shift := uint(16 * d)
			if cnt[(uint32(col[0])^1<<31)>>shift&0xffff] == uint32(n) {
				continue
			}
			sum := uint32(0)
			for b, c := range cnt {
				cnt[b], sum = sum, sum+c
			}
			for _, p := range perm {
				b := (uint32(col[p]) ^ 1<<31) >> shift & 0xffff
				next[cnt[b]] = p
				cnt[b]++
			}
			perm, next = next, perm
		}
	}
	return perm
}
