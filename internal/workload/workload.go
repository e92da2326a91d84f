// Package workload generates the deterministic synthetic relations the
// experiments run on: uniform key/payload pairs with controllable join
// selectivity, sorted lists with duplicates, value-multiplicity multisets,
// and column files. All generators are seeded and reproducible.
package workload

import "math/rand"

// UniformPairs returns n tuples 〈key, payload〉 with keys uniform in
// [0, keyRange). Join selectivity between two such relations scales with
// 1/keyRange.
func UniformPairs(n int64, keyRange int64, seed int64) []int32 {
	r := rand.New(rand.NewSource(seed))
	if keyRange < 1 {
		keyRange = 1
	}
	out := make([]int32, 0, 2*n)
	for i := int64(0); i < n; i++ {
		out = append(out, int32(r.Int63n(keyRange)), int32(i))
	}
	return out
}

// Ints returns n unsorted integers (arity-1 rows).
func Ints(n int64, valRange int64, seed int64) []int32 {
	r := rand.New(rand.NewSource(seed))
	if valRange < 1 {
		valRange = 1
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(r.Int63n(valRange))
	}
	return out
}

// SortedInts returns n sorted integers with duplicates (dupFactor controls
// how many distinct values exist: n/dupFactor). The values are Ints' draws
// for the same seed, counted rather than compared into order: the range is
// at most n, so the sort is O(n).
func SortedInts(n int64, dupFactor int64, seed int64) []int32 {
	if dupFactor < 1 {
		dupFactor = 1
	}
	valRange := maxI64(n/dupFactor, 1)
	r := rand.New(rand.NewSource(seed))
	ends := make([]int32, valRange)
	for i := int64(0); i < n; i++ {
		ends[r.Int63n(valRange)]++
	}
	for v := int64(1); v < valRange; v++ {
		ends[v] += ends[v-1]
	}
	out := make([]int32, n+1)
	fillRuns(out, ends)
	return out[:n]
}

// SortedPairs returns n 〈key, payload〉 tuples as a key and a payload
// column, sorted by key and, within a key, by payload: UniformPairs' draws
// over max(n/2, 8) keys for the same seed, put in order by a stable counting
// sort (O(n), the key range being at most n).
func SortedPairs(n, seed int64) (keys, payloads []int32) {
	keyRange := maxI64(n/2, 8)
	r := rand.New(rand.NewSource(seed))
	keys = make([]int32, n+1)
	// next[k+1] counts key k, then next[k] is where its next tuple goes.
	next := make([]int32, keyRange+1)
	for i := range keys[:n] {
		k := int32(r.Int63n(keyRange))
		keys[i] = k
		next[k+1]++
	}
	for k := int64(1); k < keyRange; k++ {
		next[k+1] += next[k]
	}
	payloads = make([]int32, n)
	for i, k := range keys[:n] {
		payloads[next[k]] = int32(i)
		next[k]++
	}
	// Every tuple is placed, so next[k] is where key k's run ends.
	clear(keys)
	fillRuns(keys, next[:keyRange])
	return keys[:n], payloads
}

// fillRuns writes the sorted column whose run of value v ends at ends[v]:
// out, zeroed and one longer than the column, first counts the runs ending
// at each position, and the running sum of that is the value there. Two
// branch-free passes: the runs are a few values long and of unpredictable
// length, which a loop per run pays for in mispredictions.
func fillRuns(out, ends []int32) {
	for _, e := range ends[:len(ends)-1] {
		out[e]++
	}
	v := int32(0)
	for i, started := range out {
		v += started
		out[i] = v
	}
}

// SortedUniqueInts returns n sorted distinct integers.
func SortedUniqueInts(n int64, seed int64) []int32 {
	r := rand.New(rand.NewSource(seed))
	out := make([]int32, n)
	cur := int32(0)
	for i := range out {
		cur += int32(r.Intn(5) + 1)
		out[i] = cur
	}
	return out
}

// ValueMult returns n sorted 〈value, multiplicity〉 pairs with distinct
// values and multiplicities in [1, 10].
func ValueMult(n int64, seed int64) []int32 {
	r := rand.New(rand.NewSource(seed))
	out := make([]int32, 0, 2*n)
	cur := int32(0)
	for i := int64(0); i < n; i++ {
		cur += int32(r.Intn(4) + 1)
		out = append(out, cur, int32(r.Intn(10)+1))
	}
	return out
}

// Column returns one column file of n values.
func Column(n int64, seed int64) []int32 {
	return Ints(n, 1<<30, seed)
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
