package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"testing"
)

// rowsHash is the SHA-256 of the rows' little-endian bytes.
func rowsHash(rows []int32) string {
	buf := make([]byte, 0, 4*len(rows))
	for _, v := range rows {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// TestGeneratorsGolden: the counting-sort generators produce, value for
// value, what the comparison sorts they replaced produced.
// testdata/generators.golden.json was written from sort.Slice and
// sort.SliceStable over the same math/rand draws, on sizes around the small-n
// clamps and seeds including the per-input offset (seed + idx*7919). It has
// no regeneration path: every pinned execution digest (internal/plan's
// goldens, benchmark/expected.json) is a function of these values, so they
// cannot change; internal/plan checks the file's GeneratedPairs and
// GeneratedInts entries.
func TestGeneratorsGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/generators.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	check := func(key string, rows []int32) {
		if got := rowsHash(rows); got != want[key] {
			t.Errorf("%s: %s, golden %s", key, got, want[key])
		}
	}
	for _, n := range []int64{0, 1, 2, 15, 16, 17, 4096, 1 << 17} {
		for _, seed := range []int64{0, 1, 5, 5 + 7919} {
			at := fmt.Sprintf("n=%d/seed=%d", n, seed)
			for _, dup := range []int64{1, 4, 8} {
				check(fmt.Sprintf("SortedInts/dup=%d/%s", dup, at), SortedInts(n, dup, seed))
			}
			keys, payloads := SortedPairs(n, seed)
			rows := make([]int32, 0, 2*n)
			for i := range keys {
				rows = append(rows, keys[i], payloads[i])
			}
			check("SortedPairs/"+at, rows)
		}
	}
}
