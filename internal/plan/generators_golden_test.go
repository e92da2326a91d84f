package plan

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"ocas/internal/workload"
)

const generatorsGoldenPath = "../workload/testdata/generators.golden.json"

// rowsHash is the SHA-256 of the rows' little-endian bytes.
func rowsHash(rows []int32) string {
	buf := make([]byte, 0, 4*len(rows))
	for _, v := range rows {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// TestGeneratorsGolden pins every value the executor's input generators
// produce, over sizes around the small-n clamps and seeds including the
// per-input offset (seed + idx*7919), so a change of sorting algorithm shows
// as a diff here before it shows as a digest drift anywhere else.
func TestGeneratorsGolden(t *testing.T) {
	got := map[string]string{}
	for _, n := range []int64{0, 1, 2, 15, 16, 17, 4096, 1 << 17} {
		for _, seed := range []int64{0, 1, 5, 5 + 7919} {
			at := fmt.Sprintf("n=%d/seed=%d", n, seed)
			for _, dup := range []int64{1, 4, 8} {
				got[fmt.Sprintf("SortedInts/dup=%d/%s", dup, at)] = rowsHash(workload.SortedInts(n, dup, seed))
			}
			got["SortedPairs/"+at] = rowsHash(sortedPairs(n, seed))
			got["GeneratedPairs/"+at] = rowsHash(GeneratedPairs(n, seed))
			got["GeneratedInts/"+at] = rowsHash(GeneratedInts(n, seed))
		}
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(generatorsGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(generatorsGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d entries, the grid %d", len(want), len(got))
	}
	for k, g := range got {
		if want[k] != g {
			t.Errorf("%s: %s, golden %s", k, g, want[k])
		}
	}
}
