package plan

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"testing"
)

// TestGeneratedRowsGolden is internal/workload's TestGeneratorsGolden for the
// row-major adapters the benchmark harness and the ingest differentials load
// tables through: the same file, the GeneratedPairs and GeneratedInts entries.
func TestGeneratedRowsGolden(t *testing.T) {
	data, err := os.ReadFile("../workload/testdata/generators.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	check := func(key string, rows []int32) {
		buf := make([]byte, 0, 4*len(rows))
		for _, v := range rows {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		}
		sum := sha256.Sum256(buf)
		if got := hex.EncodeToString(sum[:]); got != want[key] {
			t.Errorf("%s: %s, golden %s", key, got, want[key])
		}
	}
	for _, n := range []int64{0, 1, 2, 15, 16, 17, 4096, 1 << 17} {
		for _, seed := range []int64{0, 1, 5, 5 + 7919} {
			at := fmt.Sprintf("n=%d/seed=%d", n, seed)
			check("GeneratedPairs/"+at, GeneratedPairs(n, seed))
			check("GeneratedInts/"+at, GeneratedInts(n, seed))
		}
	}
}
