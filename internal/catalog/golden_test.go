package catalog

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/ingest.golden.json")

const ingestGoldenPath = "testdata/ingest.golden.json"

// splitmix is the load's own generator, so the golden does not depend on
// math/rand's stream.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// goldenBatch is n rows of the given arity: keys drawn from a narrow signed
// range (duplicates, negatives), every hundredth an int32 extreme, the last
// column a running row id so equal-key rows are distinguishable and a stable
// sort is the only one that reproduces the files.
func goldenBatch(g *splitmix, id *int32, n, arity int, sorted bool) []int32 {
	flat := make([]int32, 0, n*arity)
	for r := 0; r < n; r++ {
		for c := 0; c < arity; c++ {
			v := int32(g.next()%41) - 20
			switch g.next() % 100 {
			case 0:
				v = math.MinInt32
			case 1:
				v = math.MaxInt32
			}
			if sorted {
				v = int32(r / 3)
			}
			if c == arity-1 && arity > 1 {
				v = *id
				*id++
			}
			flat = append(flat, v)
		}
	}
	return flat
}

// goldenLoad runs the fixed load into dir and returns file name -> SHA-256
// of every segment and of the manifest.
func goldenLoad(t *testing.T, dir string, opts Options, big bool) map[string]string {
	t.Helper()
	c := mustOpen(t, dir, opts)
	tables := []struct {
		name  string
		arity int
		key   []int
	}{
		{"one", 1, []int{0}},
		{"pair", 2, []int{0}},
		{"twokey", 3, []int{1, 0}},
		{"nokey", 2, nil},
	}
	for _, tb := range tables {
		sch := Schema{Key: tb.key}
		for i := 0; i < tb.arity; i++ {
			sch.Columns = append(sch.Columns, Column{Name: string(rune('a' + i)), Type: "int32"})
		}
		if err := c.Create(tb.name, sch); err != nil {
			t.Fatal(err)
		}
	}
	g := splitmix(16)
	var id int32
	sizes := []int{37, 100, 1, 250, 63, 0, 99, 101, 7}
	if big {
		sizes = []int{70000, 5}
	}
	for round, n := range sizes {
		for _, tb := range tables {
			batch := goldenBatch(&g, &id, n, tb.arity, round == 4)
			if _, err := c.Append(tb.name, batch); err != nil {
				t.Fatal(err)
			}
		}
		if round == 2 {
			if err := c.Flush("pair"); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(raw)
		out[e.Name()] = hex.EncodeToString(sum[:])
	}
	return out
}

// TestIngestGolden pins the bytes ingest leaves on disk — every segment file
// and the manifest — for a fixed load: arity 1 to 3, unsorted batches with
// duplicate, negative and extreme keys, a two-column key, a keyless table,
// batches that straddle the flush threshold, a forced flush and the final
// one at Close. The file was written by the row-major sort.SliceStable ingest
// path; the columnar one has to reproduce it un-regenerated.
func TestIngestGolden(t *testing.T) {
	got := map[string]map[string]string{
		"small":   goldenLoad(t, t.TempDir(), Options{FlushRows: 100, ChunkRows: 32}, false),
		"default": goldenLoad(t, t.TempDir(), Options{}, true),
	}
	if *updateGolden {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(ingestGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ingestGoldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(ingestGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	var want map[string]map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for load, files := range want {
		for name, sum := range files {
			if got[load][name] != sum {
				t.Errorf("%s/%s: sha256 %q, golden %s", load, name, got[load][name], sum)
			}
		}
		if len(got[load]) != len(files) {
			t.Errorf("%s: %d files on disk, golden has %d", load, len(got[load]), len(files))
		}
	}
	if len(got) != len(want) {
		t.Errorf("loads %d, golden has %d", len(got), len(want))
	}
}
