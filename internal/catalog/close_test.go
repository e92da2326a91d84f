package catalog

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// TestCloseFlushDurability drives the graceful-shutdown path: Append leaves
// rows buffered below the flush threshold, Close must cut them into a final
// segment with no .tmp leftovers, and a reopened catalog must see every row.
func TestCloseFlushDurability(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, Options{FlushRows: 256})
	if err != nil {
		t.Fatal(err)
	}
	sch := Schema{Columns: []Column{{Name: "k"}, {Name: "v"}}, Key: []int{0}}
	if err := c.Create("orders", sch); err != nil {
		t.Fatal(err)
	}
	rows := make([]int32, 0, 1000)
	for k := int32(0); k < 500; k++ {
		rows = append(rows, k, k*3+1)
	}
	if _, err := c.Append("orders", rows); err != nil {
		t.Fatal(err)
	}
	rows = rows[:0]
	for k := int32(500); k < 600; k++ {
		rows = append(rows, k, k+7)
	}
	if _, err := c.Append("orders", rows); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Errorf("leftover tmp file %s", e.Name())
		}
	}
	c2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	info, ok := c2.Info("orders")
	if !ok || info.Rows != 600 || info.Segments != 3 {
		t.Fatalf("reopen: %+v ok=%v", info, ok)
	}
	for _, seg := range c2.man.Tables["orders"].Segments {
		if _, err := os.Stat(filepath.Join(dir, seg.File)); err != nil {
			t.Errorf("segment missing: %v", err)
		}
	}
}

// TestFailedFlushIngestsNothing: a batch whose segment cannot be written is
// refused whole — rows, counters and version as before, no file left — and
// the same batch retried on a healthy directory is ingested exactly once.
func TestFailedFlushIngestsNothing(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir, Options{FlushRows: 4})
	defer c.Close()
	if err := c.Create("t", pairSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append("t", []int32{9, 90}); err != nil {
		t.Fatal(err)
	}
	before, statsBefore := mustInfo(t, c, "t"), c.Stats()

	// A directory where the second segment of the batch has to land.
	blocker := filepath.Join(dir, "t-000001.seg")
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	batch := []int32{5, 50, 1, 10, 3, 30, 2, 20, 4, 40, 8, 80, 7, 70, 6, 60}
	if _, err := c.Append("t", batch); err == nil {
		t.Fatal("append over a blocked segment path succeeded")
	}
	if after := mustInfo(t, c, "t"); !reflect.DeepEqual(after, before) {
		t.Fatalf("failed append changed the table: %+v, was %+v", after, before)
	}
	if after := c.Stats(); after != statsBefore {
		t.Fatalf("failed append changed the counters: %+v, were %+v", after, statsBefore)
	}
	if got := readAll(t, c, "t"); !slices.Equal(got, []int32{9, 90}) {
		t.Fatalf("failed append left rows behind: %v", got)
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "t-*.seg*")); !slices.Equal(segs, []string{blocker}) {
		t.Fatalf("failed append left files behind: %v", segs)
	}

	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	total, err := c.Append("t", batch)
	if err != nil || total != 9 {
		t.Fatalf("retry: total %d, %v", total, err)
	}
	if st := c.Stats(); st.IngestedRows != statsBefore.IngestedRows+8 || st.SegmentFlushes != 2 {
		t.Fatalf("retry counters %+v", st)
	}
	if got := readAll(t, c, "t"); !slices.Equal(got, []int32{1, 10, 2, 20, 3, 30, 9, 90, 4, 40, 5, 50, 6, 60, 7, 70, 8, 80}) {
		t.Fatalf("retry rows %v", got)
	}
}
