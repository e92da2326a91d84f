package catalog

import (
	"errors"
	"fmt"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
)

// bindRows binds the named table and returns its image's columns and their
// release, failing the test on an error.
func bindRows(t *testing.T, c *Catalog, name string) ([][]int32, func(), bool) {
	t.Helper()
	cols, release, loaded, err := c.Bind(name)
	if err != nil {
		t.Fatal(err)
	}
	return cols, release, loaded
}

// TestTableImageDropRecreate: a table dropped and created again under its
// name, with other rows in as many appends, has the same manifest Version
// as its predecessor; its binds serve its own rows, never the old image,
// whether a run still holds that image or not.
func TestTableImageDropRecreate(t *testing.T) {
	for _, held := range []bool{false, true} {
		c := mustOpen(t, t.TempDir(), Options{FlushRows: 4})
		if err := c.Create("t", pairSchema()); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Append("t", []int32{1, 10, 2, 20, 3, 30}); err != nil {
			t.Fatal(err)
		}
		old, release, _ := bindRows(t, c, "t")
		before := mustInfo(t, c, "t")
		if !held {
			release()
		}
		if err := c.Drop("t"); err != nil {
			t.Fatal(err)
		}
		if err := c.Create("t", pairSchema()); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Append("t", []int32{4, 40, 5, 50, 6, 60}); err != nil {
			t.Fatal(err)
		}
		if after := mustInfo(t, c, "t"); after.Version != before.Version {
			t.Fatalf("held %v: the successor's version %d, the dropped table's %d: the case is not the one meant",
				held, after.Version, before.Version)
		}
		cols, release2, loaded := bindRows(t, c, "t")
		if !loaded || !slices.Equal(cols[0], []int32{4, 5, 6}) || !slices.Equal(cols[1], []int32{40, 50, 60}) {
			t.Errorf("held %v: the recreated table binds %v (loaded %v), want its own rows", held, cols, loaded)
		}
		if held {
			if !slices.Equal(old[1], []int32{10, 20, 30}) {
				t.Errorf("the dropped table's image changed under its run: %v", old)
			}
			release()
		}
		release2()
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if st := c.Stats(); st.Images != 0 || st.ImageBytes != 0 {
			t.Errorf("held %v: %d images of %d bytes left after Close", held, st.Images, st.ImageBytes)
		}
	}
}

// TestTableImageMutationRetires: an append or a flush after an image was
// taken retires it. The next bind loads the new version, the run holding
// the old image reads it unchanged, and its bytes are unmapped once that
// run lets go.
func TestTableImageMutationRetires(t *testing.T) {
	for name, mutate := range map[string]func(c *Catalog) error{
		"append": func(c *Catalog) error { _, err := c.Append("t", []int32{9, 90}); return err },
		"flush":  func(c *Catalog) error { return c.Flush("t") },
	} {
		t.Run(name, func(t *testing.T) {
			c := mustOpen(t, t.TempDir(), Options{FlushRows: 4})
			defer c.Close()
			if err := c.Create("t", pairSchema()); err != nil {
				t.Fatal(err)
			}
			// One segment and a buffered tail of two rows.
			if _, err := c.Append("t", []int32{1, 10, 2, 20, 3, 30, 4, 40, 5, 50, 6, 60}); err != nil {
				t.Fatal(err)
			}
			old, release, loaded := bindRows(t, c, "t")
			if !loaded || len(old[0]) != 6 {
				t.Fatalf("first bind: %v (loaded %v)", old, loaded)
			}
			if _, again, loaded := bindRows(t, c, "t"); loaded {
				t.Error("a second bind of one version loaded it again")
			} else {
				again()
			}
			if err := mutate(c); err != nil {
				t.Fatal(err)
			}
			cols, release2, loaded := bindRows(t, c, "t")
			want := mustInfo(t, c, "t").Rows
			if !loaded || int64(len(cols[0])) != want {
				t.Errorf("bind after the %s: %d rows (loaded %v), want the new version's %d", name, len(cols[0]), loaded, want)
			}
			if !slices.Equal(old[1], []int32{10, 20, 30, 40, 50, 60}) {
				t.Errorf("the retired image changed under its run: %v", old)
			}
			oldBytes, newBytes := int64(6*2*4), want*2*4
			if st := c.Stats(); st.Images != 2 || st.ImageBytes != oldBytes+newBytes || st.ImageLoads != 2 {
				t.Errorf("with both images held: %+v", st)
			}
			release()
			if st := c.Stats(); st.Images != 1 || st.ImageBytes != newBytes {
				t.Errorf("after the old image's run let go: %d images of %d bytes, want 1 of %d", st.Images, st.ImageBytes, newBytes)
			}
			release2()
			if st := c.Stats(); st.Images != 1 || st.ImageBytes != newBytes {
				t.Errorf("the current image, idle, left residence: %+v", st)
			}
		})
	}
}

// TestTableImageReadOnly: a store into a view faults, which
// SetPanicOnFault turns into a panic here, and an append to a view
// reallocates instead of writing past its end.
func TestTableImageReadOnly(t *testing.T) {
	c := mustOpen(t, t.TempDir(), Options{FlushRows: 4})
	defer c.Close()
	if err := c.Create("t", pairSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append("t", []int32{1, 10, 2, 20, 3, 30, 4, 40, 5, 50}); err != nil {
		t.Fatal(err)
	}
	cols, release, _ := bindRows(t, c, "t")
	defer release()
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	for i, col := range cols {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("a store into column %d's view did not fault", i)
				}
			}()
			col[len(col)-1] = 7
		}()
		grown := append(col, 7)
		if cap(col) != len(col) || &grown[0] == &col[0] {
			t.Errorf("column %d: an append to the view shares its region (len %d, cap %d)", i, len(col), cap(col))
		}
	}
	if !slices.Equal(cols[1], []int32{10, 20, 30, 40, 50}) {
		t.Errorf("the image changed: %v", cols)
	}
}

// TestTableImageEmptyAndMissing: an empty table binds to empty columns and
// maps nothing; a missing table is ErrNoTable and caches nothing.
func TestTableImageEmptyAndMissing(t *testing.T) {
	c := mustOpen(t, t.TempDir(), Options{})
	defer c.Close()
	if err := c.Create("e", pairSchema()); err != nil {
		t.Fatal(err)
	}
	cols, release, loaded := bindRows(t, c, "e")
	if !loaded || len(cols) != 2 || len(cols[0]) != 0 {
		t.Errorf("empty table binds %v (loaded %v)", cols, loaded)
	}
	release()
	if st := c.Stats(); st.ImageBytes != 0 || st.ImageLoads != 1 {
		t.Errorf("an empty table's image: %+v", st)
	}
	if _, _, _, err := c.Bind("nope"); !errors.Is(err, ErrNoTable) {
		t.Errorf("bind of a missing table: %v", err)
	}
	if len(c.images) != 1 {
		t.Errorf("%d images cached, want the empty table's only", len(c.images))
	}
}

// TestTableImageAfterClose: after Close a bind or a snapshot fails with
// ErrClosed and maps nothing, whether the table had an image or not.
func TestTableImageAfterClose(t *testing.T) {
	c := mustOpen(t, t.TempDir(), Options{})
	for _, name := range []string{"t", "u"} {
		if err := c.Create(name, pairSchema()); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Append(name, []int32{1, 10, 2, 20}); err != nil {
			t.Fatal(err)
		}
	}
	_, release, _ := bindRows(t, c, "t")
	release()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"t", "u"} {
		if _, _, _, err := c.Bind(name); !errors.Is(err, ErrClosed) {
			t.Errorf("bind of %q after Close: %v, want ErrClosed", name, err)
		}
		if _, err := c.OpenTable(name); !errors.Is(err, ErrClosed) {
			t.Errorf("snapshot of %q after Close: %v, want ErrClosed", name, err)
		}
	}
	if st := c.Stats(); st.Images != 0 || st.ImageBytes != 0 || len(c.images) != 0 {
		t.Errorf("after Close and binds: %d images of %d bytes, %d cached", st.Images, st.ImageBytes, len(c.images))
	}
}

// TestTableImageConcurrent binds one table from several goroutines while
// another appends to it and drops and recreates it. Every bind sees one
// whole version: batches of equal values in append order. A bind that
// races a drop finds no table.
func TestTableImageConcurrent(t *testing.T) {
	c := mustOpen(t, t.TempDir(), Options{FlushRows: 96})
	sch := Schema{Columns: []Column{{Name: "v"}}}
	if err := c.Create("t", sch); err != nil {
		t.Fatal(err)
	}
	const batch = 32
	var wg sync.WaitGroup
	done := make(chan struct{})
	errs := make(chan error, 8)
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				cols, release, _, err := c.Bind("t")
				if errors.Is(err, ErrNoTable) {
					continue
				}
				if err != nil {
					errs <- err
					return
				}
				col := cols[0]
				if len(col)%batch != 0 {
					err = fmt.Errorf("a version of %d rows", len(col))
				}
				for i := batch; i < len(col) && err == nil; i++ {
					if i%batch == 0 && col[i] <= col[i-1] || i%batch != 0 && col[i] != col[i-1] {
						err = fmt.Errorf("row %d holds %d after %d", i, col[i], col[i-1])
					}
				}
				release()
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for i := int32(1); i <= 200; i++ {
		if i%25 == 0 {
			if err := c.Drop("t"); err != nil {
				t.Fatal(err)
			}
			if err := c.Create("t", sch); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.AppendCols("t", [][]int32{slices.Repeat([]int32{i}, batch)}); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := c.Stats(); st.Images > 1 {
		t.Errorf("%d images mapped with no run holding one, want at most the current", st.Images)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Images != 0 || st.ImageBytes != 0 {
		t.Errorf("after Close: %d images of %d bytes", st.Images, st.ImageBytes)
	}
}

// TestTableImageBudget: idle current images stay resident up to the budget,
// the least recently bound retired past it; an image larger than the whole
// budget serves its run and is unmapped when the run lets go, retiring no
// other.
func TestTableImageBudget(t *testing.T) {
	defer func(b int64) { imageBudget = b }(imageBudget)
	imageBudget = 100
	c := mustOpen(t, t.TempDir(), Options{})
	defer c.Close()
	for i, name := range []string{"a", "b", "c", "big"} {
		if err := c.Create(name, pairSchema()); err != nil {
			t.Fatal(err)
		}
		rows := 6 // 48 bytes an image
		if name == "big" {
			rows = 20
		}
		if _, err := c.Append(name, slices.Repeat([]int32{int32(i), 1}, rows)); err != nil {
			t.Fatal(err)
		}
	}
	resident := func() []string {
		var out []string
		for name, im := range c.images {
			if im.cols != nil {
				out = append(out, name)
			}
		}
		slices.Sort(out)
		return out
	}
	for _, name := range []string{"a", "b", "a", "c"} {
		_, release, _ := bindRows(t, c, name)
		release()
	}
	if got := resident(); !slices.Equal(got, []string{"a", "c"}) {
		t.Errorf("resident after binding a, b, a, c at room for two: %v, want [a c]", got)
	}
	_, release, _ := bindRows(t, c, "big")
	if st := c.Stats(); st.Images != 3 || st.ImageBytes != 48+48+160 {
		t.Errorf("with the oversized image held: %+v", st)
	}
	release()
	if got := resident(); !slices.Equal(got, []string{"a", "c"}) {
		t.Errorf("resident after the oversized image's run: %v, want [a c]", got)
	}
	if st := c.Stats(); st.Images != 2 || st.ImageBytes != 96 || st.ImageLoads != 4 {
		t.Errorf("after the oversized image's run: %+v", st)
	}
}
