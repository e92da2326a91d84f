package plan

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"ocas/internal/catalog"
	"ocas/internal/exec"
	"ocas/internal/storage"
)

// ingestGenerated loads exactly the rows the generators would produce for
// the compiled task into a fresh catalog table per input, in several
// batches so segment boundaries and the buffered tail are exercised.
func ingestGenerated(t *testing.T, cat *catalog.Catalog, c *Compiled, opt ExecOptions) map[string]string {
	t.Helper()
	tables := map[string]string{}
	for i, in := range c.Task.Spec.Inputs {
		data, err := inputData(in, c.Task, opt, i)
		if err != nil {
			t.Fatal(err)
		}
		cols := make([]catalog.Column, in.Arity)
		for j := range cols {
			cols[j] = catalog.Column{Name: string(rune('a' + j)), Type: "int32"}
		}
		tname := "tbl_" + in.Name
		if err := cat.Create(tname, catalog.Schema{Columns: cols, Key: []int{0}}); err != nil {
			t.Fatal(err)
		}
		// Three uneven batches: generated rows are key-sorted, so the
		// stable ingest sort is the identity and order survives exactly.
		n := len(data[0])
		for _, cut := range [][2]int{{0, n / 3}, {n / 3, 2 * n / 3}, {2 * n / 3, n}} {
			batch := make([][]int32, in.Arity)
			for j, col := range data {
				batch[j] = append([]int32(nil), col[cut[0]:cut[1]]...)
			}
			if _, err := cat.AppendCols(tname, batch); err != nil {
				t.Fatal(err)
			}
		}
		tables[in.Name] = tname
	}
	return tables
}

// TestDurableScanDifferential is the PR's core guarantee: scans resolved
// from durably ingested tables produce byte-identical digests, per-device
// ledgers and virtual clocks to generated-row runs at equal cardinalities,
// for every executor worker count.
func TestDurableScanDifferential(t *testing.T) {
	reqs := map[string]Request{
		"grace-join": {
			Program: "flatMap(\\<p1, p2> -> for (xB [k1] <- p1) for (yB [k2] <- p2) " +
				"for (x <- xB) for (y <- yB) if x.1 == y.1 then [<x, y>] else [])" +
				"(zip[2](partition[s](R), partition[s](S)))",
			Inputs: map[string]Input{
				"R": {Node: "hdd", Rows: 1024},
				"S": {Node: "hdd", Rows: 2048},
			},
			RAM:   64 << 10,
			Depth: 2, Space: 200,
		},
	}
	// The groupby corpus request adds an order-sensitive streaming fold.
	if data, err := os.ReadFile("../../examples/groupby/request.json"); err == nil {
		var req Request
		if err := json.Unmarshal(data, &req); err != nil {
			t.Fatal(err)
		}
		scaleRequest(&req, 2048)
		reqs["groupby"] = req
	}

	for name, req := range reqs {
		t.Run(name, func(t *testing.T) {
			c, err := Compile(req)
			if err != nil {
				t.Fatal(err)
			}
			p, err := c.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}

			base := ExecOptions{Seed: 42, PoolBytes: 16 << 10}
			// Flush threshold below the row counts: multiple segments per
			// table plus a buffered, not-yet-durable tail.
			cat, err := catalog.Open(t.TempDir(), catalog.Options{FlushRows: 257, ChunkRows: 64})
			if err != nil {
				t.Fatal(err)
			}
			defer cat.Close()
			tables := ingestGenerated(t, cat, c, base)

			want, err := ExecutePlan(context.Background(), c, p, base)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 4, 8} {
				opt := base
				opt.ExecWorkers = workers
				opt.Tables = tables
				opt.Cat = cat
				got, err := ExecutePlan(context.Background(), c, p, opt)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if got.OutDigest != want.OutDigest {
					t.Errorf("workers=%d: digest %s differs from generated run %s",
						workers, got.OutDigest, want.OutDigest)
				}
				if got.OutRows != want.OutRows {
					t.Errorf("workers=%d: %d output rows, generated run had %d",
						workers, got.OutRows, want.OutRows)
				}
				if got.VirtualSeconds != want.VirtualSeconds {
					t.Errorf("workers=%d: virtual clock %v differs from generated %v",
						workers, got.VirtualSeconds, want.VirtualSeconds)
				}
				if !reflect.DeepEqual(got.Devices, want.Devices) {
					t.Errorf("workers=%d: device ledgers differ\n got: %+v\nwant: %+v",
						workers, got.Devices, want.Devices)
				}
				if !reflect.DeepEqual(got.InputRows, want.InputRows) {
					t.Errorf("workers=%d: input rows %v want %v", workers, got.InputRows, want.InputRows)
				}
				// Twice again, served from the images the first bound run
				// loaded: the same digest, ledgers and clock.
				for pass := range 2 {
					again, err := ExecutePlan(context.Background(), c, p, opt)
					if err != nil {
						t.Fatalf("workers=%d, pass %d from the image: %v", workers, pass, err)
					}
					if again.OutDigest != got.OutDigest || again.VirtualSeconds != got.VirtualSeconds ||
						!reflect.DeepEqual(again.Devices, got.Devices) {
						t.Errorf("workers=%d, pass %d from the image differs\n got: %+v\nwant: %+v", workers, pass, again, got)
					}
				}
			}
			if st := cat.Stats(); st.ImageLoads != int64(len(tables)) {
				t.Errorf("%d image loads for %d tables", st.ImageLoads, len(tables))
			}
		})
	}
}

// TestDurableScanAfterReopen pins durability end to end: ingest, close,
// reopen the catalog from disk, and the digest still matches the generated
// baseline.
func TestDurableScanAfterReopen(t *testing.T) {
	req := Request{
		Program: "foldL(0, \\<a, x> -> (a + x.2))(R)",
		Inputs:  map[string]Input{"R": {Node: "hdd", Rows: 1500, Arity: 2}},
		RAM:     32 << 10,
		Depth:   2, Space: 200,
	}
	c, err := Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	base := ExecOptions{Seed: 7}
	dir := t.TempDir()
	cat, err := catalog.Open(dir, catalog.Options{FlushRows: 100})
	if err != nil {
		t.Fatal(err)
	}
	tables := ingestGenerated(t, cat, c, base)
	if err := cat.Close(); err != nil {
		t.Fatal(err)
	}

	cat2, err := catalog.Open(dir, catalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cat2.Close()

	want, err := ExecutePlan(context.Background(), c, p, base)
	if err != nil {
		t.Fatal(err)
	}
	opt := base
	opt.Tables = tables
	opt.Cat = cat2
	got, err := ExecutePlan(context.Background(), c, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got.OutDigest != want.OutDigest || got.Result != want.Result {
		t.Fatalf("reopened catalog scan differs: digest %s vs %s, result %q vs %q",
			got.OutDigest, want.OutDigest, got.Result, want.Result)
	}
	if got.VirtualSeconds != want.VirtualSeconds {
		t.Fatalf("virtual clock %v want %v", got.VirtualSeconds, want.VirtualSeconds)
	}
}

// TestDurableLoadFailureIsError: a bound table is read whole when it is
// bound, so a segment that fails to read is the binding's returned error —
// one that wraps the read failure — and the run never starts: no goroutine
// is left behind and no device space stays claimed.
func TestDurableLoadFailureIsError(t *testing.T) {
	req := Request{
		Program: "foldL(0, \\<a, x> -> (a + x.2))(R)",
		Inputs:  map[string]Input{"R": {Node: "hdd", Rows: 1500, Arity: 2}},
		RAM:     32 << 10,
		Depth:   2, Space: 200,
	}
	c, err := Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cat, err := catalog.Open(dir, catalog.Options{FlushRows: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	tables := ingestGenerated(t, cat, c, ExecOptions{})
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(segs) < 2 {
		t.Fatalf("want several segments, got %v (%v)", segs, err)
	}

	// A snapshot opened over intact segments, one of them truncated before
	// it is read.
	h, err := cat.OpenTable(tables["R"])
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if err := os.Truncate(segs[len(segs)/2], 40); err != nil {
		t.Fatal(err)
	}
	sim := storage.NewSim(c.H)
	dev, err := sim.Device("hdd")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.NewBackedTable(dev, 2, h.Rows(), h); !errors.Is(err, io.EOF) {
		t.Errorf("loading a snapshot whose segment was truncated: %v, want an error wrapping io.EOF", err)
	}
	if got := dev.AllocatedBytes(); got != 0 {
		t.Errorf("a failed load left %d device bytes claimed", got)
	}

	// Bound through a request, the truncated segment fails the binding.
	for _, workers := range []int{1, 4} {
		base := settledGoroutines()
		opt := ExecOptions{Tables: tables, Cat: cat, ExecWorkers: workers}
		_, err := ExecutePlan(context.Background(), c, p, opt)
		if err == nil || !strings.Contains(err.Error(), "plan: input R") || !strings.Contains(err.Error(), "truncated") {
			t.Errorf("workers %d: run over a truncated segment returned %v", workers, err)
		}
		waitGoroutines(t, base, "run failing to load its input")
	}
}

// TestTableBindingValidation covers the rejection paths.
func TestTableBindingValidation(t *testing.T) {
	req := Request{
		Program: "foldL(0, \\<a, x> -> (a + x))(R)",
		Inputs:  map[string]Input{"R": {Node: "hdd", Rows: 100, Arity: 1}},
		RAM:     32 << 10,
		Depth:   2, Space: 200,
	}
	c, err := Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cat, err := catalog.Open(t.TempDir(), catalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	if err := cat.Create("pairs", catalog.Schema{
		Columns: []catalog.Column{{Name: "k"}, {Name: "v"}},
	}); err != nil {
		t.Fatal(err)
	}

	cases := map[string]ExecOptions{
		"no catalog":      {Tables: map[string]string{"R": "pairs"}},
		"unknown input":   {Tables: map[string]string{"Z": "pairs"}, Cat: cat},
		"missing table":   {Tables: map[string]string{"R": "nope"}, Cat: cat},
		"arity mismatch":  {Tables: map[string]string{"R": "pairs"}, Cat: cat},
		"rows conflict":   {Tables: map[string]string{"R": "pairs"}, Cat: cat, Rows: map[string]int64{"R": 5}},
		"inputs conflict": {Tables: map[string]string{"R": "pairs"}, Cat: cat, Inputs: map[string][][]int64{"R": {{1}}}},
	}
	for name, opt := range cases {
		if _, err := ExecutePlan(context.Background(), c, p, opt); err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
}

// TestTableImageCancelledDrop: a four-lane run whose tables are dropped
// while it partitions them, and which is cancelled later, reads its images
// without a fault, leaves no goroutine behind, and the images are unmapped
// once it returns.
func TestTableImageCancelledDrop(t *testing.T) {
	c, err := Compile(Request{
		Program: "flatMap(\\<p1, p2> -> for (xB [k1] <- p1) for (yB [k2] <- p2) " +
			"for (x <- xB) for (y <- yB) if x.1 == y.1 then [<x, y>] else [])" +
			"(zip[2](partition[s](R), partition[s](S)))",
		Inputs: map[string]Input{"R": {Node: "hdd", Rows: 4096}, "S": {Node: "hdd", Rows: 8192}},
		RAM:    64 << 10,
		Depth:  2, Space: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cat, err := catalog.Open(t.TempDir(), catalog.Options{FlushRows: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	opt := ExecOptions{Seed: 3, ExecWorkers: 4, Cat: cat}
	opt.Tables = ingestGenerated(t, cat, c, opt)

	base := settledGoroutines()
	ctx := &cancelAfter{}
	inner, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx.Context = inner
	dropped := false
	ctx.cancel = func() {
		if dropped {
			cancel()
			return
		}
		for _, name := range opt.Tables {
			if err := cat.Drop(name); err != nil {
				t.Error(err)
			}
		}
		dropped = true
		ctx.left.Store(20)
	}
	ctx.left.Store(2)
	if _, err := ExecutePlan(ctx, c, p, opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	waitGoroutines(t, base, "cancelled run over dropped tables")
	if st := cat.Stats(); st.Tables != 0 || st.Images != 0 || st.ImageBytes != 0 || st.ImageLoads != 2 {
		t.Errorf("after the run: %+v, want no table and no image left of the two loaded", st)
	}
}

// TestTableImageConcurrentExecutes runs one bound sum from several
// goroutines while its table takes rows of payload zero and is dropped and
// recreated with its rows: every run that finds its table's rows sums the
// same.
func TestTableImageConcurrentExecutes(t *testing.T) {
	c, err := Compile(Request{
		Program: "foldL(0, \\<a, x> -> (a + x.2))(R)",
		Inputs:  map[string]Input{"R": {Node: "hdd", Rows: 1500, Arity: 2}},
		RAM:     32 << 10,
		Depth:   2, Space: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cat, err := catalog.Open(t.TempDir(), catalog.Options{FlushRows: 500})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	base := ExecOptions{Seed: 5}
	want, err := ExecutePlan(context.Background(), c, p, base)
	if err != nil {
		t.Fatal(err)
	}
	opt := base
	opt.Cat = cat
	opt.Tables = ingestGenerated(t, cat, c, base)
	name := opt.Tables["R"]
	rows, err := inputData(c.Task.Spec.Inputs[0], c.Task, base, 0)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				o := opt
				o.ExecWorkers = 1 + w%2
				rep, err := ExecutePlan(context.Background(), c, p, o)
				switch {
				case errors.Is(err, catalog.ErrNoTable) || errors.Is(err, fs.ErrNotExist):
				case err == nil && rep.InputRows["R"] == 0: // recreated, not yet reloaded
				case err != nil:
					t.Error(err)
					return
				case rep.Result != want.Result:
					t.Errorf("a run over %v rows sums %s, want %s", rep.InputRows, rep.Result, want.Result)
					return
				}
			}
		}()
	}
	for i := range 60 {
		if i%20 == 19 {
			if err := cat.Drop(name); err != nil {
				t.Fatal(err)
			}
			if err := cat.Create(name, catalog.Schema{Columns: []catalog.Column{{Name: "a"}, {Name: "b"}}, Key: []int{0}}); err != nil {
				t.Fatal(err)
			}
			if _, err := cat.AppendCols(name, [][]int32{slices.Clone(rows[0]), slices.Clone(rows[1])}); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if _, err := cat.AppendCols(name, [][]int32{{int32(i)}, {0}}); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
}
