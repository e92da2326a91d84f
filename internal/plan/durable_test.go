package plan

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"ocas/internal/catalog"
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
