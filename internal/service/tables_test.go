package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ocas/internal/catalog"
	"ocas/internal/plan"
)

func newCatalogServer(t *testing.T, dir string, cfg Config) (*Server, *httptest.Server, *catalog.Catalog) {
	t.Helper()
	cat, err := catalog.Open(dir, catalog.Options{FlushRows: 128})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cat.Close() })
	cfg.Catalog = cat
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, cat
}

func doReq(t *testing.T, method, url, contentType, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestTablesRequireCatalog(t *testing.T) {
	_, ts := newTestServer(t, Config{}) // no -data: catalog disabled
	for _, c := range []struct{ method, path, body string }{
		{"POST", "/tables", `{"name": "t", "schema": {"columns": [{"name": "k"}]}}`},
		{"GET", "/tables", ""},
		{"DELETE", "/tables/t", ""},
		{"POST", "/tables/t/rows", `{"rows": [[1]]}`},
	} {
		resp, data := doReq(t, c.method, ts.URL+c.path, "application/json", c.body)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s %s without catalog: %d %s", c.method, c.path, resp.StatusCode, data)
		}
	}
	// exec.tables on /execute also 503s.
	resp, data := postExecute(t, ts, execBody(`, "tables": {"R": "t"}`))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("execute with tables, no catalog: %d %s", resp.StatusCode, data)
	}
}

func TestTableLifecycleOverHTTP(t *testing.T) {
	dir := t.TempDir()
	_, ts, cat := newCatalogServer(t, dir, Config{})

	// Create.
	resp, data := doReq(t, "POST", ts.URL+"/tables", "application/json",
		`{"name": "users", "schema": {"columns": [{"name": "k", "type": "int32"}, {"name": "v", "type": "int32"}], "key": [0]}}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, data)
	}
	// Duplicate create conflicts.
	resp, _ = doReq(t, "POST", ts.URL+"/tables", "application/json",
		`{"name": "users", "schema": {"columns": [{"name": "k"}]}}`)
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate create: %d want 409", resp.StatusCode)
	}
	// Invalid schema.
	resp, _ = doReq(t, "POST", ts.URL+"/tables", "application/json",
		`{"name": "bad", "schema": {"columns": [{"name": "x", "type": "varchar"}]}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad schema: %d want 400", resp.StatusCode)
	}

	// Ingest JSON.
	resp, data = doReq(t, "POST", ts.URL+"/tables/users/rows", "application/json",
		`{"rows": [[3, 30], [1, 10], [2, 20]]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d %s", resp.StatusCode, data)
	}
	var ing ingestResponse
	if err := json.Unmarshal(data, &ing); err != nil {
		t.Fatal(err)
	}
	if ing.Ingested != 3 || ing.Rows != 3 {
		t.Errorf("ingest response %+v", ing)
	}

	// Ingest CSV.
	resp, data = doReq(t, "POST", ts.URL+"/tables/users/rows", "text/csv", "5, 50\n4, 40\n")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("csv ingest: %d %s", resp.StatusCode, data)
	}

	// Shape errors reject.
	resp, _ = doReq(t, "POST", ts.URL+"/tables/users/rows", "application/json", `{"rows": [[1]]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("short row: %d want 400", resp.StatusCode)
	}
	resp, _ = doReq(t, "POST", ts.URL+"/tables/users/rows", "text/csv", "1, nope\n")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("non-integer csv: %d want 400", resp.StatusCode)
	}
	resp, _ = doReq(t, "POST", ts.URL+"/tables/nope/rows", "application/json", `{"rows": []}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("ingest to missing table: %d want 404", resp.StatusCode)
	}

	// A segment that cannot be written is the server's fault, and the batch
	// is not half-ingested: the 5 rows above stay 5.
	blocker := filepath.Join(dir, "users-000000.seg")
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	resp, data = doReq(t, "POST", ts.URL+"/tables/users/rows", "text/csv", strings.Repeat("7,70\n", 128))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("ingest over a blocked segment path: %d %s, want 500", resp.StatusCode, data)
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}

	// A table dropped while its batch is still arriving is gone, not
	// unprocessable: the handler has looked the table up once it asks for the
	// body, which is when the client hears 100 Continue.
	doReq(t, "POST", ts.URL+"/tables", "application/json", `{"name": "gone", "schema": {"columns": [{"name": "k"}]}}`)
	pr, pw := io.Pipe()
	req, err := http.NewRequest("POST", ts.URL+"/tables/gone/rows", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/csv")
	req.Header.Set("Expect", "100-continue")
	asked := make(chan struct{})
	req = req.WithContext(httptrace.WithClientTrace(req.Context(),
		&httptrace.ClientTrace{Got100Continue: func() { close(asked) }}))
	status := make(chan int, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			status <- 0
			return
		}
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	<-asked
	if resp, _ := doReq(t, "DELETE", ts.URL+"/tables/gone", "", ""); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("drop mid-ingest: %d", resp.StatusCode)
	}
	pw.Write([]byte("1\n"))
	pw.Close()
	if code := <-status; code != http.StatusNotFound {
		t.Errorf("ingest into a table dropped mid-request: %d want 404", code)
	}

	// Get and list.
	resp, data = doReq(t, "GET", ts.URL+"/tables/users", "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get: %d", resp.StatusCode)
	}
	var info catalog.TableInfo
	if err := json.Unmarshal(data, &info); err != nil {
		t.Fatal(err)
	}
	if info.Rows != 5 {
		t.Errorf("table rows %d want 5", info.Rows)
	}
	resp, data = doReq(t, "GET", ts.URL+"/tables", "", "")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(data, []byte(`"users"`)) {
		t.Errorf("list: %d %s", resp.StatusCode, data)
	}

	// Stats expose the catalog section.
	resp, data = doReq(t, "GET", ts.URL+"/stats", "", "")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(data, []byte(`"catalog"`)) {
		t.Errorf("stats missing catalog section: %s", data)
	}
	var st statsResponse
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if st.Catalog == nil || st.Catalog.IngestedHTTP != 5 || st.Catalog.Creates != 2 {
		t.Errorf("catalog stats %+v", st.Catalog)
	}

	// Metrics expose catalog gauges.
	resp, data = doReq(t, "GET", ts.URL+"/metrics", "", "")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(data, []byte("ocas_catalog_tables")) {
		t.Errorf("metrics missing ocas_catalog_tables")
	}

	// Drop.
	resp, _ = doReq(t, "DELETE", ts.URL+"/tables/users", "", "")
	if resp.StatusCode != http.StatusNoContent {
		t.Errorf("drop: %d want 204", resp.StatusCode)
	}
	resp, _ = doReq(t, "GET", ts.URL+"/tables/users", "", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("get after drop: %d want 404", resp.StatusCode)
	}
	resp, _ = doReq(t, "DELETE", ts.URL+"/tables/users", "", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("double drop: %d want 404", resp.StatusCode)
	}

	// A closed catalog is unavailable, not a bad request.
	cat.Close()
	resp, _ = doReq(t, "POST", ts.URL+"/tables", "application/json", `{"name": "late", "schema": {"columns": [{"name": "k"}]}}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("create on a closed catalog: %d want 503", resp.StatusCode)
	}
}

// TestExecuteFromDurableTable is the service-level half of the differential:
// ingest over HTTP, execute by table name, and the digest equals a
// generated-row run at the same cardinality — then again after a restart
// that reloads the catalog from disk.
func TestExecuteFromDurableTable(t *testing.T) {
	dir := t.TempDir()
	_, ts, cat := newCatalogServer(t, dir, Config{})

	mk := func(name string) {
		resp, data := doReq(t, "POST", ts.URL+"/tables", "application/json",
			fmt.Sprintf(`{"name": %q, "schema": {"columns": [{"name": "k"}, {"name": "v"}], "key": [0]}}`, name))
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %s: %d %s", name, resp.StatusCode, data)
		}
	}
	mk("r")
	mk("s")

	// Load the exact rows the generators produce for this seed and size, so
	// the digests are comparable (the executor charge model only needs
	// equal cardinality, but equal content makes the assertion exact).
	load := func(table string, rows []int32) {
		var sb strings.Builder
		sb.WriteString(`{"rows": [`)
		for i := 0; i < len(rows); i += 2 {
			if i > 0 {
				sb.WriteString(",")
			}
			fmt.Fprintf(&sb, "[%d,%d]", rows[i], rows[i+1])
		}
		sb.WriteString("]}")
		resp, data := doReq(t, "POST", ts.URL+"/tables/"+table+"/rows", "application/json", sb.String())
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("load %s: %d %s", table, resp.StatusCode, data)
		}
	}
	load("r", plan.GeneratedPairs(512, 5))
	load("s", plan.GeneratedPairs(256, 5+7919))

	var reqID string
	runBody := func(extra string) *plan.ExecReport {
		body := `{
			"program": "for (x <- R) for (y <- S) if x.1 == y.1 then [<x, y>] else []",
			"hier": "hdd-ram", "ram": 8388608,
			"inputs": {"R": {"node": "hdd", "rows": 1048576}, "S": {"node": "hdd", "rows": 65536}},
			"depth": 4, "space": 500,
			"exec": {"seed": 5` + extra + `}
		}`
		resp, data := postExecute(t, ts, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("execute: %d %s", resp.StatusCode, data)
		}
		reqID = resp.Header.Get("X-Ocas-Request-Id")
		var rep plan.ExecReport
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatal(err)
		}
		return &rep
	}

	gen := runBody(`, "rows": {"R": 512, "S": 256}`)
	dur := runBody(`, "tables": {"R": "r", "S": "s"}`)
	if dur.InputRows["R"] != 512 || dur.InputRows["S"] != 256 {
		t.Fatalf("durable input rows %v", dur.InputRows)
	}
	if dur.OutDigest != gen.OutDigest || dur.VirtualSeconds != gen.VirtualSeconds {
		t.Fatalf("durable scan differs from generated: digest %s vs %s, clock %v vs %v",
			dur.OutDigest, gen.OutDigest, dur.VirtualSeconds, gen.VirtualSeconds)
	}
	if dur.Devices["hdd"].BytesRead == 0 {
		t.Fatal("durable scan charged no reads")
	}
	// The first durable run loaded both tables' images; the second reads
	// them as they are, and its report is the first's.
	tableLoads := func() any {
		spans, names := traceSpans(t, ts, reqID)
		return spans[names["execute"]].Attrs["tableLoads"]
	}
	if got := tableLoads(); got != 2.0 {
		t.Errorf("first durable run's execute span: tableLoads %v, want 2", got)
	}
	if again := runBody(`, "tables": {"R": "r", "S": "s"}`); !reflect.DeepEqual(again, dur) {
		t.Errorf("a run from the images differs from the loading run:\n%+v\n%+v", again, dur)
	}
	if got := tableLoads(); got != 0.0 {
		t.Errorf("second durable run's execute span: tableLoads %v, want 0", got)
	}
	var st statsResponse
	if _, data := doReq(t, "GET", ts.URL+"/stats", "", ""); json.Unmarshal(data, &st) != nil || st.Catalog == nil {
		t.Fatalf("stats: %s", data)
	}
	if c := st.Catalog; c.ImageLoads != 2 || c.Images != 2 || c.ImageBytes != (512+256)*2*4 || c.DurableScans != 2 {
		t.Errorf("catalog stats after two durable runs: %+v", c)
	}
	_, data := doReq(t, "GET", ts.URL+"/metrics", "", "")
	for _, want := range []string{"ocas_catalog_image_loads_total 2\n", "ocas_catalog_image_bytes 6144\n"} {
		if !bytes.Contains(data, []byte(want)) {
			t.Errorf("metrics lack %q", want)
		}
	}

	// Unknown table on /execute.
	body := `{
		"program": "for (x <- R) for (y <- S) if x.1 == y.1 then [<x, y>] else []",
		"hier": "hdd-ram", "ram": 8388608,
		"inputs": {"R": {"node": "hdd", "rows": 1048576}, "S": {"node": "hdd", "rows": 65536}},
		"depth": 4, "space": 500,
		"exec": {"seed": 5, "rows": {"S": 256}, "tables": {"R": "ghost"}}
	}`
	resp, _ := postExecute(t, ts, body)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown table: %d want 404", resp.StatusCode)
	}

	// Restart: close (flushes buffered rows), reopen from disk, new server.
	if err := cat.Close(); err != nil {
		t.Fatal(err)
	}
	_, ts2, _ := newCatalogServer(t, dir, Config{})
	ts = ts2
	dur2 := runBody(`, "tables": {"R": "r", "S": "s"}`)
	if dur2.OutDigest != gen.OutDigest || dur2.VirtualSeconds != gen.VirtualSeconds {
		t.Fatalf("after restart: digest %s want %s, clock %v want %v",
			dur2.OutDigest, gen.OutDigest, dur2.VirtualSeconds, gen.VirtualSeconds)
	}
}

// TestExecuteTableRowLimit: a bound table's row count is what MaxExecRows
// validates.
func TestExecuteTableRowLimit(t *testing.T) {
	_, ts, cat := newCatalogServer(t, t.TempDir(), Config{MaxExecRows: 100})
	if err := cat.Create("big", catalog.Schema{
		Columns: []catalog.Column{{Name: "k"}, {Name: "v"}},
	}); err != nil {
		t.Fatal(err)
	}
	rows := make([]int32, 0, 202*2)
	for i := int32(0); i < 202; i++ {
		rows = append(rows, i, i)
	}
	if _, err := cat.Append("big", rows); err != nil {
		t.Fatal(err)
	}
	body := `{
		"program": "for (x <- R) for (y <- S) if x.1 == y.1 then [<x, y>] else []",
		"hier": "hdd-ram", "ram": 8388608,
		"inputs": {"R": {"node": "hdd", "rows": 50}, "S": {"node": "hdd", "rows": 50}},
		"depth": 4, "space": 500,
		"exec": {"tables": {"R": "big"}}
	}`
	resp, data := postExecute(t, ts, body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized table accepted: %d %s", resp.StatusCode, data)
	}
}
