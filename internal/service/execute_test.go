package service

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ocas/internal/plan"
)

func postExecute(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/execute", "application/json", strings.NewReader(body))
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

// execBody is a small join request with execution sizes overridden to stay
// test-fast while the plan is synthesized for the nominal sizes.
func execBody(extra string) string {
	return `{
		"program": "for (x <- R) for (y <- S) if x.1 == y.1 then [<x, y>] else []",
		"hier": "hdd-ram", "ram": 8388608,
		"inputs": {"R": {"node": "hdd", "rows": 1048576}, "S": {"node": "hdd", "rows": 65536}},
		"depth": 4, "space": 500,
		"exec": {"seed": 5, "rows": {"R": 2048, "S": 1024}` + extra + `}
	}`
}

func TestExecuteEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, data := postExecute(t, ts, execBody(""))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("execute: %d %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get("X-Ocas-Cache"); got != "miss" {
		t.Errorf("first execute should synthesize: X-Ocas-Cache = %q", got)
	}
	var rep plan.ExecReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report does not parse: %v\n%s", err, data)
	}
	if rep.Fingerprint == "" || rep.OutDigest == "" {
		t.Errorf("report missing fingerprint/digest: %+v", rep)
	}
	if rep.VirtualSeconds <= 0 {
		t.Error("execution must charge virtual time")
	}
	if rep.InputRows["R"] != 2048 || rep.InputRows["S"] != 1024 {
		t.Errorf("row overrides not applied: %v", rep.InputRows)
	}
	if rep.Devices["hdd"].BytesRead == 0 {
		t.Errorf("device ledger empty: %+v", rep.Devices)
	}

	// Same request again: the plan comes from the cache, the execution is
	// deterministic.
	resp2, data2 := postExecute(t, ts, execBody(""))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second execute: %d %s", resp2.StatusCode, data2)
	}
	if got := resp2.Header.Get("X-Ocas-Cache"); got != "hit" {
		t.Errorf("second execute should hit the plan cache: X-Ocas-Cache = %q", got)
	}
	var rep2 plan.ExecReport
	if err := json.Unmarshal(data2, &rep2); err != nil {
		t.Fatal(err)
	}
	if rep2.OutDigest != rep.OutDigest || rep2.VirtualSeconds != rep.VirtualSeconds {
		t.Error("repeat execution must be deterministic (digest + virtual clock)")
	}

	// The plan endpoint serves the same fingerprint.
	resp3, _ := http.Get(ts.URL + "/plans/" + rep.Fingerprint)
	if resp3.StatusCode != http.StatusOK {
		t.Errorf("plan lookup after execute: %d", resp3.StatusCode)
	}
	resp3.Body.Close()
}

func TestExecuteEndpointExplicitInputs(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{
		"program": "for (x <- R) for (y <- S) if x.1 == y.1 then [<x, y>] else []",
		"hier": "hdd-ram", "ram": 8388608,
		"inputs": {"R": {"node": "hdd", "rows": 1024}, "S": {"node": "hdd", "rows": 1024}},
		"depth": 4, "space": 500,
		"exec": {"inputs": {"R": [[1, 10], [2, 20]], "S": [[2, 200], [2, 201], [9, 900]]}}
	}`
	resp, data := postExecute(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("execute: %d %s", resp.StatusCode, data)
	}
	var rep plan.ExecReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.OutRows != 2 {
		t.Errorf("join of supplied rows produced %d rows, want 2", rep.OutRows)
	}
}

func TestExecuteEndpointRejectsOversizedRuns(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxExecRows: 1000})
	// Nominal sizes above the cap and no exec.rows override: rejected
	// before any synthesis happens.
	body := `{
		"program": "for (x <- R) for (y <- S) if x.1 == y.1 then [<x, y>] else []",
		"hier": "hdd-ram", "ram": 8388608,
		"inputs": {"R": {"node": "hdd", "rows": 1048576}, "S": {"node": "hdd", "rows": 65536}},
		"depth": 4, "space": 500
	}`
	resp, data := postExecute(t, ts, body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized execute should 400, got %d %s", resp.StatusCode, data)
	}
	if !strings.Contains(string(data), "exec.rows") {
		t.Errorf("error should point at the exec.rows override: %s", data)
	}
}

// TestExecuteBodyFailuresAre422: a scan body whose rows differ in width, and
// a body outside the kernel grammar, answer 422 with the executor's error —
// no panic reaches the handler — and the daemon keeps serving.
func TestExecuteBodyFailuresAre422(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := func(program string) string {
		return `{"program": "` + program + `", "hier": "hdd-ram", "ram": 8388608,
			"inputs": {"R": {"node": "hdd", "rows": 4096}}, "depth": 3, "space": 200}`
	}
	for program, want := range map[string]string{
		"for (x <- R) if x.1 < 3 then [x] else [<x.2>]": "execution failed: plan: execute: exec: scan body emits rows of 2 and of 1 attributes",
		"for (x <- R) if x.1 < 3 then [<x.2>] else [x]": "execution failed: plan: execute: exec: scan body emits rows of 1 and of 2 attributes",
		"for (x <- R) [head([x.1])]":                    "execution failed: plan: lower: exec: cannot lower scan body: unsupported row head([x.1])",
	} {
		resp, data := postExecute(t, ts, req(program))
		if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(data), want) {
			t.Errorf("%s: %d %s, want 422 saying %q", program, resp.StatusCode, data, want)
		}
	}
	if resp, data := postExecute(t, ts, req("for (x <- R) if x.1 < 3 then [x] else [<x.2, x.1>]")); resp.StatusCode != http.StatusOK {
		t.Errorf("execute after the failures: %d %s", resp.StatusCode, data)
	}
}

// TestExecuteRejectsOverridesThatCannotApply: a size override or explicit
// rows for a name the program does not declare, or a row count below 1, is a
// 400 naming it — the caller asked to shrink an input and must not be told,
// after the input ran at its nominal size, to shrink it.
func TestExecuteRejectsOverridesThatCannotApply(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxExecRows: 4096})
	req := func(exec string) string {
		return `{
			"program": "for (x <- R) for (y <- S) if x.1 == y.1 then [<x, y>] else []",
			"hier": "hdd-ram", "ram": 8388608,
			"inputs": {"R": {"node": "hdd", "rows": 1048576}, "S": {"node": "hdd", "rows": 1024}},
			"depth": 4, "space": 500, "exec": ` + exec + `}`
	}
	for name, tc := range map[string]struct{ exec, want string }{
		"rows for an undeclared input":   {`{"rows": {"r": 2048}}`, `exec.rows names \"r\"`},
		"zero rows":                      {`{"rows": {"R": 0}}`, `input \"R\" 0 rows`},
		"negative rows":                  {`{"rows": {"R": -5}}`, `input \"R\" -5 rows`},
		"inputs for an undeclared input": {`{"rows": {"R": 2048}, "inputs": {"T": [[1, 2]]}}`, `exec.inputs names \"T\"`},
	} {
		resp, data := postExecute(t, ts, req(tc.exec))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", name, resp.StatusCode, data)
		}
		if !strings.Contains(string(data), tc.want) {
			t.Errorf("%s: error should say %s: %s", name, tc.want, data)
		}
	}
	if resp, data := postExecute(t, ts, req(`{"rows": {"R": 2048}}`)); resp.StatusCode != http.StatusOK {
		t.Errorf("the override spelled right: status %d: %s", resp.StatusCode, data)
	}
}

// TestExecuteRejectsRemovedExecField: the executor has one path and one
// batch size, so a body still choosing either (the former exec.backend and
// exec.batchRows fields) is a 400 that names the field, like any other
// unknown field — never silently ignored.
func TestExecuteRejectsRemovedExecField(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for field, extra := range map[string]string{
		"backend":   `, "backend": "fused"`,
		"batchRows": `, "batchRows": 64`,
	} {
		resp, data := postExecute(t, ts, execBody(extra))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("exec.%s should 400, got %d %s", field, resp.StatusCode, data)
		}
		if !strings.Contains(string(data), `unknown field \"`+field+`\"`) {
			t.Errorf("error should name the unknown field %s: %s", field, data)
		}
	}
}

// TestExecuteWorkersInvariantAndStats: /execute with execWorkers runs the
// morsel-driven executor — same digest and ledgers as the single-worker
// run — and the /stats exec section accumulates executor counters.
func TestExecuteWorkersInvariantAndStats(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxWorkerSlots: 8})

	resp1, data1 := postExecute(t, ts, execBody(""))
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("execute: %d %s", resp1.StatusCode, data1)
	}
	resp4, data4 := postExecute(t, ts, execBody(`, "execWorkers": 4`))
	if resp4.StatusCode != http.StatusOK {
		t.Fatalf("execute (4 workers): %d %s", resp4.StatusCode, data4)
	}
	var r1, r4 plan.ExecReport
	if err := json.Unmarshal(data1, &r1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data4, &r4); err != nil {
		t.Fatal(err)
	}
	if r4.OutDigest != r1.OutDigest || r4.OutRows != r1.OutRows {
		t.Errorf("worker count changed the output: %s/%d vs %s/%d",
			r4.OutDigest, r4.OutRows, r1.OutDigest, r1.OutRows)
	}
	for dev, led := range r1.Devices {
		if r4.Devices[dev] != led {
			t.Errorf("worker count changed device %s charges: %+v vs %+v", dev, r4.Devices[dev], led)
		}
	}
	if r4.ExecWorkers != 4 {
		t.Errorf("report execWorkers = %d want 4", r4.ExecWorkers)
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Exec.Executions < 2 {
		t.Errorf("stats executions = %d want >= 2", stats.Exec.Executions)
	}
	if stats.Exec.WorkerSlots != 8 {
		t.Errorf("stats workerSlots = %d want 8", stats.Exec.WorkerSlots)
	}
	if stats.Exec.ActiveWorkers != 0 {
		t.Errorf("stats activeWorkers = %d want 0 at rest", stats.Exec.ActiveWorkers)
	}
}

// TestExecuteWorkersClamped: a request asking for more workers than the
// slot pool is clamped, not rejected or deadlocked.
func TestExecuteWorkersClamped(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxWorkerSlots: 2})
	resp, data := postExecute(t, ts, execBody(`, "execWorkers": 64`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clamped execute: %d %s", resp.StatusCode, data)
	}
	var rep plan.ExecReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.ExecWorkers != 2 {
		t.Errorf("execWorkers = %d, want the 2-slot clamp", rep.ExecWorkers)
	}
}
