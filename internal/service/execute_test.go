package service

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
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

// TestExecuteBodyFailuresAre422: a scan body whose rows differ in width, a
// body outside the kernel grammar, and a zip of partitions of different
// degrees answer 422 with the executor's error — no panic reaches the
// handler — and the daemon keeps serving.
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
		"flatMap(\\\\<p1, p2> -> for (x <- p1) for (y <- p2) if x.1 == y.1 then [<x, y>] else [])(zip[2](partition[4](R), partition[8](R)))": "execution failed: plan: lower: exec: zip over partitions of different degrees (4 vs 8)",
		// The cost model prices no sort of a part: the request fails before
		// it reaches the executor, whose sort reads a part (see plan's
		// TestRunSortsEachPart).
		"flatMap(\\\\p -> treeFold[2][bout]([], unfoldR[bin](funcPow[1](mrg)))(for (xB [k1] <- p) xB))(partition[4](R))": "synthesis failed: core: no program could be costed",
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
// after the input ran at its nominal size, to shrink it. So is an input, an
// output or an intermediate placed on a node the simulator has no device
// for, which /synthesize of the same body still answers.
func TestExecuteRejectsOverridesThatCannotApply(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxExecRows: 4096})
	const onHDD = `"inputs": {"R": {"node": "hdd", "rows": 1048576}, "S": {"node": "hdd", "rows": 1024}}`
	body := func(place, extra string) string {
		return `{
			"program": "for (x <- R) for (y <- S) if x.1 == y.1 then [<x, y>] else []",
			"hier": "hdd-ram", "ram": 8388608, ` + place + `,
			"depth": 4, "space": 500` + extra + `}`
	}
	req := func(place, exec string) string { return body(place, `, "exec": `+exec) }
	for name, tc := range map[string]struct{ place, exec, want string }{
		"rows for an undeclared input":   {onHDD, `{"rows": {"r": 2048}}`, `exec.rows names \"r\"`},
		"zero rows":                      {onHDD, `{"rows": {"R": 0}}`, `input \"R\" 0 rows`},
		"negative rows":                  {onHDD, `{"rows": {"R": -5}}`, `input \"R\" -5 rows`},
		"inputs for an undeclared input": {onHDD, `{"rows": {"R": 2048}, "inputs": {"T": [[1, 2]]}}`, `exec.inputs names \"T\"`},
		"an input on ram": {`"inputs": {"R": {"node": "ram", "rows": 1024}, "S": {"node": "hdd", "rows": 1024}}`,
			`{}`, `input R is placed on \"ram\", a ram node`},
		"the output on ram":       {onHDD + `, "output": "ram"`, `{"rows": {"R": 2048}}`, `output is placed on \"ram\", a ram node`},
		"the intermediate on ram": {onHDD + `, "intermediate": "ram"`, `{"rows": {"R": 2048}}`, `intermediate is placed on \"ram\", a ram node`},
	} {
		resp, data := postExecute(t, ts, req(tc.place, tc.exec))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", name, resp.StatusCode, data)
		}
		if !strings.Contains(string(data), tc.want) {
			t.Errorf("%s: error should say %s: %s", name, tc.want, data)
		}
		if !strings.Contains(tc.want, "is placed on") {
			continue
		}
		if resp, data := post(t, ts, body(tc.place, "")); resp.StatusCode != http.StatusOK {
			t.Errorf("%s: /synthesize of the same body: status %d: %s", name, resp.StatusCode, data)
		}
	}
	if resp, data := postExecute(t, ts, req(onHDD, `{"rows": {"R": 2048}}`)); resp.StatusCode != http.StatusOK {
		t.Errorf("the override spelled right: status %d: %s", resp.StatusCode, data)
	}
}

// TestExecuteRejectsMalformedInputRows: an explicit row of the wrong arity,
// or a value outside int32, is a 400 answered before the plan is resolved —
// no search runs for it, so the plan cache counts no miss.
func TestExecuteRejectsMalformedInputRows(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, tc := range map[string]struct{ rows, want string }{
		"one attribute for an arity-2 input": {`[[1, 10], [2]]`, `row 1 of \"R\" has 1 attributes, want 2`},
		"a value outside int32":              {`[[1, 4294967296]]`, `row 0 of \"R\" holds 4294967296, outside int32`},
	} {
		resp, data := postExecute(t, ts, execBody(`, "inputs": {"R": `+tc.rows+`}`))
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), tc.want) {
			t.Errorf("%s: %d %s, want 400 saying %s", name, resp.StatusCode, data, tc.want)
		}
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Cache struct {
			Misses int64 `json:"misses"`
		} `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Cache.Misses != 0 {
		t.Errorf("malformed rows reached the plan cache: %d misses", stats.Cache.Misses)
	}
}

// TestExecuteRejectsRemovedExecField: the executor has one path, one
// batch size and one lane count, so a body still choosing any of them (the
// former exec.backend, exec.batchRows and exec.execWorkers fields) is a 400
// that names the field, like any other unknown field — never silently
// ignored.
func TestExecuteRejectsRemovedExecField(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for field, extra := range map[string]string{
		"backend":     `, "backend": "fused"`,
		"batchRows":   `, "batchRows": 64`,
		"execWorkers": `, "execWorkers": 4`,
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

// execUnder runs execBody on a server created under GOMAXPROCS procs and
// returns the server, the report and the /stats it shows afterwards.
// GOMAXPROCS is restored before it returns, however the run ends.
func execUnder(t *testing.T, procs int) (*Server, plan.ExecReport, statsResponse) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	srv, ts := newTestServer(t, Config{})
	resp, data := postExecute(t, ts, execBody(""))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GOMAXPROCS %d: execute: %d %s", procs, resp.StatusCode, data)
	}
	var rep plan.ExecReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var stats statsResponse
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	return srv, rep, stats
}

// TestExecuteWorkersInvariantAndStats: a one-core and a four-core server
// answer one /execute with the same report apart from the lane count, and
// /stats counts the execution and shows every lane's slot given back.
func TestExecuteWorkersInvariantAndStats(t *testing.T) {
	_, one, stats1 := execUnder(t, 1)
	_, four, stats4 := execUnder(t, 4)
	if one.ExecWorkers != 1 || four.ExecWorkers != 4 {
		t.Fatalf("execWorkers = %d and %d, want 1 and 4", one.ExecWorkers, four.ExecWorkers)
	}
	four.ExecWorkers = one.ExecWorkers
	if !reflect.DeepEqual(one, four) {
		t.Errorf("reports differ across lane counts:\n1: %+v\n4: %+v", one, four)
	}
	for _, stats := range []statsResponse{stats1, stats4} {
		if stats.Exec.Executions != 1 {
			t.Errorf("stats executions = %d want 1", stats.Exec.Executions)
		}
		if stats.Exec.ActiveWorkers != 0 {
			t.Errorf("stats activeWorkers = %d want 0 at rest", stats.Exec.ActiveWorkers)
		}
	}
}

// TestExecuteWorkersClamped: on an idle server a run takes one executor lane
// per core, but never more than the 8 partitions a plan can have; the server
// keeps one execution slot per core.
func TestExecuteWorkersClamped(t *testing.T) {
	for _, tc := range []struct{ procs, lanes, slots int }{{1, 1, 1}, {4, 4, 4}, {16, 8, 16}} {
		srv, rep, stats := execUnder(t, tc.procs)
		if rep.ExecWorkers != tc.lanes {
			t.Errorf("GOMAXPROCS %d: execWorkers = %d, want %d", tc.procs, rep.ExecWorkers, tc.lanes)
		}
		if cap(srv.execSem) != tc.slots || stats.Exec.WorkerSlots != int64(tc.slots) {
			t.Errorf("GOMAXPROCS %d: %d slots, /stats workerSlots %d, want %d",
				tc.procs, cap(srv.execSem), stats.Exec.WorkerSlots, tc.slots)
		}
	}
}

// TestExecuteAdmissionFullPool: with every execution slot held, an /execute
// waits for one until its timeoutMs fires, answers 504 and leaves the held
// slots as they were; once one slot frees, the next /execute runs on one
// lane, and it gives the slot back.
func TestExecuteAdmissionFullPool(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	srv, ts := newTestServer(t, Config{})
	// The plan is cached first, so the timed-out request spends its budget
	// waiting for admission, not searching.
	if resp, data := postExecute(t, ts, execBody("")); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up execute: %d %s", resp.StatusCode, data)
	}
	if held := len(srv.execSem); held != 0 {
		t.Fatalf("%d slots still held after the warm-up run", held)
	}
	for range cap(srv.execSem) {
		srv.execSem <- struct{}{}
	}
	defer func() {
		for len(srv.execSem) > 0 {
			<-srv.execSem
		}
	}()
	timed := strings.Replace(execBody(""), `"depth"`, `"timeoutMs": 50, "depth"`, 1)
	if resp, data := postExecute(t, ts, timed); resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("execute under a full pool: %d %s, want 504", resp.StatusCode, data)
	}
	if held := len(srv.execSem); held != cap(srv.execSem) {
		t.Errorf("a timed-out waiter changed the held slots: %d of %d", held, cap(srv.execSem))
	}
	if n := srv.execWaiting.Load(); n != 0 {
		t.Errorf("%d executions still counted as waiting", n)
	}
	<-srv.execSem
	resp, data := postExecute(t, ts, execBody(""))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("execute after a slot freed: %d %s", resp.StatusCode, data)
	}
	var rep plan.ExecReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.ExecWorkers != 1 {
		t.Errorf("execWorkers = %d with one slot free, want 1", rep.ExecWorkers)
	}
	if held := len(srv.execSem); held != cap(srv.execSem)-1 {
		t.Errorf("%d slots held after the run, want %d", held, cap(srv.execSem)-1)
	}
}
