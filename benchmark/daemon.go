package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDir holds everything a run leaves behind outside benchmark/out: the
// daemon binary, its log and its data directories. It is the directory the
// driver reserves for build output in a checkout.
const buildDir = ".bench_build"

// buildDaemon compiles the unmodified ./cmd/ocasd of the checkout at root.
func buildDaemon(root string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(root, buildDir, "ocasd"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/ocasd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/ocasd: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running ocasd, started with -addr and -data only: every
// other flag stays at its default, so a change of default moves the numbers.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	data string
	log  *os.File
	done chan error
	// stopped makes stop idempotent.
	stopped bool
}

func startDaemon(bin, data, logPath string) (*daemon, error) {
	// The port is free at the moment it is chosen; nothing else on the box
	// is expected to grab it before the daemon binds.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()

	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", addr, "-data", data)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon must not outlive a benchmark that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, data: data, log: logf, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-d.done:
			logf.Close()
			return nil, fmt.Errorf("ocasd exited during start-up: %v (see %s)", err, logPath)
		default:
		}
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.stop()
	return nil, fmt.Errorf("ocasd did not answer /healthz within 10s (see %s)", logPath)
}

// stop ends the daemon (SIGTERM, then SIGKILL after 10 s), waits for it and
// removes its data directory.
func (d *daemon) stop() {
	if d.stopped {
		return
	}
	d.stopped = true
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
	d.log.Close()
	os.RemoveAll(d.data)
}

// rssMiB is the daemon's peak resident set (VmHWM) so far.
func (d *daemon) rssMiB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// execReply is the part of an /execute response the benchmark checks.
type execReply struct {
	OutRows        int64            `json:"outRows"`
	OutDigest      string           `json:"outDigest"`
	VirtualSeconds float64          `json:"virtualSeconds"`
	InputRows      map[string]int64 `json:"inputRows"`
}

// tally counts what the driver sent to one daemon since it started, for the
// comparison with the daemon's own /stats.
type tally struct {
	synthExec, hits, planMisses, templateHits int64
	executions, durable                       int64
	creates, drops, rows                      int64
}

// driver is the closed-loop client: one goroutine, one keep-alive
// connection, each request sent after the previous reply was read.
type driver struct {
	base string
	hc   *http.Client
	*checks

	recording bool
	samples   map[string][]float64 // entry -> latency in ms, window only
	headline  map[string]bool      // entry -> counts in op_ms
	// requestIDs maps the X-Ocas-Request-Id of each window op to its entry,
	// to find the op's trace in the daemon's own /traces ring.
	requestIDs map[string]string
	ops        int     // headline ops completed while recording
	rows       int64   // rows executed or ingested while recording
	elapsed    float64 // length of the window in seconds

	sent tally
	// first holds each exec entry's first full-scale reply: every later
	// reply must repeat its rows, digest and virtual seconds exactly.
	first map[string]execReply
	// tableRows is the expected running total of each table.
	tableRows map[string]int64
}

func newDriver(base string, ck *checks) *driver {
	return &driver{
		base:       base,
		checks:     ck,
		hc:         &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 60 * time.Second},
		samples:    map[string][]float64{},
		headline:   map[string]bool{},
		requestIDs: map[string]string{},
		first:      map[string]execReply{},
		tableRows:  map[string]int64{},
	}
}

// checks tallies a run's operations and checks across its daemons.
type checks struct {
	attempted, failed int
	failures          []string // the first few, printed at exit
}

// check counts one attempted operation or check and records its failure.
func (c *checks) check(ok bool, format string, args ...any) {
	c.attempted++
	if ok {
		return
	}
	c.failed++
	if len(c.failures) < 10 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// do sends one op, times it from before the request is written until the
// reply body is read, and checks status, cache outcome and reply: one
// attempted operation, failed if any of the three is wrong. It returns the
// reply body (nil when the request failed).
func (d *driver) do(o op) []byte {
	body, problem := d.send(o)
	d.check(problem == "", "%s %s [%s]: %s", o.method, o.path, o.entry, problem)
	return body
}

func (d *driver) send(o op) (body []byte, problem string) {
	req, err := http.NewRequest(o.method, d.base+o.path, bytes.NewReader(o.body))
	if err != nil {
		return nil, err.Error()
	}
	if o.ctype != "" {
		req.Header.Set("Content-Type", o.ctype)
	}
	start := time.Now()
	resp, err := d.hc.Do(req)
	if err != nil {
		return nil, err.Error()
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	ms := float64(time.Since(start)) / 1e6
	if err != nil {
		return nil, err.Error()
	}
	outcome := resp.Header.Get("X-Ocas-Cache")
	if resp.StatusCode != o.status || outcome != o.outcome {
		return nil, fmt.Sprintf("status %d outcome %q, want %d %q: %s",
			resp.StatusCode, outcome, o.status, o.outcome, firstLine(body))
	}
	if d.recording {
		d.samples[o.entry] = append(d.samples[o.entry], ms)
		d.requestIDs[resp.Header.Get("X-Ocas-Request-Id")] = o.entry
		d.headline[o.entry] = o.kind != "create" && o.kind != "drop"
		if d.headline[o.entry] {
			d.ops++
		}
	}
	return body, d.count(o, outcome, body)
}

// count updates the tally and checks the reply of an acknowledged op.
func (d *driver) count(o op, outcome string, body []byte) (problem string) {
	switch o.kind {
	case "synth", "exec":
		d.sent.synthExec++
		switch outcome {
		case "hit":
			d.sent.hits++
		case "template-hit":
			d.sent.templateHits++
			d.sent.planMisses++
		default:
			d.sent.planMisses++
		}
		if o.derives != "" {
			var pl struct{ Derivation []string }
			if err := json.Unmarshal(body, &pl); err != nil || !slices.Contains(pl.Derivation, o.derives) {
				return fmt.Sprintf("derivation %v lacks %s", pl.Derivation, o.derives)
			}
		}
	case "create":
		d.sent.creates++
		d.tableRows[o.table] = 0
	case "drop":
		d.sent.drops++
		delete(d.tableRows, o.table)
	case "ingest":
		n := int64(len(o.flat) / o.schema.Arity())
		d.sent.rows += n
		d.tableRows[o.table] += n
		if d.recording {
			d.rows += n
		}
		var rep struct{ Ingested, Rows int64 }
		if err := json.Unmarshal(body, &rep); err != nil || rep.Ingested != n || rep.Rows != d.tableRows[o.table] {
			return fmt.Sprintf("reply %s, want %d ingested of %d", firstLine(body), n, d.tableRows[o.table])
		}
	}
	if o.kind != "exec" {
		return ""
	}
	d.sent.executions++
	if len(o.exec.Tables) > 0 {
		d.sent.durable++
	}
	var rep execReply
	if err := json.Unmarshal(body, &rep); err != nil {
		return err.Error()
	}
	if d.recording {
		for _, n := range rep.InputRows {
			d.rows += n
		}
	}
	if o.want != nil {
		if rep.OutDigest != o.want.OutDigest || (o.want.OutRows >= 0 && rep.OutRows != o.want.OutRows) {
			return fmt.Sprintf("reply (%d rows, %s) differs from the oracle's (%d rows, %s)",
				rep.OutRows, rep.OutDigest, o.want.OutRows, o.want.OutDigest)
		}
		return ""
	}
	first, seen := d.first[o.entry]
	if !seen {
		d.first[o.entry] = rep
		return ""
	}
	if rep.OutRows != first.OutRows || rep.OutDigest != first.OutDigest || rep.VirtualSeconds != first.VirtualSeconds {
		return fmt.Sprintf("reply (%d rows, %s, %v s) differs from the first (%d rows, %s, %v s)",
			rep.OutRows, rep.OutDigest, rep.VirtualSeconds, first.OutRows, first.OutDigest, first.VirtualSeconds)
	}
	return ""
}

// getJSON fetches path into v (untimed; used for /stats and /traces).
func (d *driver) getJSON(path string, v any) error {
	resp, err := d.hc.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// daemonStats is the part of GET /stats the tally is compared with.
type daemonStats struct {
	Cache struct {
		Hits, Misses, Shared, Evictions int64
	}
	Instantiations, GuardRejects int64
	Service                      struct{ Requests, Errors, Timeouts, Cancelled int64 }
	Exec                         struct{ Executions int64 }
	Catalog                      struct {
		Creates, Drops, IngestedHTTP, DurableScans int64
	}
}

// checkStats requires the daemon's counters to add up to the operations sent.
func (d *driver) checkStats() daemonStats {
	var st daemonStats
	if err := d.getJSON("/stats", &st); err != nil {
		d.check(false, "GET /stats: %v", err)
		return st
	}
	s := d.sent
	got := []int64{st.Service.Requests, st.Service.Errors + st.Service.Timeouts + st.Service.Cancelled,
		st.Cache.Hits, st.Cache.Misses, st.Cache.Shared, st.Instantiations, st.Exec.Executions,
		st.Catalog.DurableScans, st.Catalog.Creates, st.Catalog.Drops, st.Catalog.IngestedHTTP}
	want := []int64{s.synthExec, 0, s.hits, s.planMisses, 0, s.templateHits, s.executions,
		s.durable, s.creates, s.drops, s.rows}
	d.check(fmt.Sprint(got) == fmt.Sprint(want),
		"/stats [requests errors hits misses shared instantiations executions durableScans creates drops rows] = %v, sent %v",
		got, want)
	return st
}

func firstLine(b []byte) string {
	s := strings.TrimSpace(string(b))
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}
