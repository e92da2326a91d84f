package plan

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"ocas/internal/catalog"
	"ocas/internal/core"
	"ocas/internal/exec"
	"ocas/internal/memory"
	"ocas/internal/ocal"
	"ocas/internal/storage"
)

// updateGolden regenerates testdata/accounting.golden.json instead of
// comparing against it. The committed file was generated by the executor
// that still had an interpreted and a kernel stepper, with both asserted to
// produce it; regenerate only when a change to the charge model itself is
// intended.
var updateGolden = flag.Bool("update-golden", false, "rewrite the testdata/*.golden.json file of each golden test that runs")

const goldenPath = "testdata/accounting.golden.json"

// goldenRun is everything observable about one execution except host
// wall-clock time: the determinism contract, pinned.
type goldenRun struct {
	OutDigest string `json:"outDigest"`
	OutRows   int64  `json:"outRows"`
	Result    string `json:"result,omitempty"`
	// VirtualSecondsBits is math.Float64bits of the virtual clock: the
	// comparison is bit-exact, not within a tolerance.
	VirtualSecondsBits string                  `json:"virtualSecondsBits"`
	VirtualSeconds     float64                 `json:"virtualSeconds"`
	Devices            map[string]DeviceReport `json:"devices"`
	Pool               storage.PoolStats       `json:"pool"`
	ExecWorkers        int                     `json:"execWorkers"`
	Explain            *exec.ExplainNode       `json:"explain"`
}

func goldenOf(rep *ExecReport) goldenRun {
	rep.Explain.Normalize()
	return goldenRun{
		OutDigest: rep.OutDigest, OutRows: rep.OutRows, Result: rep.Result,
		VirtualSecondsBits: fmt.Sprintf("%016x", math.Float64bits(rep.VirtualSeconds)),
		VirtualSeconds:     rep.VirtualSeconds,
		Devices:            rep.Devices, Pool: rep.Pool,
		ExecWorkers: rep.ExecWorkers,
		Explain:     rep.Explain,
	}
}

// graceJoin is the hash-partitioned equi-join the worker-sweep and durable
// entries execute.
func graceJoin(rRows, sRows, ram int64) Request {
	return Request{
		Program: "flatMap(\\<p1, p2> -> for (xB [k1] <- p1) for (yB [k2] <- p2) " +
			"for (x <- xB) for (y <- yB) if x.1 == y.1 then [<x, y>] else [])" +
			"(zip[2](partition[s](R), partition[s](S)))",
		Inputs: map[string]Input{
			"R": {Node: "hdd", Rows: rRows},
			"S": {Node: "hdd", Rows: sRows},
		},
		RAM:   ram,
		Depth: 2, Space: 200,
	}
}

// graceOnFastSeeks is graceJoin on one disk whose transfer initiation costs
// 0.1 ms instead of 15 ms.
func graceOnFastSeeks(rRows, sRows, ram int64) Request {
	req := graceJoin(rRows, sRows, ram)
	req.Hierarchy = json.RawMessage(fmt.Sprintf(`{"name": "ram", "kind": "ram", "size": %d, "pagesize": 1,
		"children": [{"name": "hdd", "kind": "hdd", "size": %d, "pagesize": 4096,
			"initComUp": 0.0001, "initComDown": 0.0001, "unitTrUp": %g, "unitTrDown": %g}]}`,
		ram, memory.TiB, memory.HDDUnitTr, memory.HDDUnitTr))
	return req
}

// goldenEntry is one corpus entry: a request plus the option matrix it is
// executed under. Every run is explained, so the per-operator counters are
// part of the pinned contract.
type goldenEntry struct {
	name    string
	req     Request
	base    ExecOptions
	batches []int64
	workers []int
	// durable additionally executes every configuration over catalog tables
	// holding exactly the generated rows.
	durable bool
}

func goldenCorpus(t *testing.T) []goldenEntry {
	t.Helper()
	paths, err := filepath.Glob("../../examples/*/request.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example requests found: %v", err)
	}
	var corpus []goldenEntry
	for _, reqPath := range paths {
		data, err := os.ReadFile(reqPath)
		if err != nil {
			t.Fatal(err)
		}
		var req Request
		if err := json.Unmarshal(data, &req); err != nil {
			t.Fatal(err)
		}
		scaleRequest(&req, 2048)
		corpus = append(corpus, goldenEntry{
			name: filepath.Base(filepath.Dir(reqPath)), req: req,
			base:    ExecOptions{Seed: 42},
			batches: []int64{1, 64}, workers: []int{1, 4},
		})
	}
	corpus = append(corpus,
		goldenEntry{
			name: "grace-worker-sweep", req: graceJoin(4096, 8192, 256<<10),
			base:    ExecOptions{Seed: 11},
			batches: []int64{0}, workers: []int{1, 2, 4, 8},
		},
		// The worker sweep writes one bucket per side; this one partitions
		// each side into several, so a multi-part gather runs at every count.
		goldenEntry{
			name: "grace-buckets-sweep", req: graceJoin(262144, 524288, 128<<10),
			base:    ExecOptions{Seed: 11},
			batches: []int64{0}, workers: []int{1, 2, 4, 8},
		},
		goldenEntry{
			name: "grace-durable", req: graceJoin(1024, 2048, 64<<10),
			base:    ExecOptions{Seed: 42, PoolBytes: 16 << 10},
			batches: []int64{0}, workers: []int{1, 4},
			durable: true,
		},
		// A disk that seeks in 0.1 ms makes small buckets pay: the winner
		// partitions into 7 buckets and loops over S's (the second) buckets
		// outside R's, so S is the build side.
		goldenEntry{
			name: "grace-swapped-buckets", req: graceOnFastSeeks(32768, 8192, 16<<10),
			base:    ExecOptions{Seed: 42},
			batches: []int64{0, 64}, workers: []int{1, 4},
		},
		// The examples lower to joins, sorts and streaming merges; these two
		// pin the projection and fold kernels' charges as well.
		goldenEntry{
			name: "filter-project",
			req: Request{
				Program: "for (x <- R) if x.1 < 300 then [<x.2, (x.1 + x.2)>] else []",
				Inputs:  map[string]Input{"R": {Node: "hdd", Rows: 8192}},
				RAM:     4 << 10, Depth: 3, Space: 200,
			},
			base:    ExecOptions{Seed: 42},
			batches: []int64{1, 64}, workers: []int{1, 4},
		},
		goldenEntry{
			name: "fold-sum",
			req: Request{
				Program: "foldL(0, \\<a, x> -> (a + x.2))(R)",
				Inputs:  map[string]Input{"R": {Node: "hdd", Rows: 8192}},
				RAM:     4 << 10, Depth: 3, Space: 200,
			},
			base:    ExecOptions{Seed: 42},
			batches: []int64{1, 64}, workers: []int{1, 4},
		})
	corpus = append(corpus, unfoldGoldenEntries()...)
	return append(corpus, grammarGoldenEntries()...)
}

// grammarGoldenEntries are the scan-body and fold shapes outside the
// one-row filter/projection and the arithmetic fold: a nested conditional, a
// row in the else branch, a two-row body, a conditional accumulator, a final
// lambda, and a conditional body over a join, whose arity is only known at
// the first block. Their records were captured while these shapes still ran
// in the interpreter.
func grammarGoldenEntries() []goldenEntry {
	entry := func(name, prog string, inputs map[string]Input) goldenEntry {
		return goldenEntry{name: name,
			req:     Request{Program: prog, Inputs: inputs, RAM: 4 << 10, Depth: 3, Space: 200},
			base:    ExecOptions{Seed: 42},
			batches: []int64{1, 64}, workers: []int{1, 4}}
	}
	r := map[string]Input{"R": {Node: "hdd", Rows: 8192}}
	return []goldenEntry{
		entry("scan-nested-if", "for (x <- R) if x.1 < 1000 then (if x.2 % 2 == 0 then [x] else []) else []", r),
		entry("scan-else-row", "for (x <- R) if x.1 < 3 then [x] else [<x.2, x.1>]", r),
		entry("scan-concat", "for (x <- R) [x] ++ [<x.2, x.1>]", r),
		entry("fold-max", "foldL(0, \\<a, x> -> if a < x.1 then x.1 else a)(R)", r),
		entry("fold-avg", "(\\a -> [a.1 / (a.2 + 1)])(foldL(<0,0>, \\<a, x> -> <a.1 + x.1, a.2 + 1>)(R))", r),
		entry("scan-else-row-over-join",
			"for (w <- (for (x <- R) for (y <- S) [<x, y>])) if w.1 < 30 then [w] else [<w.2 + 1, w.1>]",
			map[string]Input{"R": {Node: "hdd", Rows: 256, Arity: 1}, "S": {Node: "hdd", Rows: 64, Arity: 1}}),
	}
}

// unfoldGoldenEntries are the unfoldR shapes the examples do not reach:
// scratch state (dedup), a set operation with arithmetic in its equal
// branch, a four-way merge, and the three step kinds at window sizes 1, 2 and 3, where the
// refill at one remaining row happens on every step or every other one.
func unfoldGoldenEntries() []goldenEntry {
	no := false
	ints := func(names ...string) map[string]Input {
		m := map[string]Input{}
		for _, n := range names {
			m[n] = Input{Node: "hdd", Rows: 3000, Arity: 1}
		}
		return m
	}
	entry := func(name string, req Request) goldenEntry {
		req.Commutative = &no
		return goldenEntry{name: name, req: req, base: ExecOptions{Seed: 42},
			batches: []int64{1, 64}, workers: []int{1, 4}}
	}
	const dedupStep = "\\<seen, rest> -> if length(rest) == 0 then <[], <[], []>> " +
		"else if length(seen) == 0 then <[head(rest)], <[head(rest)], tail(rest)>> " +
		"else if head(seen) == head(rest) then <[], <seen, tail(rest)>> " +
		"else <[head(rest)], <[head(rest)], tail(rest)>>"
	const groupbyStep = "\\g -> if length(tail(g.1)) == 0 then <[head(g.1)], <[]>> " +
		"else if head(g.1).1 == head(tail(g.1)).1 " +
		"then <[], <[<head(g.1).1, head(g.1).2 + head(tail(g.1)).2>] ++ tail(tail(g.1))>> " +
		"else <[head(g.1)], <tail(g.1)>>"
	out := []goldenEntry{
		entry("dedup", Request{Program: "unfoldR(" + dedupStep + ")([], L)",
			Hier: "two-hdd", RAM: 16 << 10, Inputs: ints("L"), Output: "hdd2", Depth: 3, Space: 300}),
		entry("multiset-union-vm", Request{Program: ocal.String(core.MultisetUnionVMSpec().Prog),
			Hier: "two-hdd", RAM: 16 << 10,
			Inputs: map[string]Input{"L1": {Node: "hdd", Rows: 3000}, "L2": {Node: "hdd", Rows: 2000}},
			Output: "hdd2", Depth: 3, Space: 300}),
		// A four-way merge of pairs over lists of different lengths.
		entry("mrg4-pairs", Request{Program: "unfoldR(funcPow[2](mrg))(L1, L2, L3, L4)",
			Hier: "two-hdd", RAM: 16 << 10,
			Inputs: map[string]Input{"L1": {Node: "hdd", Rows: 3000}, "L2": {Node: "hdd", Rows: 2000},
				"L3": {Node: "hdd", Rows: 2500}, "L4": {Node: "hdd", Rows: 1}},
			Output: "hdd2", Depth: 2, Space: 100}),
	}
	// Generated pairs never collide as whole rows; these do on every even
	// value below 3000, so the equal branch adds multiplicities 1500 times.
	vm := &out[1]
	vm.base.Inputs = map[string][][]int64{}
	for name, step := range map[string]int64{"L1": 1, "L2": 2} {
		rows := make([][]int64, vm.req.Inputs[name].Rows)
		for i := range rows {
			v := int64(i) * step
			rows[i] = []int64{v, v % 7}
		}
		vm.base.Inputs[name] = rows
	}
	for k := 1; k <= 3; k++ {
		// A literal window of 1 reads as "unblocked" and the synthesizer blocks
		// it again; an 8-byte pool caps the shared windows of the k=2 plans at
		// one row instead (one 8-byte pair, or two 4-byte ints).
		lit, pool := k, int64(0)
		if k == 1 {
			lit, pool = 2, 8
		}
		sized := func(kind string, req Request) goldenEntry {
			e := entry(fmt.Sprintf("%s-k%d", kind, k), req)
			e.base.PoolBytes = pool
			return e
		}
		out = append(out,
			sized("groupby", Request{
				Program: fmt.Sprintf("unfoldR[%d](%s)(<R>)", lit, groupbyStep),
				RAM:     16 << 10, Inputs: map[string]Input{"R": {Node: "hdd", Rows: 3000}},
				Output: "hdd", Depth: 2, Space: 100}),
			sized("mrg", Request{
				Program: fmt.Sprintf("unfoldR[%d](mrg)(L1, L2)", lit),
				Hier:    "two-hdd", RAM: 16 << 10, Inputs: ints("L1", "L2"),
				Output: "hdd2", Depth: 2, Space: 100}),
			sized("zip", Request{
				Program: fmt.Sprintf("unfoldR[%d](z[2])(C1, C2)", lit),
				RAM:     16 << 10, Inputs: ints("C1", "C2"), Depth: 2, Space: 100}))
	}
	return out
}

// TestAccountingGolden executes the examples corpus, the grace-join worker
// sweep and the generated-vs-durable quadrant, and requires every run's
// digest, row count, virtual clock (bit-exact), per-device ledgers, pool
// stats, worker-lane ledgers and EXPLAIN ANALYZE tree to reproduce
// testdata/accounting.golden.json byte for byte. The file was captured when
// the executor had two steppers that both produced it, so it is the proof
// that the surviving kernel path charges exactly what the deleted
// interpreted loops charged.
func TestAccountingGolden(t *testing.T) {
	want := readGolden(t)
	got := map[string]goldenRun{}
	seen := map[string]bool{}
	for _, e := range goldenCorpus(t) {
		t.Run(e.name, func(t *testing.T) {
			c, err := Compile(e.req)
			if err != nil {
				t.Fatal(err)
			}
			p, err := c.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			sources := []string{"generated"}
			var cat *catalog.Catalog
			var tables map[string]string
			if e.durable {
				cat, err = catalog.Open(t.TempDir(), catalog.Options{FlushRows: 257, ChunkRows: 64})
				if err != nil {
					t.Fatal(err)
				}
				defer cat.Close()
				tables = ingestGenerated(t, cat, c, e.base)
				sources = append(sources, "durable")
			}
			for _, batch := range e.batches {
				for _, workers := range e.workers {
					var generated goldenRun
					for _, source := range sources {
						opt := e.base
						opt.BatchRows, opt.ExecWorkers, opt.Explain = batch, workers, true
						if source == "durable" {
							opt.Tables, opt.Cat = tables, cat
						}
						key := goldenKey(e.name, batch, workers, source)
						rep, err := ExecutePlan(context.Background(), c, p, opt)
						if err != nil {
							t.Fatalf("%s: %v", key, err)
						}
						run := goldenOf(rep)
						seen[key] = true
						if *updateGolden {
							got[key] = run
						} else {
							requireSameRun(t, key, run, want[key])
						}
						// The durable run's output and charges are the generated
						// run's: a table scan reads the same logical records.
						if source == "generated" {
							generated = run
						} else if run.OutDigest != generated.OutDigest || run.OutRows != generated.OutRows ||
							run.VirtualSecondsBits != generated.VirtualSecondsBits ||
							!bytes.Equal(mustJSON(t, run.Devices), mustJSON(t, generated.Devices)) {
							t.Errorf("%s: durable run diverges from the generated one\ndurable:   %s\ngenerated: %s",
								key, mustJSON(t, run), mustJSON(t, generated))
						}
					}
				}
			}
		})
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for key := range want {
		if !seen[key] {
			t.Errorf("golden entry %s was not executed", key)
		}
	}
}

// readGolden loads the golden records (none while they are being rewritten).
func readGolden(t *testing.T) map[string]json.RawMessage {
	t.Helper()
	want := map[string]json.RawMessage{}
	if *updateGolden {
		return want
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

func goldenKey(entry string, batch int64, workers int, source string) string {
	return fmt.Sprintf("%s/batch=%d/workers=%d/%s", entry, batch, workers, source)
}

// TestBatchSizeInvariants states, over the golden records of every entry
// executed at batch sizes 1 and 64, what the batch size may not move and
// what it does. It never moves the output (digest, rows, scalar result) or
// the bytes any device transfers. It does move where the sink's evictions
// fall among the run's reads — a sink is fed between Next calls — so when
// the output device also holds an input, the arm travels between the two at
// batch granularity and the initiations (and the clock) follow: groupby-k1
// is 1,315 + 1,315 initiations at batch 1 and 21 + 21 at batch 64. With the
// output on a device of its own the initiations hold too and only the order
// of the clock's additions differs, in its last bits; with no output device
// the sink charges nothing and the clock holds bit for bit.
func TestBatchSizeInvariants(t *testing.T) {
	want := readGolden(t)
	compared := 0
	for _, e := range goldenCorpus(t) {
		sharesOutput := false // an input lives on the output device
		for _, in := range e.req.Inputs {
			sharesOutput = sharesOutput || in.Node == e.req.Output
		}
		for _, workers := range e.workers {
			for _, source := range []string{"generated", "durable"} {
				var one, many goldenRun
				a, b := want[goldenKey(e.name, 1, workers, source)], want[goldenKey(e.name, 64, workers, source)]
				if a == nil || b == nil {
					continue
				}
				if err := json.Unmarshal(a, &one); err != nil {
					t.Fatal(err)
				}
				if err := json.Unmarshal(b, &many); err != nil {
					t.Fatal(err)
				}
				compared++
				label := fmt.Sprintf("%s/workers=%d/%s", e.name, workers, source)
				if one.OutDigest != many.OutDigest || one.OutRows != many.OutRows || one.Result != many.Result {
					t.Errorf("%s: the batch size moved the output: (%d rows, %s, %q) at 1, (%d rows, %s, %q) at 64",
						label, one.OutRows, one.OutDigest, one.Result, many.OutRows, many.OutDigest, many.Result)
				}
				for name, d1 := range one.Devices {
					d64 := many.Devices[name]
					if d1.BytesRead != d64.BytesRead || d1.BytesWrite != d64.BytesWrite {
						t.Errorf("%s: the batch size moved %s's bytes: %+v at 1, %+v at 64", label, name, d1, d64)
					}
					if !sharesOutput && (d1.ReadInits != d64.ReadInits || d1.WriteInits != d64.WriteInits) {
						t.Errorf("%s: no input shares the output device, yet the batch size moved %s's initiations: %+v at 1, %+v at 64",
							label, name, d1, d64)
					}
				}
				if e.req.Output == "" && one.VirtualSecondsBits != many.VirtualSecondsBits {
					t.Errorf("%s: no output device, yet the batch size moved the clock: %s at 1, %s at 64",
						label, one.VirtualSecondsBits, many.VirtualSecondsBits)
				}
			}
		}
	}
	if compared == 0 && !*updateGolden {
		t.Error("no entry has golden records at batch sizes 1 and 64")
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// requireSameRun compares a run against its golden record byte for byte
// (both in compact JSON, the golden file being indented).
func requireSameRun(t *testing.T, label string, run goldenRun, want json.RawMessage) {
	t.Helper()
	if want == nil {
		t.Errorf("%s: no golden record (run with -update-golden on a tree known to be right)", label)
		return
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, want); err != nil {
		t.Fatal(err)
	}
	if got := mustJSON(t, run); !bytes.Equal(got, compact.Bytes()) {
		t.Errorf("%s: run diverges from the golden record\n got: %s\nwant: %s", label, got, compact.Bytes())
	}
}
