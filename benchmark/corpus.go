package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strconv"

	"ocas/internal/catalog"
	"ocas/internal/plan"
)

// defaultScale is N, the row count the exec workloads are sized from. The
// driver's budget (4 + 22 runs per workload inside 3420 s) caps a run at
// about 25 s including three set-ups, which is what 2^17 affords on the
// default (interpreted, ReadAt) daemon; bench_test.go replays at 2^10.
const defaultScale = 1 << 17

// ingestBatchRows is one POST /tables/{t}/rows body: the catalog's default
// flush threshold, so every acknowledged batch has cut exactly one segment.
const ingestBatchRows = 64 << 10

// ingestBatches is the number of batches per table per load.
const ingestBatches = 4

const (
	joinProg    = "for (x <- R) for (y <- S) if x.1 == y.1 then [<x, y>] else []"
	productProg = "for (x <- R) for (y <- S) [<x, y>]"
	mergeProg   = "unfoldR(mrg)(L1, L2)"
	zipProg     = "unfoldR(z[2])(C1, C2)"
	aggProg     = "foldL(0, \\<a, x> -> (a + x.2))(R)"
	dedupProg   = "unfoldR(\\<seen, rest> -> if length(rest) == 0 then <[], <[], []>> " +
		"else if length(seen) == 0 then <[head(rest)], <[head(rest)], tail(rest)>> " +
		"else if head(seen) == head(rest) then <[], <seen, tail(rest)>> " +
		"else <[head(rest)], <[head(rest)], tail(rest)>>)([], L)"
	// groupbyProg is examples/groupby/query.ocal without its comment line.
	groupbyProg = "unfoldR(\\g ->\n" +
		"  if length(tail(g.1)) == 0 then <[head(g.1)], <[]>>\n" +
		"  else if head(g.1).1 == head(tail(g.1)).1\n" +
		"  then <[], <[<head(g.1).1, head(g.1).2 + head(tail(g.1)).2>] ++ tail(tail(g.1))>>\n" +
		"  else <[head(g.1)], <tail(g.1)>>)(<R>)"
)

// query is one corpus entry: a synthesis problem and, for the exec
// workloads, the row counts it is executed at.
type query struct {
	name string
	req  plan.Request
	// rows overrides the executed row count of inputs whose plan is tuned
	// for a larger nominal size than the benchmark can afford to run.
	rows map[string]int64
}

// execRows is the number of rows input name executes at.
func (q *query) execRows(name string) int64 {
	if n, ok := q.rows[name]; ok {
		return n
	}
	return q.req.Inputs[name].Rows
}

// inputNames lists the query's inputs in the order the executor numbers
// them (sorted by name), which fixes each input's generator seed.
func (q *query) inputNames() []string {
	names := make([]string, 0, len(q.req.Inputs))
	for n := range q.req.Inputs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func pairs(node string, rows int64) plan.Input { return plan.Input{Node: node, Rows: rows, Arity: 2} }
func ints(node string, rows int64) plan.Input  { return plan.Input{Node: node, Rows: rows, Arity: 1} }

var no = false

// searchedShapes are the Table 1 join rows reachable over HTTP plus one beam
// request: the corpus of synth_cold, and the searched half of the other two
// synthesis workloads. Every entry has its own template fingerprint (two
// entries of one shape with different constants evict each other's template
// and turn every request into a miss); bench_test.go checks that.
func searchedShapes() []query {
	rs := func(r, s int64) map[string]plan.Input {
		return map[string]plan.Input{"R": pairs("hdd", r), "S": pairs("hdd", s)}
	}
	return []query{
		{name: "bnl", req: plan.Request{Program: joinProg, Hier: "hdd-ram", RAM: 8 << 20,
			Inputs: rs(4<<20, 256<<10), Depth: 6, Space: 2000}},
		{name: "bnl-cache", req: plan.Request{Program: joinProg, Hier: "hdd-ram-cache", RAM: 8 << 20,
			Inputs: rs(4<<20, 256<<10), Depth: 7, Space: 2500}},
		graceQuery(),
		{name: "write-same", req: plan.Request{Program: productProg, Hier: "hdd-ram", RAM: 1 << 20,
			Inputs: rs(1024, 16384), Output: "hdd", Depth: 6, Space: 1200}},
		{name: "write-other", req: plan.Request{Program: productProg, Hier: "two-hdd", RAM: 1 << 20,
			Inputs: rs(1024, 16384), Output: "hdd2", Depth: 6, Space: 1200}},
		{name: "write-flash", req: plan.Request{Program: productProg, Hier: "hdd-flash", RAM: 1 << 20,
			Inputs: rs(1024, 16384), Output: "ssd", Depth: 6, Space: 1500}},
		{name: "bnl-beam", req: plan.Request{Program: joinProg, Hier: "hdd-ram", RAM: 8 << 20,
			Inputs: rs(4<<20, 256<<10), Strategy: "beam", Beam: 64, Depth: 6, Space: 2000}},
	}
}

// graceQuery is examples/hashjoin verbatim: smaller nominal sizes do not
// derive hash-part.
func graceQuery() query {
	return query{name: "grace", req: plan.Request{Program: joinProg, Hier: "hdd-ram", RAM: 2 << 20,
		Inputs: map[string]plan.Input{"R": pairs("hdd", 4<<20), "S": pairs("hdd", 8<<20)},
		Depth:  6, Space: 1500}}
}

// execQueries is the exec_durable corpus at scale n; the first
// generatedQueries entries are exec_generated's.
func execQueries(n int64) []query {
	grace := graceQuery()
	grace.rows = map[string]int64{"R": n / 2, "S": n}
	return []query{
		// RAM holds S and half of R, so R streams in blocks against a
		// resident S.
		{name: "bnl", req: plan.Request{Program: joinProg, Hier: "hdd-ram", RAM: 4 * n,
			Inputs: map[string]plan.Input{"R": pairs("hdd", n), "S": pairs("hdd", n/4)},
			Depth:  6, Space: 2000}},
		// The payload column is a permutation of 0..n-1: exactly a tenth
		// of the rows pass.
		{name: "filter", req: plan.Request{
			Program: fmt.Sprintf("for (x <- R) if x.2 < %d then [<x.1, x.2 + 1>] else []", n/10),
			Hier:    "hdd-ram", RAM: 8 << 20,
			Inputs: map[string]plan.Input{"R": pairs("hdd", n)}, Depth: 4, Space: 500}},
		{name: "agg", req: plan.Request{Program: aggProg, Hier: "hdd-ram", RAM: 8 << 20,
			Inputs: map[string]plan.Input{"R": pairs("hdd", n)}, Depth: 4, Space: 500}},
		{name: "merge", req: plan.Request{Program: mergeProg, Hier: "two-hdd", RAM: 1 << 20,
			Inputs: map[string]plan.Input{"L1": ints("hdd", n/2), "L2": ints("hdd", n/2)},
			Output: "hdd2", Commutative: &no, Depth: 6, Space: 1500}},
		grace,
		{name: "product", req: plan.Request{Program: productProg, Hier: "hdd-flash", RAM: 1 << 20,
			Inputs: map[string]plan.Input{"R": pairs("hdd", n>>10), "S": pairs("hdd", 1<<10)},
			Output: "ssd", Depth: 6, Space: 1500}},
		{name: "dedup", req: plan.Request{Program: dedupProg, Hier: "two-hdd", RAM: 1 << 20,
			Inputs: map[string]plan.Input{"L": ints("hdd", n)},
			Output: "hdd2", Depth: 3, Space: 300}},
		{name: "zip", req: plan.Request{Program: zipProg, Hier: "hdd-ram", RAM: 4 << 20,
			Inputs:      map[string]plan.Input{"C1": ints("hdd", n), "C2": ints("hdd", n)},
			Commutative: &no, Depth: 2, Space: 200}},
		// examples/groupby: the executor's quadratic path, so far fewer rows.
		{name: "groupby", req: plan.Request{Program: groupbyProg, Hier: "hdd-ram", RAM: 8 << 20,
			Inputs: map[string]plan.Input{"R": pairs("hdd", 4<<20)},
			Output: "hdd", Commutative: &no, Depth: 5, Space: 2000},
			rows: map[string]int64{"R": n / 32}},
	}
}

// generatedQueries is how many leading entries of execQueries run in
// exec_generated: bnl, filter, agg, merge.
const generatedQueries = 4

// searchFreeShapes are the five programs whose search space is at most three
// programs; with searchedShapes they form the synth_hit/synth_template corpus.
func searchFreeShapes() []query {
	var out []query
	for _, q := range execQueries(1 << 20) {
		switch q.name {
		case "merge", "agg", "dedup", "zip", "filter":
			out = append(out, q)
		}
	}
	return out
}

// op is one benchmark operation in both of its forms: the HTTP request the
// driver sends to the daemon, and the values the traced replay passes to the
// same layers in-process.
type op struct {
	entry string // the row its latency is reported under
	// kind is synth, exec, ingest, create or drop. The last two are
	// reported as rows only; the others are the headline ops of op_ms.
	kind string

	method, path, ctype string
	body                []byte
	status              int
	outcome             string // expected X-Ocas-Cache ("" = header absent)
	// want, on gate and verification ops, is the reply an oracle expects
	// (OutRows -1: a scalar result, no row count to compare).
	want *execReply
	// derives, on a /synthesize op, is a rule the plan's derivation must name.
	derives string

	req    plan.Request
	exec   plan.ExecOptions
	table  string
	schema catalog.Schema
	flat   []int32 // ingest rows, row-major
}

type execBody struct {
	plan.Request
	Exec plan.ExecOptions `json:"exec"`
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // requests hold only strings, numbers and maps of them
	}
	return b
}

func synthOp(entry string, req plan.Request, outcome string) op {
	return op{entry: entry, kind: "synth", method: http.MethodPost, path: "/synthesize",
		ctype: "application/json", body: mustJSON(req), status: http.StatusOK, outcome: outcome, req: req}
}

func execOp(entry string, req plan.Request, ex plan.ExecOptions, outcome string) op {
	return op{entry: entry, kind: "exec", method: http.MethodPost, path: "/execute",
		ctype: "application/json", body: mustJSON(execBody{req, ex}), status: http.StatusOK,
		outcome: outcome, req: req, exec: ex}
}

func tableSchema(arity int) catalog.Schema {
	cols := []catalog.Column{{Name: "k", Type: "int32"}, {Name: "v", Type: "int32"}}
	return catalog.Schema{Columns: cols[:arity], Key: []int{0}}
}

func createOp(table string, arity int) op {
	schema := tableSchema(arity)
	return op{entry: "create", kind: "create", method: http.MethodPost, path: "/tables",
		ctype: "application/json", status: http.StatusCreated, table: table, schema: schema,
		body: mustJSON(map[string]any{"name": table, "schema": schema})}
}

func dropOp(table string) op {
	return op{entry: "drop", kind: "drop", method: http.MethodDelete, path: "/tables/" + table,
		status: http.StatusNoContent, table: table}
}

// ingestOp posts rows (row-major, the given arity) to table: arity-2 batches
// travel as text/csv and arity-1 batches as JSON, so both decoders run.
func ingestOp(table string, arity int, flat []int32) op {
	o := op{kind: "ingest", method: http.MethodPost, path: "/tables/" + table + "/rows",
		status: http.StatusOK, table: table, schema: tableSchema(arity), flat: flat}
	var b bytes.Buffer
	if arity == 2 {
		o.entry, o.ctype = "csv", "text/csv"
		for i := 0; i < len(flat); i += 2 {
			b.WriteString(strconv.Itoa(int(flat[i])))
			b.WriteByte(',')
			b.WriteString(strconv.Itoa(int(flat[i+1])))
			b.WriteByte('\n')
		}
	} else {
		o.entry, o.ctype = "json", "application/json"
		b.WriteString(`{"rows":[`)
		for i, v := range flat {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteByte('[')
			b.WriteString(strconv.Itoa(int(v)))
			b.WriteByte(']')
		}
		b.WriteString("]}")
	}
	o.body = b.Bytes()
	return o
}

// generated returns the rows the executor's own generator feeds input idx of
// a request executed with exec.seed = seed.
func generated(arity int, rows, seed int64, idx int) []int32 {
	s := seed + int64(idx)*7919
	if arity == 1 {
		return plan.GeneratedInts(rows, s)
	}
	return plan.GeneratedPairs(rows, s)
}

// tableName names the durable table holding generated(arity, rows, seed,
// idx), so queries reading the same rows share one table.
func tableName(arity int, rows int64, idx int) string {
	return fmt.Sprintf("t%d_%d_%d", arity, rows, idx)
}

// unsortedRows are the ingest workload's rows: uniform keys in arrival order,
// so catalog.Append's sort has work to do (the exec workloads load key-sorted
// generator output, which it leaves untouched).
func unsortedRows(arity int, rows int64, seed int64) []int32 {
	r := rand.New(rand.NewSource(seed))
	out := make([]int32, 0, rows*int64(arity))
	for i := int64(0); i < rows; i++ {
		out = append(out, int32(r.Int63n(rows/2)))
		if arity == 2 {
			out = append(out, int32(i))
		}
	}
	return out
}
