package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strconv"

	"ocas/internal/interp"
	"ocas/internal/ocal"
	"ocas/internal/plan"
)

// workload is one traffic mix. setup lists the ops that bring a fresh daemon
// to the measured state (tables loaded, every query checked against the
// oracle, plans cached); the runner follows them with cycle 0 as the warm
// cycle and measures cycles 1, 2, ... A cycle is one pass over the corpus in
// fixed order.
type workload struct {
	name  string
	setup func(b *bench) []op
	cycle func(b *bench, i int) []op
}

// bench is what one run's set-ups, cycles and traced replay share: the seed,
// the scale and the inputs made from them.
type bench struct {
	seed  int64
	scale int64
	// jitter perturbs every synthesis request's RAM size (in 64-byte steps)
	// so that different seeds send different, equally hard requests.
	jitter int64

	memo map[string][]op
}

func newBench(seed, scale int64) *bench {
	r := rand.New(rand.NewSource(seed))
	return &bench{seed: seed, scale: scale, jitter: 64 * r.Int63n(1024), memo: map[string][]op{}}
}

// once builds a workload's immutable op list on first use: set-ups repeat
// three times a run and must not regenerate 64k-row bodies each time.
func (b *bench) once(key string, build func() []op) []op {
	if ops, ok := b.memo[key]; ok {
		return ops
	}
	ops := build()
	b.memo[key] = ops
	return ops
}

var workloads = []workload{
	{name: "synth_cold", setup: synthSetup(searchedShapes), cycle: synthColdCycle},
	{name: "synth_hit", setup: synthSetup(synthCorpus), cycle: synthHitCycle},
	{name: "synth_template", setup: synthSetup(synthCorpus), cycle: synthTemplateCycle},
	{name: "exec_durable", setup: execDurableSetup, cycle: execDurableCycle},
	{name: "exec_generated", setup: execGeneratedSetup, cycle: execGeneratedCycle},
	{name: "ingest", setup: func(*bench) []op { return nil }, cycle: ingestCycle},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func synthCorpus() []query { return append(searchedShapes(), searchFreeShapes()...) }

// jittered is q's request with the run's RAM perturbation plus extra bytes.
func (b *bench) jittered(q query, extra int64) plan.Request {
	req := q.req
	req.RAM += b.jitter + extra
	return req
}

// synthSetup posts every program of the corpus once: a miss that captures
// the shape's template and caches the plan.
func synthSetup(corpus func() []query) func(b *bench) []op {
	return func(b *bench) []op {
		var ops []op
		for _, q := range corpus() {
			o := synthOp(q.name, b.jittered(q, 0), "miss")
			if q.name == "grace" {
				o.derives = "hash-part"
			}
			ops = append(ops, o)
		}
		return ops
	}
}

// synthColdCycle gives every request a RAM size the daemon has never seen:
// the plan key misses and the template's constant guard rejects, so each is a
// full search. The 64-byte step keeps a window's requests inside a few tens
// of KiB, far from any regime change.
func synthColdCycle(b *bench, i int) []op {
	var ops []op
	for _, q := range searchedShapes() {
		ops = append(ops, synthOp(q.name, b.jittered(q, 64*int64(i+1)), "miss"))
	}
	return ops
}

func synthHitCycle(b *bench, i int) []op {
	return b.once("synth_hit", func() []op {
		var ops []op
		for _, q := range synthCorpus() {
			ops = append(ops, synthOp(q.name, b.jittered(q, 0), "hit"))
		}
		return ops
	})
}

// synthTemplateCycle posts every program with i+1 more rows per input than
// its template was captured at: same shape, same constants, new plan key.
// Each reply caches one more plan, so a window overflows the 1024-plan cache.
func synthTemplateCycle(b *bench, i int) []op {
	var ops []op
	for _, q := range synthCorpus() {
		req := b.jittered(q, 0)
		req.Inputs = map[string]plan.Input{}
		for name, in := range q.req.Inputs {
			in.Rows += int64(i + 1)
			req.Inputs[name] = in
		}
		ops = append(ops, synthOp(q.name, req, "template-hit"))
	}
	return ops
}

// loadOps creates and bulk-loads the durable table of every distinct input of
// qs from the executor's own generator output, 64k rows a batch.
func (b *bench) loadOps(qs []query) []op {
	var ops []op
	seen := map[string]bool{}
	for _, q := range qs {
		for idx, name := range q.inputNames() {
			arity, rows := q.req.Inputs[name].Arity, q.execRows(name)
			table := tableName(arity, rows, idx)
			if seen[table] {
				continue
			}
			seen[table] = true
			ops = append(ops, createOp(table, arity))
			flat := generated(arity, rows, b.seed, idx)
			for lo := int64(0); lo < rows; lo += ingestBatchRows {
				hi := min(lo+ingestBatchRows, rows)
				ops = append(ops, ingestOp(table, arity, flat[lo*int64(arity):hi*int64(arity)]))
			}
		}
	}
	return ops
}

// gateOps runs every query once on at most 2048 explicit rows per input (512
// for two-input queries) and attaches what the reference interpreter computes
// from the naive specification over the same rows — an oracle that shares
// neither the synthesizer nor the executor with the daemon. They are also the
// requests that synthesize and cache each query's plan.
func (b *bench) gateOps(qs []query) []op {
	var ops []op
	for _, q := range qs {
		names := q.inputNames()
		limit := int64(2048)
		if len(names) > 1 {
			limit = 512
		}
		explicit := map[string][][]int64{}
		values := map[string]ocal.Value{}
		for idx, name := range names {
			arity := q.req.Inputs[name].Arity
			flat := generated(arity, min(q.execRows(name), limit), b.seed, idx)
			var rows [][]int64
			var list ocal.List
			for i := 0; i < len(flat); i += arity {
				row := make([]int64, arity)
				tup := make(ocal.Tuple, arity)
				for j := range row {
					row[j] = int64(flat[i+j])
					tup[j] = ocal.Int(flat[i+j])
				}
				rows = append(rows, row)
				if arity == 1 {
					list = append(list, tup[0])
				} else {
					list = append(list, tup)
				}
			}
			explicit[name], values[name] = rows, list
		}
		o := execOp(q.name, q.req, plan.ExecOptions{Inputs: explicit}, "miss")
		o.want = oracle(q.req.Program, values)
		ops = append(ops, o)
	}
	return ops
}

// oracle evaluates the naive specification with internal/interp.
func oracle(program string, inputs map[string]ocal.Value) *execReply {
	prog, err := ocal.ParseFile(program)
	if err != nil {
		panic(fmt.Sprintf("corpus program does not parse: %v", err))
	}
	v, err := interp.Eval(prog, inputs, nil)
	if err != nil {
		panic(fmt.Sprintf("corpus program does not evaluate: %v", err))
	}
	list, ok := v.(ocal.List)
	if !ok {
		return &execReply{OutRows: -1, OutDigest: scalarDigest(v.String())}
	}
	var d bagDigest
	for _, row := range list {
		d.add(flatten(row, nil))
	}
	return &execReply{OutRows: int64(len(list)), OutDigest: d.hex()}
}

func flatten(v ocal.Value, dst []int32) []int32 {
	switch x := v.(type) {
	case ocal.Int:
		return append(dst, int32(x))
	case ocal.Tuple:
		for _, e := range x {
			dst = flatten(e, dst)
		}
		return dst
	}
	panic(fmt.Sprintf("cannot flatten %T into a row", v))
}

// bagDigest is internal/plan's output digest, re-implemented from its
// documented definition: each row hashes as SHA-256 over its little-endian
// u32 length followed by its little-endian u32 values, and the row hashes are
// summed as big-endian 256-bit integers modulo 2^256.
type bagDigest [sha256.Size]byte

func (d *bagDigest) add(row []int32) {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(row)))
	for _, v := range row {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	h := sha256.Sum256(buf)
	carry := uint16(0)
	for i := sha256.Size - 1; i >= 0; i-- {
		s := uint16(d[i]) + uint16(h[i]) + carry
		d[i], carry = byte(s), s>>8
	}
}

func (d *bagDigest) hex() string { return hex.EncodeToString(d[:]) }

// scalarDigest is the digest of an aggregation's printed result.
func scalarDigest(result string) string {
	sum := sha256.Sum256([]byte(result))
	return hex.EncodeToString(sum[:])
}

// generatedOp executes q at full scale on generator-fed inputs.
func (b *bench) generatedOp(q query) op {
	return execOp(q.name, q.req, plan.ExecOptions{Seed: b.seed, Rows: q.rows}, "hit")
}

// durableOp executes q with every input bound to its durable table.
func durableOp(q query) op {
	tables := map[string]string{}
	for idx, name := range q.inputNames() {
		tables[name] = tableName(q.req.Inputs[name].Arity, q.execRows(name), idx)
	}
	return execOp(q.name, q.req, plan.ExecOptions{Tables: tables}, "hit")
}

// execDurableSetup loads the tables, passes the gate, and executes the
// queries shared with exec_generated once on generated inputs: the driver
// holds every later reply of an entry to the first one's rows, digest and
// virtual seconds, so this also requires durable and generated runs to agree.
func execDurableSetup(b *bench) []op {
	return b.once("exec_durable.setup", func() []op {
		qs := execQueries(b.scale)
		ops := append(b.loadOps(qs), b.gateOps(qs)...)
		for _, q := range qs[:generatedQueries] {
			ops = append(ops, b.generatedOp(q))
		}
		// The gate cached grace's plan: it must be the GRACE hash join, or
		// the entry measures something else.
		grace := synthOp("grace", graceQuery().req, "hit")
		grace.derives = "hash-part"
		return append(ops, grace)
	})
}

func execDurableCycle(b *bench, i int) []op {
	return b.once("exec_durable", func() []op {
		var ops []op
		for _, q := range execQueries(b.scale) {
			ops = append(ops, durableOp(q))
		}
		return ops
	})
}

func execGeneratedSetup(b *bench) []op {
	return b.once("exec_generated.setup", func() []op {
		return b.gateOps(execQueries(b.scale)[:generatedQueries])
	})
}

func execGeneratedCycle(b *bench, i int) []op {
	return b.once("exec_generated", func() []op {
		var ops []op
		for _, q := range execQueries(b.scale)[:generatedQueries] {
			ops = append(ops, b.generatedOp(q))
		}
		return ops
	})
}

// ingestCycle is the write side of the layer exec_durable reads: drop the two
// tables of the previous cycle, create them again, and load both with
// interleaved 64k-row batches, arity-2 as CSV and arity-1 as JSON. Cycle 0,
// the warm cycle of the set-up, ends with one aggregation over each table,
// whose result the benchmark knows from the rows it sent.
func ingestCycle(b *bench, i int) []op {
	load := b.once("ingest", func() []op {
		ops := []op{createOp("wide", 2), createOp("narrow", 1)}
		// 64k rows a batch at the default scale, as many batches at any.
		batch := min(ingestBatchRows, b.scale/2)
		rows := ingestBatches * batch
		wide, narrow := unsortedRows(2, rows, b.seed), unsortedRows(1, rows, b.seed+1)
		var sumWide, sumNarrow int64
		for lo := int64(0); lo < rows; lo += batch {
			ops = append(ops, ingestOp("wide", 2, wide[2*lo:2*(lo+batch)]),
				ingestOp("narrow", 1, narrow[lo:lo+batch]))
		}
		for r := int64(0); r < rows; r++ {
			sumWide += int64(wide[2*r+1])
			sumNarrow += int64(narrow[r])
		}
		return append(ops, sumOp("wide", 2, rows, sumWide), sumOp("narrow", 1, rows, sumNarrow))
	})
	if i == 0 {
		return load
	}
	return b.once("ingest.reload", func() []op {
		ops := []op{dropOp("wide"), dropOp("narrow")}
		for _, o := range load {
			if o.kind != "exec" {
				ops = append(ops, o)
			}
		}
		return ops
	})
}

// sumOp folds one column of a durable table and expects the given sum.
func sumOp(table string, arity int, rows, sum int64) op {
	req := plan.Request{Program: aggProg, Hier: "hdd-ram", RAM: 8 << 20,
		Inputs: map[string]plan.Input{"R": {Node: "hdd", Rows: rows, Arity: arity}}, Depth: 4, Space: 500}
	if arity == 1 {
		req.Program = "foldL(0, \\<a, x> -> (a + x))(R)"
	}
	o := execOp("verify", req, plan.ExecOptions{Tables: map[string]string{"R": table}}, "miss")
	o.want = &execReply{OutRows: -1, OutDigest: scalarDigest(strconv.FormatInt(sum, 10))}
	return o
}
