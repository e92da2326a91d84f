package main

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"ocas/internal/catalog"
	"ocas/internal/codegen"
	"ocas/internal/exec"
	"ocas/internal/obs"
	"ocas/internal/ocal"
	"ocas/internal/plan"
	"ocas/internal/plancache"
	"ocas/internal/storage"
)

// replayCycles is how many cycles after the warm one the traced run replays.
const replayCycles = 3

// The daemon's defaults the replay mirrors: -cache-size, -template-cache and
// -timeout.
const (
	planCacheSize     = 1024
	templateCacheSize = 64
	requestBudget     = 60 * time.Second
)

// handlerSpans reads the daemon's own trace ring (its 256 newest requests)
// and files the spans of the window's ops by request ID: entry -> span name
// -> milliseconds, the root span as "handler".
func (d *driver) handlerSpans() map[string]map[string][]float64 {
	var ring struct{ Traces []obs.TraceJSON }
	if err := d.getJSON("/traces?n=256", &ring); err != nil {
		d.check(false, "GET /traces: %v", err)
		return nil
	}
	out := map[string]map[string][]float64{}
	for _, tr := range ring.Traces {
		entry, ok := d.requestIDs[tr.ID]
		if !ok {
			continue
		}
		if out[entry] == nil {
			out[entry] = map[string][]float64{}
		}
		for i, sp := range tr.Spans {
			name := sp.Name
			if i == 0 {
				name = "handler"
			}
			out[entry][name] = append(out[entry][name], float64(sp.DurNanos)/1e6)
		}
	}
	return out
}

// replayer runs ops in-process through each layer's public functions, every
// call under an internal/obs span: one trace per op, whose "op" root holds
// the calls the daemon makes for it (the blocking path) and whose "probe"
// root holds calls repeated on their own to attribute time inside those.
type replayer struct {
	store *plancache.Store
	cat   *catalog.Catalog
	dir   string

	recording bool
	traces    []obs.TraceJSON
	// dur and self are entry -> span name -> milliseconds: a span's duration,
	// and its duration minus its children's.
	dur, self map[string]map[string][]float64
	// count sums the counters of the recorded ops.
	count map[string]float64
	// modelErr is entry -> max(predicted/virtual, virtual/predicted).
	modelErr map[string]float64
}

// timed runs f under a child span of ctx's span.
func timed(ctx context.Context, name string, f func(ctx context.Context) error) error {
	cctx, sp := obs.Start(ctx, name)
	defer sp.End()
	return f(cctx)
}

// do replays one op and files its spans.
func (p *replayer) do(o op) error {
	tr := obs.NewTrace(obs.NewID())
	root := tr.StartSpan("op", nil)
	root.Attr("entry", o.entry)
	root.Attr("kind", o.kind)
	// Like the daemon, run every request under its default 60 s budget: a
	// deadline context makes each of synthesis's many ctx.Err() calls take
	// a lock, which a bare context would hide.
	budget, cancel := context.WithTimeout(context.Background(), requestBudget)
	defer cancel()
	ctx := obs.ContextWith(budget, root)
	var probeRoot *obs.Span
	probe := func() context.Context {
		if probeRoot == nil {
			probeRoot = tr.StartSpan("probe", nil)
		}
		return obs.ContextWith(budget, probeRoot)
	}
	var err error
	switch o.kind {
	case "synth":
		_, _, err = p.resolve(ctx, probe, o)
	case "exec":
		err = p.execute(ctx, probe, o)
	case "create":
		err = timed(ctx, "catalog.create", func(context.Context) error { return p.cat.Create(o.table, o.schema) })
	case "drop":
		err = timed(ctx, "catalog.drop", func(context.Context) error { return p.cat.Drop(o.table) })
	case "ingest":
		err = timed(ctx, "catalog.append", func(context.Context) error {
			_, err := p.cat.Append(o.table, o.flat)
			return err
		})
	}
	root.End()
	probeRoot.End()
	tr.Finish()
	if err != nil {
		return fmt.Errorf("replay %s %s: %w", o.kind, o.entry, err)
	}
	if p.recording {
		p.file(o.entry, tr.Snapshot())
	}
	return nil
}

// spanCounters are the counts the program's own spans carry as attributes.
var spanCounters = map[string]struct{ attr, metric string }{
	"synth.search":   {"space", "rules.space_size"},
	"synth.screen":   {"costed", "cost.costed"},
	"synth.optimize": {"shortlist", "opt.shortlist"},
}

// file records a finished trace: each span's duration and self time, and the
// counters the program's own spans carry as attributes.
func (p *replayer) file(entry string, tr obs.TraceJSON) {
	p.traces = append(p.traces, tr)
	children := make([]int64, len(tr.Spans))
	probed := make([]bool, len(tr.Spans)) // under the probe root (parents precede children)
	for i, sp := range tr.Spans {
		if sp.Parent >= 0 {
			children[sp.Parent] += sp.DurNanos
			probed[i] = probed[sp.Parent]
		} else {
			probed[i] = sp.Name == "probe"
		}
	}
	if p.dur[entry] == nil {
		p.dur[entry], p.self[entry] = map[string][]float64{}, map[string][]float64{}
	}
	for i, sp := range tr.Spans {
		// The program's own spans count once, where the daemon runs them.
		emitted := strings.HasPrefix(sp.Name, "synth.") || sp.Name == "exec.run" || sp.Name == "template.instantiate"
		if sp.Name == "probe" || (probed[i] && emitted) {
			continue
		}
		dur := sp.DurNanos
		if sp.Name == "op" {
			// Probes run between the op's calls: the op is its calls.
			dur = children[i]
		}
		p.dur[entry][sp.Name] = append(p.dur[entry][sp.Name], float64(dur)/1e6)
		p.self[entry][sp.Name] = append(p.self[entry][sp.Name], float64(dur-children[i])/1e6)
		if c, ok := spanCounters[sp.Name]; ok {
			if v, ok := sp.Attrs[c.attr].(int); ok {
				p.count[c.metric] += float64(v)
			}
		}
	}
}

// resolve is the daemon's path to a plan: compile, then the two-tier cache
// with a full search, a capturing search or a template instantiation behind
// it, then (for /synthesize) the encoding of the plan.
func (p *replayer) resolve(ctx context.Context, probe func() context.Context, o op) (*plan.Compiled, *plan.Plan, error) {
	var compiled *plan.Compiled
	err := timed(ctx, "plan.compile", func(context.Context) (err error) {
		compiled, err = plan.Compile(o.req)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	var pl *plan.Plan
	var outcome plancache.Outcome
	err = timed(ctx, "plancache.resolve", func(ctx context.Context) (err error) {
		pl, outcome, err = p.store.Resolve(ctx, compiled.Fingerprint, compiled.TemplateFingerprint, plancache.ResolveFuncs{
			Synthesize: func(ctx context.Context) (pl *plan.Plan, err error) {
				err = timed(ctx, "core.synth", func(ctx context.Context) error { pl, err = compiled.Run(ctx); return err })
				return pl, err
			},
			Capture: func(ctx context.Context) (pl *plan.Plan, t *plan.Template, err error) {
				err = timed(ctx, "core.capture", func(ctx context.Context) error { pl, t, err = compiled.RunCapture(ctx); return err })
				return pl, t, err
			},
			Instantiate: func(ctx context.Context, t *plan.Template) (pl *plan.Plan, err error) {
				err = timed(ctx, "plan.instantiate", func(ctx context.Context) error { pl, err = compiled.Instantiate(ctx, t); return err })
				return pl, err
			},
		})
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	if string(outcome) != o.outcome {
		return nil, nil, fmt.Errorf("outcome %q, the daemon's was %q", outcome, o.outcome)
	}
	if o.kind == "synth" {
		timed(ctx, "plan.encode", func(context.Context) error { plan.Encode(pl); return nil })
	}
	if !p.recording {
		return compiled, pl, nil
	}

	pctx := probe()
	timed(pctx, "ocal.parse", func(context.Context) error { _, err := ocal.ParseFile(o.req.Program); return err })
	if outcome == plancache.Hit {
		return compiled, pl, nil
	}
	ks := compiled.Synth.Keys.Stats()
	p.count["rules.alpha_hits"] += float64(ks.AlphaHits)
	p.count["rules.alpha_misses"] += float64(ks.AlphaMisses)
	p.count["rules.interned_nodes"] += float64(ks.InternedNodes)
	winner, err := ocal.ParseFile(pl.Program)
	if err != nil {
		return nil, nil, err
	}
	arities := map[string]int{}
	for name, in := range compiled.Req.Inputs {
		arities[name] = in.Arity
	}
	timed(pctx, "codegen.generate", func(context.Context) error {
		// An error means the winner uses a construct the generator does
		// not cover; plan.Compiled then serves the plan without C.
		codegen.Generate(winner, codegen.Options{FuncName: "ocas_query", Params: pl.Params,
			InputArity: arities, Output: o.req.Output != ""})
		return nil
	})
	if outcome == plancache.Miss {
		// The search without the capture, on a fresh compile: a Compiled's
		// memo tables are warm after its first run.
		fresh, err := plan.Compile(o.req)
		if err != nil {
			return nil, nil, err
		}
		err = timed(pctx, "core.synth", func(ctx context.Context) error { _, err := fresh.Run(ctx); return err })
		if err != nil {
			return nil, nil, err
		}
	}
	return compiled, pl, nil
}

// execute is the daemon's /execute: resolve, then plan.ExecutePlan. The probe
// repeats what ExecutePlan does inside — input generation, catalog opens,
// lowering, the run without the digest tap — each on its own.
func (p *replayer) execute(ctx context.Context, probe func() context.Context, o op) error {
	compiled, pl, err := p.resolve(ctx, probe, o)
	if err != nil {
		return err
	}
	opts := o.exec
	opts.Cat = p.cat
	var rep *plan.ExecReport
	err = timed(ctx, "plan.execute", func(ctx context.Context) (err error) {
		rep, err = plan.ExecutePlan(ctx, compiled, pl, opts)
		return err
	})
	if err != nil {
		return err
	}
	if o.want != nil && (rep.OutDigest != o.want.OutDigest || (o.want.OutRows >= 0 && rep.OutRows != o.want.OutRows)) {
		return fmt.Errorf("reply (%d rows, %s) differs from the oracle's (%d rows, %s)",
			rep.OutRows, rep.OutDigest, o.want.OutRows, o.want.OutDigest)
	}
	if !p.recording {
		return nil
	}
	p.count["storage.pool_pins"] += float64(rep.Pool.Pins)
	p.count["storage.pool_shrinks"] += float64(rep.Pool.Shrinks)
	p.count["storage.pool_evictions"] += float64(rep.Pool.Evictions)
	p.count["storage.pool_peak_bytes"] = max(p.count["storage.pool_peak_bytes"], float64(rep.Pool.PeakBytes))
	p.count["storage.spills"] += float64(rep.Pool.Spills)
	p.count["storage.spill_bytes"] += float64(rep.Pool.SpillBytes)
	for _, dev := range rep.Devices {
		p.count["storage.read_inits"] += float64(dev.ReadInits)
		p.count["storage.write_inits"] += float64(dev.WriteInits)
		p.count["storage.bytes_read"] += float64(dev.BytesRead)
		p.count["storage.bytes_written"] += float64(dev.BytesWrite)
	}
	p.count["storage.virtual_s"] += rep.VirtualSeconds
	p.count["exec.out_rows"] += float64(rep.OutRows)
	for _, n := range rep.InputRows {
		p.count["exec.in_rows"] += float64(n)
	}
	if len(o.exec.Rows) == 0 && len(o.exec.Inputs) == 0 && rep.PredictedSeconds > 0 && rep.VirtualSeconds > 0 {
		executedNominal := true
		for name, in := range o.req.Inputs {
			executedNominal = executedNominal && rep.InputRows[name] == in.Rows
		}
		if executedNominal {
			p.modelErr[o.entry] = max(rep.PredictedSeconds/rep.VirtualSeconds, rep.VirtualSeconds/rep.PredictedSeconds)
		}
	}
	return p.bareRun(probe(), compiled, pl, o)
}

// bareRun lowers and runs the plan the way plan.RunProgram does, but with a
// sink that only counts rows, timing each step RunProgram does not span.
func (p *replayer) bareRun(ctx context.Context, compiled *plan.Compiled, pl *plan.Plan, o op) error {
	prog, err := ocal.ParseFile(pl.Program)
	if err != nil {
		return err
	}
	sim := storage.NewSim(compiled.H)
	sim.DefaultCPU()
	inputs := map[string]*exec.Table{}
	var scratch *storage.Device
	for idx, in := range compiled.Task.Spec.Inputs {
		dev, err := sim.Device(compiled.Task.InputLoc[in.Name])
		if err != nil {
			return err
		}
		if scratch == nil {
			scratch = dev
		}
		if table, bound := o.exec.Tables[in.Name]; bound {
			var h *catalog.Handle
			err := timed(ctx, "catalog.open", func(context.Context) (err error) {
				h, err = p.cat.OpenTable(table)
				return err
			})
			if err != nil {
				return err
			}
			defer h.Close()
			if inputs[in.Name], err = exec.NewBackedTable(dev, in.Arity, h.Rows(), h); err != nil {
				return err
			}
			continue
		}
		var flat []int32
		if rows, explicit := o.exec.Inputs[in.Name]; explicit {
			for _, row := range rows {
				for _, v := range row {
					flat = append(flat, int32(v))
				}
			}
		} else {
			n := compiled.Task.InputRows[in.Name]
			if over := o.exec.Rows[in.Name]; over > 0 {
				n = over
			}
			timed(ctx, "plan.inputgen", func(context.Context) error {
				flat = generated(in.Arity, n, o.exec.Seed, idx)
				return nil
			})
		}
		tb, err := exec.NewTable(dev, in.Arity, int64(len(flat)/in.Arity)+8)
		if err != nil {
			return err
		}
		if err := tb.Preload(flat); err != nil {
			return err
		}
		inputs[in.Name] = tb
	}
	sink := &exec.Sink{Sim: sim, Bout: 1}
	for name, v := range pl.Params {
		if (strings.HasPrefix(name, "ko") || strings.HasPrefix(name, "bout")) && v > sink.Bout {
			sink.Bout = v
		}
	}
	if out := compiled.Task.Output; out != "" {
		dev, err := sim.Device(out)
		if err != nil {
			return err
		}
		sink.Alloc = func(arity int) (*exec.Table, error) { return exec.NewTable(dev, arity, 0) }
	}
	ram := compiled.H.Root.Size
	if n := compiled.H.Node("ram"); n != nil {
		ram = n.Size
	}
	var lowered *exec.Program
	err = timed(ctx, "exec.lower", func(ctx context.Context) (err error) {
		lowered, err = exec.Lower(prog, exec.LowerOpts{Sim: sim, Inputs: inputs, Params: pl.Params,
			Scratch: scratch, Sink: sink, RAMBytes: ram, Context: ctx})
		return err
	})
	if err != nil {
		return err
	}
	return timed(ctx, "exec.program_run", func(context.Context) error { return lowered.Run() })
}

// declaredSpans are the spans a traced replay records: the benchmark's own,
// one per call into a layer, and the ones the program emits under them.
var declaredSpans = []string{
	"op", "ocal.parse", "plan.compile", "plancache.resolve", "core.capture", "core.synth",
	"plan.instantiate", "plan.encode", "codegen.generate", "plan.execute", "plan.inputgen",
	"catalog.open", "exec.lower", "exec.program_run", "catalog.create", "catalog.append", "catalog.drop",
	"synth.search", "synth.screen", "synth.capture", "synth.optimize", "template.instantiate", "exec.run",
}

// replay re-runs the workload's set-up, its warm cycle and the next
// replayCycles cycles in-process, recording the spans and counters of those
// cycles. No daemon runs meanwhile. m receives the catalog's state after the
// set-up and the probes' timings.
func (r *runner) replay(w *workload, b *bench, m map[string]float64) (*replayer, error) {
	dir := filepath.Join(r.root, buildDir, "replay-"+w.name)
	os.RemoveAll(dir)
	defer os.RemoveAll(dir)
	cat, err := catalog.Open(dir, catalog.Options{})
	if err != nil {
		return nil, err
	}
	defer cat.Close()
	p := &replayer{store: plancache.NewStore(planCacheSize, templateCacheSize), cat: cat, dir: dir,
		dur: map[string]map[string][]float64{}, self: map[string]map[string][]float64{},
		count: map[string]float64{}, modelErr: map[string]float64{}}

	for _, o := range append(append([]op(nil), w.setup(b)...), w.cycle(b, 0)...) {
		if err := p.do(o); err != nil {
			return nil, err
		}
	}
	if st := cat.Stats(); st.Rows > 0 {
		var user float64
		for _, t := range cat.List() { // rows still buffered are in no file yet
			user += float64(t.Rows-t.BufferedRows) * float64(t.Schema.Arity()) * 4
		}
		disk, manifest := dirBytes(dir)
		m["catalog.space_amp"] = float64(disk) / user
		m["catalog.manifest_bytes"] = float64(manifest)
		m["catalog.segments"] = float64(st.Segments)
	}

	// A daemon's heap holds no request bodies: drop the set-up's, or the
	// replay collects garbage several times less often than the daemon and
	// runs allocation-heavy plans up to a third faster.
	clear(b.memo)
	runtime.GC()

	before, flushes := p.store.Stats(), cat.Stats().SegmentFlushes
	p.recording = true
	for i := 1; i <= replayCycles; i++ {
		for _, o := range w.cycle(b, i) {
			if err := p.do(o); err != nil {
				return nil, err
			}
		}
	}
	p.recording = false
	after := p.store.Stats()
	p.count["plancache.hits"] = float64(after.Plans.Hits - before.Plans.Hits)
	p.count["plancache.misses"] = float64(after.Plans.Misses - before.Plans.Misses)
	p.count["plancache.instantiations"] = float64(after.Instantiations - before.Instantiations)
	p.count["plancache.guard_rejects"] = float64(after.GuardRejects - before.GuardRejects)
	p.count["plancache.evictions"] = float64(after.Plans.Evictions - before.Plans.Evictions)
	p.count["catalog.flushes"] = float64(cat.Stats().SegmentFlushes - flushes)
	return p, p.probes(m)
}

// layerMetrics derives the per-layer metrics from the replay's spans and
// counters, the untraced window's samples and the daemon's own spans. Times
// are the geometric mean over entries of each entry's median, like op_ms;
// counts are per cycle.
func (p *replayer) layerMetrics(m map[string]float64, dr *driver, daemon map[string]map[string][]float64) {
	layerTime := func(spans map[string]map[string][]float64, name string, scale float64) float64 {
		var medians []float64
		for _, byName := range spans {
			if s := byName[name]; len(s) > 0 {
				medians = append(medians, median(s)*scale)
			}
		}
		return geomean(medians)
	}
	m["ocal.parse_us"] = layerTime(p.dur, "ocal.parse", 1e3)
	m["plan.compile_us"] = max(0, layerTime(p.dur, "plan.compile", 1e3)-m["ocal.parse_us"])
	m["plan.encode_us"] = layerTime(p.dur, "plan.encode", 1e3)
	m["plan.instantiate_ms"] = layerTime(p.dur, "plan.instantiate", 1)
	m["plan.inputgen_ms"] = layerTime(p.dur, "plan.inputgen", 1)
	m["plan.execute_ms"] = layerTime(p.dur, "plan.execute", 1)
	m["plancache.resolve_us"] = layerTime(p.self, "plancache.resolve", 1e3)
	m["core.capture_ms"] = layerTime(p.dur, "core.capture", 1)
	m["core.synth_ms"] = layerTime(p.dur, "core.synth", 1)
	m["core.self_ms"] = layerTime(p.self, "core.capture", 1)
	m["rules.search_ms"] = layerTime(p.dur, "synth.search", 1)
	m["cost.screen_ms"] = layerTime(p.dur, "synth.screen", 1)
	m["opt.optimize_ms"] = layerTime(p.dur, "synth.optimize", 1)
	m["codegen.generate_us"] = layerTime(p.dur, "codegen.generate", 1e3)
	m["exec.lower_us"] = layerTime(p.dur, "exec.lower", 1e3)
	m["exec.run_ms"] = layerTime(p.dur, "exec.program_run", 1)
	m["catalog.append_ms"] = layerTime(p.dur, "catalog.append", 1)
	m["catalog.open_us"] = layerTime(p.dur, "catalog.open", 1e3)

	// Per entry: what ExecutePlan spends outside the steps timed on their
	// own (re-parse, the per-row SHA-256 bag digest, the report); what the
	// service adds around the in-process path; how close the replay's
	// ExecutePlan is to the daemon's own execute span.
	var report, service, ratio, handler, all []float64
	var runSeconds float64
	fmt.Println("   entry         client ms   daemon handler   replay op | daemon execute   replay execute")
	for _, entry := range slices.Sorted(maps.Keys(p.dur)) {
		spans := p.dur[entry]
		fmt.Printf("   %-12s %10.4f %16.4f %11.4f | %14.4f %16.4f\n", entry, median(dr.samples[entry]),
			median(daemon[entry]["handler"]), median(spans["op"]),
			median(daemon[entry]["execute"]), median(spans["plan.execute"]))
		if s := spans["plan.execute"]; len(s) > 0 {
			inside := 0.0
			for _, name := range []string{"plan.inputgen", "catalog.open", "exec.lower", "exec.program_run"} {
				// One span per generated or opened input: sum them per op.
				inside += median(spans[name]) * float64(len(spans[name])) / float64(len(s))
			}
			report = append(report, max(0, median(s)-inside))
			runSeconds += median(spans["exec.program_run"]) / 1e3
			if ds := daemon[entry]["execute"]; len(ds) > 0 {
				ratio = append(ratio, median(s)/median(ds))
			}
		}
		if dr.headline[entry] {
			service = append(service, median(dr.samples[entry])-median(spans["op"]))
		}
	}
	m["plan.report_ms"] = geomean(report)
	m["exec.replay_ratio"] = geomean(ratio)
	m["service.self_ms"] = mean(service)
	m["service.decode_csv_ms"] = median(dr.samples["csv"]) - median(p.dur["csv"]["catalog.append"])
	m["service.decode_json_ms"] = median(dr.samples["json"]) - median(p.dur["json"]["catalog.append"])
	for entry, s := range dr.samples {
		if dr.headline[entry] {
			handler = append(handler, median(daemon[entry]["handler"]))
			all = append(all, s...)
		}
	}
	m["service.handler_ms"] = geomean(handler)
	// Throughput of the window: ungated, see endToEnd.
	window := max(dr.elapsed, 1e-9)
	m["service.ops_s"] = float64(dr.ops) / window
	m["service.mrows_s"] = float64(dr.rows) / window / 1e6
	// The highest percentile with at least ten samples beyond it.
	m["service.p99_ms"] = 0
	if sort.Float64s(all); len(all) >= 1000 {
		m["service.p99_ms"] = all[len(all)*99/100]
	}

	for name, v := range p.count {
		m[name] = v / replayCycles
	}
	m["storage.pool_peak_bytes"] = p.count["storage.pool_peak_bytes"]
	if runSeconds > 0 {
		m["exec.mrows_s"] = p.count["exec.in_rows"] / replayCycles / runSeconds / 1e6
	}
	delete(m, "exec.in_rows")
	var errs []float64
	for _, entry := range slices.Sorted(maps.Keys(p.modelErr)) { // a fixed summation order: the metric repeats exactly
		errs = append(errs, p.modelErr[entry])
	}
	m["cost.model_err"] = geomean(errs)
}

// probes times three calls on their own: a span on a live trace and, when
// the workload left a table in the catalog, a strided read of the largest one
// and the write of one batch of its rows as a segment.
func (p *replayer) probes(m map[string]float64) error {
	tr := obs.NewTrace(obs.NewID())
	ctx := obs.ContextWith(context.Background(), tr.StartSpan("probe", nil))
	const spans = 20000
	start := time.Now()
	for i := 0; i < spans; i++ {
		_, sp := obs.Start(ctx, "obs.span")
		sp.Attr("i", i)
		sp.End()
	}
	m["obs.span_ns"] = float64(time.Since(start).Nanoseconds()) / spans

	var big catalog.TableInfo
	for _, t := range p.cat.List() {
		if t.Rows*int64(t.Schema.Arity()) > big.Rows*int64(big.Schema.Arity()) {
			big = t
		}
	}
	if big.Rows == 0 {
		return nil
	}
	// The replay is over: cut what the table still buffers into a segment,
	// so the read below is a segment read at any scale.
	if err := p.cat.Flush(big.Name); err != nil {
		return err
	}
	h, err := p.cat.OpenTable(big.Name)
	if err != nil {
		return err
	}
	defer h.Close()
	arity := big.Schema.Arity()
	cols := make([][]int32, arity)
	for c := range cols {
		cols[c] = make([]int32, ingestBatchRows)
	}
	var reads, writes []float64
	for rep := 0; rep < 5; rep++ {
		start := time.Now()
		for lo := int64(0); lo < h.Rows(); lo += ingestBatchRows {
			if err := h.ReadCols(cols, lo, min(ingestBatchRows, h.Rows()-lo)); err != nil {
				return err
			}
		}
		reads = append(reads, float64(time.Since(start))/1e6)
	}
	m["storage.segment_read_ms"] = median(reads)

	flat := make([]int32, min(ingestBatchRows, h.Rows())*int64(arity))
	if err := h.ReadRecords(flat, 0, int64(len(flat)/arity)); err != nil {
		return err
	}
	for rep := 0; rep < 5; rep++ {
		start := time.Now()
		if err := storage.WriteSegment(filepath.Join(p.dir, "probe.seg"), arity, 0, flat); err != nil {
			return err
		}
		writes = append(writes, float64(time.Since(start))/1e6)
	}
	m["storage.segment_write_ms"] = median(writes)
	return nil
}

// writeTraces leaves the replay's spans next to the per-layer table.
func (p *replayer) writeTraces(workload string) error {
	if err := os.MkdirAll("out", 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(p.traces)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("out", "trace-"+workload+".json"), raw, 0o644)
}

// dirBytes sums the segment files and the manifest of a catalog directory.
func dirBytes(dir string) (total, manifest int64) {
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			continue
		}
		switch {
		case e.Name() == "manifest.json":
			manifest = info.Size()
			total += info.Size()
		case strings.HasSuffix(e.Name(), ".seg"):
			total += info.Size()
		}
	}
	return total, manifest
}

func mean(s []float64) float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}
