// Command ocas is the Out-of-Core Algorithm Synthesizer CLI: it reads a
// naive OCAL program and a memory hierarchy description, synthesizes the
// hierarchy-specialized algorithm, and prints the derivation, the tuned
// parameters, the cost estimates and (optionally) generated C code.
//
// Usage:
//
//	ocas -prog join.ocal -hier hdd-ram [-ram BYTES] \
//	     -in R=hdd:1048576,S=hdd:65536 [-out hdd] \
//	     [-commutative] [-depth 6] [-space 4000] \
//	     [-workers 0] \
//	     [-c] [-json] \
//	     [-run [-seed 1] [-pool 0] [-exec-workers 1] [-explain] \
//	           [-data DIR -table R=mytable,...]]
//
// Built-in hierarchies: hdd-ram, hdd-ram-cache, two-hdd, hdd-flash; a JSON
// file path is accepted too.
//
// With -json, ocas emits the canonical machine-readable plan encoding of
// internal/plan instead of the human-readable report — byte-identical to
// what the ocasd service serves for the same request, fingerprint included.
// Both output modes print one *plan.Plan, built through plan.Compile exactly
// as the daemon builds it (same validation, same knob bounds). The plan
// carries no C: -c renders it from that plan on demand (the human report
// only; -c with -json is a usage error).
// Every invocation searches: ocas keeps nothing between runs (the plan and
// template caches belong to ocasd).
//
// With -run, the synthesized algorithm executes on the storage simulator.
// Inputs are deterministically generated from -seed by default; -data DIR
// plus -table bindings read them from a durable table catalog instead (the
// same segment files ocasd ingests into), with byte-identical digests,
// ledgers and virtual clock. A bound input executes over the table's actual
// rows; its -in rows field only sizes the cost model during synthesis.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"ocas/internal/catalog"
	"ocas/internal/codegen"
	"ocas/internal/plan"
)

func main() {
	var (
		progPath  = flag.String("prog", "", "path to the naive OCAL program (- for stdin)")
		hierName  = flag.String("hier", plan.DefaultHier, "hierarchy: hdd-ram|hdd-ram-cache|two-hdd|hdd-flash or a JSON file")
		ramSize   = flag.Int64("ram", plan.DefaultRAM, "RAM size in bytes for built-in hierarchies")
		inputs    = flag.String("in", "", "inputs as name=node:rows[:arity], comma separated")
		output    = flag.String("out", "", "output node (empty = consumed by CPU)")
		commut    = flag.Bool("commutative", true, "inputs may be reordered (enables hash-part)")
		depth     = flag.Int("depth", plan.DefaultDepth, "maximum derivation length")
		space     = flag.Int("space", plan.DefaultSpace, "maximum search space size")
		workers   = flag.Int("workers", 0, "synthesis worker pool size (0 = GOMAXPROCS)")
		emitC     = flag.Bool("c", false, "render C code from the synthesized plan, after the report (not with -json: the plan encoding carries no C)")
		asJSON    = flag.Bool("json", false, "emit the canonical plan encoding (identical to the ocasd service response)")
		run       = flag.Bool("run", false, "execute the synthesized algorithm on the storage simulator with generated inputs")
		seed      = flag.Int64("seed", 1, "input generator seed (-run)")
		poolB     = flag.Int64("pool", 0, "executor buffer pool budget in bytes, 0 = the RAM size (-run)")
		execW     = flag.Int("exec-workers", 1, "executor worker count for morsel-parallel execution (-run); never changes results, only wall-clock")
		explain   = flag.Bool("explain", false, "with -run: print the per-operator EXPLAIN ANALYZE tree (actuals plus est/act drift)")
		dataDir   = flag.String("data", "", "durable table catalog directory for -run -table bindings (the directory ocasd -data ingests into)")
		tableSpec = flag.String("table", "", "with -run: read inputs from durable tables as input=table, comma separated (requires -data)")
	)
	flag.Parse()
	if *progPath == "" || *inputs == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *emitC && *asJSON {
		fmt.Fprintln(os.Stderr, "usage: ocas -c prints C after the human report; the -json plan encoding carries none")
		os.Exit(2)
	}

	var src []byte
	var err error
	if *progPath == "-" {
		src, err = io.ReadAll(os.Stdin)
		if err != nil {
			die(fmt.Errorf("reading stdin: %w", err))
		}
	} else {
		src, err = os.ReadFile(*progPath)
		if err != nil {
			die(err)
		}
	}

	req := plan.Request{
		Program:     string(src),
		Inputs:      map[string]plan.Input{},
		Output:      *output,
		Commutative: commut,
		Depth:       *depth,
		Space:       *space,
		Workers:     *workers,
	}
	if _, ok := plan.BuiltinHierarchy(*hierName, *ramSize); ok {
		req.Hier, req.RAM = *hierName, *ramSize
	} else if req.Hierarchy, err = os.ReadFile(*hierName); err != nil {
		die(fmt.Errorf("unknown hierarchy %q and not a readable file: %w", *hierName, err))
	}
	for _, part := range strings.Split(*inputs, ",") {
		name, rest, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			die(fmt.Errorf("bad input spec %q", part))
		}
		fields := strings.Split(rest, ":")
		if len(fields) < 2 || len(fields) > 3 {
			die(fmt.Errorf("bad input spec %q (want name=node:rows[:arity])", part))
		}
		if _, dup := req.Inputs[name]; dup {
			die(fmt.Errorf("bad input spec %q (input %s is given twice)", part, name))
		}
		in := plan.Input{Node: fields[0]}
		if in.Rows, err = strconv.ParseInt(fields[1], 10, 64); err != nil {
			die(err)
		}
		if len(fields) == 3 {
			if in.Arity, err = strconv.Atoi(fields[2]); err != nil {
				die(err)
			}
		}
		req.Inputs[name] = in
	}
	c, err := plan.Compile(req)
	if err != nil {
		die(err)
	}
	tables, cat, err := openTableBindings(*dataDir, *tableSpec, *run)
	if err != nil {
		die(err)
	}

	start := time.Now()
	p, err := c.Run(context.Background())
	if err != nil {
		die(err)
	}
	elapsed := time.Since(start)
	var rep *plan.ExecReport
	if *run {
		rep, err = plan.ExecutePlan(context.Background(), c, p,
			plan.ExecOptions{Seed: *seed, PoolBytes: *poolB, ExecWorkers: *execW,
				Explain: *explain, Tables: tables, Cat: cat})
		if err != nil {
			die(err)
		}
	}

	if *asJSON {
		if !*run {
			os.Stdout.Write(plan.Encode(p))
			return
		}
		// -run -json: the canonical plan plus the execution report. (The
		// bare -json output stays byte-identical to the ocasd response.)
		out := struct {
			Plan *plan.Plan       `json:"plan"`
			Exec *plan.ExecReport `json:"exec"`
		}{p, rep}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			die(err)
		}
		return
	}

	fmt.Println("== hierarchy ==")
	fmt.Print(c.H.String())
	fmt.Println("== specification ==")
	fmt.Println(p.Spec)
	fmt.Printf("   estimated cost: %.6g s\n", p.SpecSeconds)
	fmt.Println("== synthesized algorithm ==")
	fmt.Println(p.Program)
	fmt.Printf("   derivation:     %s\n", strings.Join(p.Derivation, " -> "))
	fmt.Printf("   parameters:     %v\n", p.Params)
	fmt.Printf("   estimated cost: %.6g s (%.1fx better)\n", p.Seconds, p.Speedup)
	fmt.Printf("   search space:   %d programs, %d steps, synthesized in %s\n",
		p.SearchSpace, len(p.Derivation), elapsed)

	if *emitC {
		csrc, err := codegen.Render(c, p)
		if err != nil {
			die(fmt.Errorf("-c: %w", err))
		}
		fmt.Println("== generated C ==")
		fmt.Print(csrc)
	}

	if rep != nil {
		fmt.Println("== execution ==")
		fmt.Printf("   input rows:     %v\n", rep.InputRows)
		if rep.Result != "" {
			fmt.Printf("   result:         %s\n", rep.Result)
		}
		fmt.Printf("   output rows:    %d (digest %s)\n", rep.OutRows, rep.OutDigest[:16])
		fmt.Printf("   measured cost:  %.6g s (estimated %.6g s)\n",
			rep.VirtualSeconds, p.Seconds)
		for _, name := range sortedKeys(rep.Devices) {
			d := rep.Devices[name]
			fmt.Printf("   %-8s reads: %d inits / %d B   writes: %d inits / %d B\n",
				name, d.ReadInits, d.BytesRead, d.WriteInits, d.BytesWrite)
		}
		fmt.Printf("   buffer pool:    peak %d B of %d B budget, %d spill files (%d B spilled)\n",
			rep.Pool.PeakBytes, rep.Pool.Budget, rep.Pool.Spills, rep.Pool.SpillBytes)
		if rep.ExecWorkers > 1 {
			fmt.Printf("   exec workers:   %d\n", rep.ExecWorkers)
			for _, wl := range rep.Workers {
				fmt.Printf("     worker %d:     %d tasks, %.6g s, read %d B, wrote %d B\n",
					wl.Worker, wl.Tasks, wl.Seconds, wl.BytesRead, wl.BytesWrite)
			}
		}
		if rep.Explain != nil {
			fmt.Println("== explain analyze ==")
			fmt.Print(plan.RenderExplain(rep.Explain))
		}
	}
}

func sortedKeys(m map[string]plan.DeviceReport) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// openTableBindings resolves -data and -table into the ExecOptions fields
// that make -run read bound inputs from durable catalog segments. The
// catalog stays open for the run and is released on process exit; the read
// path never mutates it.
func openTableBindings(dataDir, spec string, run bool) (map[string]string, *catalog.Catalog, error) {
	if spec == "" {
		return nil, nil, nil
	}
	if !run {
		return nil, nil, fmt.Errorf("-table requires -run")
	}
	if dataDir == "" {
		return nil, nil, fmt.Errorf("-table requires -data DIR (the catalog directory)")
	}
	tables := map[string]string{}
	for _, part := range strings.Split(spec, ",") {
		name, tbl, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" || tbl == "" {
			return nil, nil, fmt.Errorf("bad -table spec %q (want input=table)", part)
		}
		tables[name] = tbl
	}
	cat, err := catalog.Open(dataDir, catalog.Options{})
	if err != nil {
		return nil, nil, fmt.Errorf("open catalog %s: %w", dataDir, err)
	}
	return tables, cat, nil
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "ocas:", err)
	os.Exit(1)
}
