// Package ocas is a Go reproduction of "Automatic Synthesis of Out-of-Core
// Algorithms" (Klonatos, Nötzli, Spielmann, Koch, Kuncak; SIGMOD 2013).
//
// The implementation lives under internal/: the OCAL language and its
// hash-cons interner (internal/ocal), the reference interpreter
// (internal/interp), the memory-hierarchy model (internal/memory), the
// symbolic arithmetic engine with its compiled formula evaluator
// (internal/symbolic), the cost estimator and per-run estimate memo
// (internal/cost), the transformation rules, search strategies and
// alpha-key Keyer (internal/rules), the non-linear parameter optimizer
// (internal/opt), the OCAS synthesizer (internal/core), the C code generator
// (internal/codegen), the storage simulator and execution engine
// (internal/storage, internal/exec), the durable table catalog
// (internal/catalog), the evaluation harness and bench
// report (internal/experiments), and the serving stack (internal/plan,
// internal/plancache, internal/service). Command-line entry points are
// under cmd/ and runnable examples under examples/. ARCHITECTURE.md maps
// the layering, the request data flow, the charge model and the
// determinism contract in one place.
//
// # Search strategies and parallelism
//
// The synthesis pipeline is parallel end to end: frontier expansion in the
// rewrite search, per-candidate cost estimation, and per-candidate
// parameter optimization all fan out over a worker pool sized by
// core.Synthesizer.Workers (default GOMAXPROCS). Results are deterministic
// for any worker count: expansions are merged in frontier order against the
// alpha-renaming dedup set, fresh-name counters advance level-
// synchronously, and winners are picked by a sequential scan, so two runs —
// parallel or not — print the identical winning candidate.
//
// The search itself is pluggable through rules.SearchStrategy:
//
//   - rules.Exhaustive is the paper's full breadth-first enumeration, the
//     default and the semantics-preserving baseline.
//   - rules.Beam keeps only the Width best-ranked programs per depth level
//     (ranked by a cheap cost pre-estimate when driven by core), bounding
//     the exponential frontier for deeper derivations.
//
// Both are exposed as -strategy/-beam/-workers on cmd/ocas and
// cmd/ocasbench.
//
// # The memoized hot path
//
// Everything identity-shaped in the search is answered through one
// per-synthesis hash-cons table. ocal.Interner assigns every distinct
// program structure (granularity: canonical-printing equality, what the
// search has always deduplicated on) one INode with an integer identity;
// rules.Keyer caches each node's alpha-normal form, so the frontier dedup
// key of a re-derived program is an integer lookup instead of a
// whole-program renaming and re-printing; cost.Memo shares one cost
// formula per interned program between the beam's pre-estimates and the
// screening pass; and symbolic.Compile flattens cost formulas onto indexed
// slot arrays — with identity-shared subexpressions evaluated once per
// environment — for the optimizer's and screener's evaluation loops.
// Memoization never changes results: interning is exactly as fine as the
// historical string dedup, and compiled evaluation performs Expr.Eval's
// float operations in the same order, so winners and plan fingerprints are
// bit-identical to the unmemoized pipeline. Memo lifetime is one synthesis
// (plan.Compile injects a per-request Keyer shared with the fingerprint);
// core.Synthesis.Memo reports the cache counters and ocasbench -json
// exports them per Table 1 row. Performance is judged end to end by the
// repo benchmark (benchmark/README.md), not by that report.
//
// # Execution: the compositional batch-streaming executor
//
// internal/exec runs synthesized programs against the storage simulator
// through a streaming operator protocol: every physical operator —
// scan, filter/project, blocked nested-loop join (with cache tiling),
// GRACE hash join, external merge sort, streaming unfoldR, foldL
// aggregation — implements Open(*Ctx) / Next(*Batch) / Close() over
// struct-of-arrays batches: one []int32 vector per column plus an
// optional selection vector, flowing down chains as views of spill
// column stripes rather than row copies. Simulated charges are computed
// from logical record positions, never the physical layout, so the
// columnar path is invisible to the determinism contract. exec.Lower is recursive and
// compositional: operator inputs may themselves be lowered
// subexpressions piped through the batch protocol, so any synthesized
// operator tree executes, not just whole programs matching a known
// shape. Base-table inputs are fused into their consuming operator
// (direct blocked device reads at the tuned block size), preserving the
// analytic charge profile of the classic single-shape plans.
//
// The layering below exec is internal/storage: the discrete-event device
// simulator (seeks, flash erases, per-byte transfer against a virtual
// clock) plus the executor's memory substrate — storage.BufferPool pins
// every resident working block (scan frames, join outer blocks,
// partition write buffers, merge cursors) against the hierarchy's RAM
// budget with LRU eviction of unpinned frames, and storage.Spill holds
// device-resident runs (relations, hash partitions, sort runs,
// materialized intermediates) whose appends and reads charge
// InitCom/UnitTr on the owning device's ledger. Budgets degrade
// gracefully: a pin that cannot be granted in full shrinks (never below
// one row), so tight budgets produce smaller blocks and honest extra
// transfer initiations rather than failures.
//
// Per-row bodies run as compiled kernels, or through their
// interp-compiled closure where the kernel grammar does not cover them
// (see ARCHITECTURE.md, "Kernels and the fallback leaf").
//
// internal/plan's RunProgram/ExecutePlan is the shared execution door:
// cmd/ocas -run, the ocasd POST /execute endpoint, and the calibration
// columns of the bench report (estOverAct, execSecs) all
// execute plans through it, reporting virtual-clock seconds, per-device
// ledgers, buffer-pool stats and a SHA-256 digest of the output bag.
//
// # Morsel-driven parallel execution
//
// Data-parallel phases execute partition-wise on a bounded set of worker
// lanes (LowerOpts.ExecWorkers / plan.ExecOptions.ExecWorkers /
// -exec-workers): partitioned scans and projections split base tables
// into morsel sections at the root, the GRACE hash join partitions its
// inputs with morsel-parallel exchange tasks and joins its buckets
// partition-wise, and the external sort forms and merges runs in
// parallel record sections gated by a streamed final merge. exec.Gather
// merges the streams of concurrently driven partition subtrees;
// exec.Exchange repartitions any input into per-partition spill chains.
//
// The determinism contract: partition degrees are functions of the plan
// (tuned block sizes, data sizes, pool budget), never of the worker
// count. Every partition task charges a private storage.Acct — seek and
// erase detection is stream-relative, device allocation is
// mutex-guarded, spill files are single-writer — and tasks fold back
// into their parent strand at phase barriers in partition order — so the
// output digest, the per-device ledgers and the virtual clock are
// identical for every worker count; only wall-clock changes. Streams are
// bags (merge order is completion order, row order scheduling-dependent)
// unless an order-sensitive consumer — a fold, a streaming merge — sits
// above a parallel subtree, in which case lowering switches the Gather to
// ordered partition-by-partition delivery and the consumer's result is
// worker-count-invariant too. Scratch spills are registered per run and
// freed on completion or cancellation, so an abandoned /execute releases
// its frames and device space. The service admits /execute by
// worker slots (an execution holding W workers takes W slots of a
// GOMAXPROCS-sized pool) and surfaces executor counters on /stats.
//
// # Durable tables: catalog and columnar segments
//
// internal/catalog gives inputs a home between requests: named tables
// with typed int32 column schemas and a declared sort key, registered in
// a versioned manifest.json written atomically (temp file + rename) on
// every mutation. Ingested rows buffer per table and flush as immutable
// columnar segment files — a PAX-style layout of fixed-size row chunks
// stored column-major within the chunk, read with plain file reads by
// storage.Segment. Each flushed segment is a stably key-sorted run with
// recorded key bounds; Catalog.Close flushes remainders so graceful
// shutdown loses nothing.
// Readers take snapshot Handles (open segment readers plus a copy of the
// buffered tail) that stay consistent under concurrent ingest and
// survive a Drop, unlink-style.
//
// The catalog sits between plan and storage (plan -> catalog ->
// storage): a bound input becomes an exec.Table whose spill is backed by
// the snapshot handle, installed uncharged and materialized lazily, so
// segment reads charge InitCom/UnitTr through exactly the accounting
// path generated inputs use. Digest, ledgers and virtual clock are
// byte-identical between generated and durable runs of the same rows for
// any worker count (TestDurableScanDifferential,
// TestBackedSpillChargesLikePreload, TestExecuteFromDurableTable).
// Bindings are wired by the server or CLI — ocasd -data DIR enables
// POST/GET/DELETE /tables and exec.tables on /execute; ocas -run -data
// DIR -table input=table is the CLI parity path.
//
// # Serving: ocasd and the plan cache
//
// cmd/ocasd is the synthesis daemon — the synthesize-once/serve-many
// layer. Its HTTP API (internal/service) exposes POST /synthesize,
// GET /plans/{fingerprint}, GET /healthz and GET /stats, with request
// validation, admission control bounding concurrent synthesis jobs, and
// per-request timeouts backed by context plumbing through
// core.Synthesizer.SynthesizeCtx and both rules.SearchStrategy
// implementations (a cancelled request stops the search mid-chunk).
//
// Plans are memoized in internal/plancache, a content-addressed cache
// keyed by the internal/plan fingerprint: SHA-256 over the
// alpha-normalized program, the canonical hierarchy JSON, the input
// placement, and the search knobs — worker counts excluded, since the
// pipeline is deterministic for any worker count. The cache is
// LRU-bounded, deduplicates identical in-flight requests down to one
// synthesis (singleflight with waiter refcounting), and optionally
// persists to JSON across restarts.
//
// Above the full-key cache sits the template tier. Every request also
// carries a template fingerprint hashing only its shape — the
// alpha-normalized program, hierarchy topology, placement and search
// knobs, with input cardinalities and device constants left free. A
// plan.Template captures what a synthesis learned that survives a size
// change: the explored search space, every member's symbolic cost
// formulas (cardinalities are free variables bound at evaluation time),
// and a beam's pruning trace. plan.Compiled.Instantiate re-binds the new
// sizes into the precompiled formulas and re-runs only screening and
// parameter optimization, producing a plan byte-identical to a cold
// synthesis — milliseconds instead of seconds. Guards keep the tier
// honest: hierarchy constants, the printed specification and the beam's
// recorded prunes are re-verified per instantiation, and any divergence
// (plan.ErrTemplateStale) falls back to a full search whose fresh
// capture replaces the template. ocasd enables the tier by default
// (-template-cache, 0 disables; /synthesize answers X-Ocas-Cache:
// template-hit) and -persist snapshots both tiers; cmd/ocas -json takes
// a -template-cache FILE to amortize across CLI invocations.
//
// internal/plan also defines the canonical JSON plan encoding shared by
// the service and cmd/ocas -json: the same request produces
// byte-identical plan bytes from both, covering the derivation, tuned
// parameters, symbolic cost formula and generated C. The
// examples/*/query.ocal + request.json pairs form the service smoke
// corpus exercised by the tests and the CI ocasd-smoke job.
//
// # Observability
//
// internal/obs is the zero-dependency (stdlib-only) observability layer
// every other layer reports into: a metrics registry rendered in the
// Prometheus text format (GET /metrics — request-latency histograms per
// endpoint split by cache outcome, plus callback-backed views over the
// same counters /stats serves) and a per-request trace model. Each
// request gets an ID echoed as X-Ocas-Request-Id; its trace spans the
// compile, cache-resolution, synthesis-phase and execution stages,
// carrying wall-clock durations and the simulator's virtual-clock
// deltas side by side. Finished traces land in a bounded ring
// (GET /traces, GET /traces/{id}) and optionally a JSONL file. All obs
// types are nil-safe no-ops, so instrumentation stays off the hot path
// when disabled; service.Config.DisableObs is the baseline the CI
// overhead guard compares against (<3% on the warm-template and
// execute paths).
//
// EXPLAIN ANALYZE (ExecOptions.Explain; ocas -run -explain; ?explain on
// POST /execute) wraps each lowered operator and reports a per-operator
// tree of actuals — rows, batches, simulated seconds, init events,
// bytes, pool pins, spills — next to the cost model's estimate for the
// same subtree and their est/act drift ratios. Estimates are evaluated
// at the executed cardinalities, so a drift far from 1 flags either
// cost-constant miscalibration or a plan tuned for different sizes than
// it ran on. The tree is byte-identical for exec workers 1-8 once wall
// nanos are normalized out (plan.NormalizeExplain); counters are
// cumulative down the tree, and instrumentation provably leaves
// digests, ledgers and the virtual clock untouched.
//
// # Test suites
//
// Beyond the per-package unit tests: internal/exec's differential harness
// (go test ./internal/exec -run Differential) executes randomized
// scan/join/sort/fold/composed programs against both the operator trees
// and the reference interpreter, swept over batch sizes and buffer-pool
// budgets that force frame shrinking and spilling, and
// internal/plan's TestExamplesDifferential does the same end-to-end for
// every examples/ corpus request (synthesize, execute, bag-compare
// against the interpreted specification; see ARCHITECTURE.md for what
// holds kernels to the oracle and pins their charges);
// internal/ocal carries a parser
// fuzz target (go
// test -fuzz=FuzzParse ./internal/ocal) and internal/service a hierarchy
// fuzz target (go test -fuzz=FuzzHierarchyJSON ./internal/service) plus
// a template fuzz target (go test -fuzz=FuzzTemplateRequest
// ./internal/service) driving the warm path with arbitrary size fields;
// internal/plan's template-differential harness
// (go test ./internal/plan -run TestTemplate) sweeps ~50 randomized
// request shapes across cardinality regimes asserting every
// instantiation byte-equals a cold synthesis and that the staleness
// guards actually fire;
// internal/core and internal/rules assert parallel-versus-sequential
// equivalence, which is exercised with -race in CI; the memoization
// invariants are property-tested (interned identity == print equality in
// internal/ocal, AlphaID equality == alpha-equivalence in internal/rules)
// and the per-synthesis memo tables are proven race-safe under -workers N
// and leak-free across sequential runs and ocasd requests; and the serving
// stack pins fingerprint stability, singleflight semantics, persistence
// round trips, service/CLI byte-identity over the examples corpus, and
// prompt cancellation (go test ./internal/plan ./internal/plancache
// ./internal/service).
package ocas
