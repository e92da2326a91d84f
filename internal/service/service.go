// Package service is the HTTP layer of ocasd, the synthesis daemon: a JSON
// API that memoizes synthesis behind the content-addressed plan cache.
//
// Endpoints:
//
//	POST /synthesize        — body: a plan.Request; response: the canonical
//	                          plan bytes (byte-identical to cmd/ocas -json).
//	                          Headers: X-Ocas-Cache: hit|miss|shared|
//	                          template-hit, X-Ocas-Elapsed: wall time of
//	                          this request.
//	GET  /plans/{fp}        — a previously synthesized plan by fingerprint.
//	GET  /healthz           — readiness report: uptime, build info, cache
//	                          tier occupancy, worker slots.
//	GET  /stats             — cache and request counters as JSON.
//	GET  /metrics           — the same counters plus per-endpoint latency
//	                          histograms in the Prometheus text format.
//	GET  /traces            — recent request traces (bounded ring).
//	GET  /traces/{id}       — one trace by request ID (the value echoed in
//	                          X-Ocas-Request-Id).
//
// Admission control bounds the number of in-flight synthesis jobs (each of
// which fans out over the internal/par worker pool); requests beyond the
// bound wait until a slot frees or their timeout fires. Cache hits and
// singleflight joins bypass admission entirely — only a request that would
// start a new synthesis needs a slot.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ocas/internal/catalog"
	"ocas/internal/obs"
	"ocas/internal/plan"
	"ocas/internal/plancache"
)

// Config tunes a Server. Zero values mean defaults.
type Config struct {
	// CacheSize bounds the plan cache (default 1024 plans).
	CacheSize int
	// TemplateCacheSize bounds the template tier: reusable synthesis
	// captures keyed by request shape, so that requests differing only in
	// input cardinalities skip the search (see internal/plan's template
	// documentation; default 64 templates).
	TemplateCacheSize int
	// MaxInflight bounds concurrent full searches (default 2). Hits,
	// singleflight joins and template instantiations take no slot, and
	// executions are admitted by the worker-slot pool (MaxWorkerSlots).
	MaxInflight int
	// ExecWorkers is the executor worker count for /execute requests that
	// do not choose one (default 1: single-worker).
	ExecWorkers int
	// MaxWorkerSlots is the total executor worker-slot pool (default
	// GOMAXPROCS). An /execute running W workers holds W slots for its
	// whole execution, so concurrent requests cannot oversubscribe the
	// box no matter how many are admitted; requests asking for more than
	// the pool are clamped.
	MaxWorkerSlots int
	// Timeout is the per-request synthesis/execution budget (default 60s).
	// A request may lower it with the timeoutMs body field, never raise it.
	Timeout time.Duration
	// MaxBodyBytes bounds the request body (default 1 MiB; /execute allows
	// 16x for explicit input rows).
	MaxBodyBytes int64
	// MaxExecRows bounds the per-input row count /execute will run
	// (default 1 << 20). Requests whose effective sizes exceed it must
	// override them with the exec.rows field.
	MaxExecRows int64
	// Catalog enables the durable table layer: the /tables endpoints and
	// exec.tables bindings on /execute resolve against it. nil disables
	// both (the endpoints answer 503). ocasd opens one from its -data
	// directory and closes it (flushing buffered rows) on shutdown.
	Catalog *catalog.Catalog
	// Workers is the synthesis worker count for requests that leave it
	// unset.
	Workers int

	// TraceRing bounds the in-memory ring of recent request traces served
	// on /traces (default 256).
	TraceRing int
	// TraceLog, when set, receives every finished trace as one JSON line
	// (an opt-in JSONL trace log).
	TraceLog io.Writer
	// AccessLog, when set, receives one structured line per request with
	// the request ID, status, latency and cache outcome.
	AccessLog *slog.Logger
}

// Metrics are the service counters exposed on /stats (cache counters come
// from the plan cache itself).
type Metrics struct {
	Requests   int64 `json:"requests"`
	Errors     int64 `json:"errors"`     // 4xx validation failures
	Timeouts   int64 `json:"timeouts"`   // requests that hit their deadline (incl. waiting for admission)
	Cancelled  int64 `json:"cancelled"`  // client disconnected or abandoned mid-flight
	SynthNanos int64 `json:"synthNanos"` // wall time spent inside synthesis (misses)
	ServeNanos int64 `json:"serveNanos"` // wall time of all /synthesize requests
}

// ExecStats are the executor counters exposed on /stats: the live
// worker-slot gauge plus totals accumulated over every completed /execute.
type ExecStats struct {
	// ActiveWorkers is the number of executor worker slots held right now;
	// WorkerSlots is the pool size.
	ActiveWorkers int64 `json:"activeWorkers"`
	WorkerSlots   int64 `json:"workerSlots"`
	Executions    int64 `json:"executions"`
	PoolShrinks   int64 `json:"poolShrinks"`
	Spills        int64 `json:"spills"`
	SpillBytes    int64 `json:"spillBytes"`
}

// Server handles the ocasd API. Create with New.
type Server struct {
	cfg     Config
	store   *plancache.Store
	sem     chan struct{} // admission slots for new synthesis jobs
	slots   *slotSem      // executor worker-slot pool (/execute)
	started time.Time
	metrics Metrics
	// truncated counts the searches that stopped at their request's space
	// bound: their plans are the best of a partial space.
	truncated atomic.Int64
	exec      struct {
		executions  atomic.Int64
		poolShrinks atomic.Int64
		spills      atomic.Int64
		spillBytes  atomic.Int64
	}
	// tables counts catalog mutations through the HTTP surface (the
	// catalog's own Stats cover rows/segments).
	tables struct {
		creates      atomic.Int64
		drops        atomic.Int64
		ingestedRows atomic.Int64
		durableScans atomic.Int64
	}

	// Observability (see obs.go): the metrics registry, the trace ring and
	// the per-endpoint request metrics.
	reg      *obs.Registry
	ring     *obs.Ring
	mLatency *obs.Vec
	mHTTP    *obs.Vec
	leaderMu sync.Mutex
	leaderID map[string]string // fingerprint -> request ID computing it
}

// New builds a Server.
func New(cfg Config) *Server {
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 1024
	}
	if cfg.TemplateCacheSize <= 0 {
		cfg.TemplateCacheSize = 64
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 2
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 60 * time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.MaxExecRows <= 0 {
		cfg.MaxExecRows = 1 << 20
	}
	if cfg.ExecWorkers <= 0 {
		cfg.ExecWorkers = 1
	}
	if cfg.MaxWorkerSlots <= 0 {
		cfg.MaxWorkerSlots = runtime.GOMAXPROCS(0)
	}
	if cfg.ExecWorkers > cfg.MaxWorkerSlots {
		cfg.ExecWorkers = cfg.MaxWorkerSlots
	}
	if cfg.TraceRing <= 0 {
		cfg.TraceRing = 256
	}
	s := &Server{
		cfg:     cfg,
		store:   plancache.NewStore(cfg.CacheSize, cfg.TemplateCacheSize),
		sem:     make(chan struct{}, cfg.MaxInflight),
		slots:   newSlotSem(int64(cfg.MaxWorkerSlots)),
		started: time.Now(),
	}
	s.initObs()
	return s
}

// Store exposes the two-tier cache (its plan tier is what -persist saves).
func (s *Server) Store() *plancache.Store { return s.store }

// resolvePlan routes one compiled request through the two-tier cache.
// Admission gates the full-search paths (a cold synthesis or a capture),
// never instantiation — replaying a template is cheap by construction and
// must not queue behind cold searches.
func (s *Server) resolvePlan(ctx context.Context, compiled *plan.Compiled) (*plan.Plan, plancache.Outcome, error) {
	// search is the admission-wrapped full search. The compute context
	// retains the leader's values, so the span here belongs to the request
	// whose miss started the synthesis; followers joining via singleflight
	// attribute their log lines to this ID.
	search := func(cctx context.Context) (*plan.Plan, *plan.Template, error) {
		s.setLeader(compiled.Fingerprint, obs.SpanFrom(cctx).TraceID())
		select {
		case s.sem <- struct{}{}:
		case <-cctx.Done():
			return nil, nil, cctx.Err()
		}
		defer func() { <-s.sem }()
		cctx, sp := obs.Start(cctx, "synthesize.capture")
		defer sp.End()
		synthStart := time.Now()
		defer func() {
			atomic.AddInt64(&s.metrics.SynthNanos, int64(time.Since(synthStart)))
		}()
		p, t, err := compiled.RunCapture(cctx)
		if err == nil && p.Truncated {
			s.truncated.Add(1)
		}
		return p, t, err
	}
	return s.store.Resolve(ctx, compiled.Fingerprint, compiled.TemplateFingerprint, plancache.ResolveFuncs{
		Capture:     search,
		Instantiate: compiled.Instantiate,
	})
}

// Handler returns the routed http.Handler, wrapped in the observability
// middleware (request IDs, traces, latency metrics, access log).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /synthesize", s.handleSynthesize)
	mux.HandleFunc("POST /execute", s.handleExecute)
	mux.HandleFunc("GET /plans/{fingerprint}", s.handlePlan)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /traces", s.handleTraces)
	mux.HandleFunc("GET /traces/{id}", s.handleTrace)
	mux.HandleFunc("POST /tables", s.handleTableCreate)
	mux.HandleFunc("GET /tables", s.handleTableList)
	mux.HandleFunc("GET /tables/{name}", s.handleTableGet)
	mux.HandleFunc("DELETE /tables/{name}", s.handleTableDrop)
	mux.HandleFunc("POST /tables/{name}/rows", s.handleTableIngest)
	return s.withObs(mux)
}

// synthesizeRequest is the /synthesize body: a plan request plus transport
// options that must not influence the fingerprint.
type synthesizeRequest struct {
	plan.Request
	// TimeoutMS lowers the server's per-request synthesis budget.
	TimeoutMS int64 `json:"timeoutMs,omitempty"`
}

type apiError struct {
	Error string `json:"error"`
}

func (s *Server) fail(w http.ResponseWriter, code int, format string, args ...any) {
	atomic.AddInt64(&s.metrics.Errors, 1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(apiError{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleSynthesize(w http.ResponseWriter, r *http.Request) {
	startedAt := time.Now()
	atomic.AddInt64(&s.metrics.Requests, 1)
	defer func() {
		atomic.AddInt64(&s.metrics.ServeNanos, int64(time.Since(startedAt)))
	}()

	var req synthesizeRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.fail(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	s.applyDefaults(&req.Request)
	_, spCompile := obs.Start(r.Context(), "compile")
	compiled, err := plan.Compile(req.Request)
	spCompile.End()
	if err != nil {
		s.fail(w, http.StatusBadRequest, "invalid request: %v", err)
		return
	}

	timeout := s.cfg.Timeout
	if req.TimeoutMS > 0 {
		if d := time.Duration(req.TimeoutMS) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	rctx, spResolve := obs.Start(ctx, "resolve")
	p, outcome, err := s.resolvePlan(rctx, compiled)
	if spResolve != nil {
		spResolve.Attr("outcome", string(outcome))
		spResolve.End()
	}
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			atomic.AddInt64(&s.metrics.Timeouts, 1)
			s.fail(w, http.StatusGatewayTimeout, "synthesis exceeded its %s budget", timeout)
		case errors.Is(err, context.Canceled):
			atomic.AddInt64(&s.metrics.Cancelled, 1)
			s.fail(w, http.StatusServiceUnavailable, "request cancelled before its plan was ready")
		default:
			s.fail(w, http.StatusUnprocessableEntity, "synthesis failed: %v", err)
		}
		return
	}
	s.markShared(w, outcome, compiled.Fingerprint)
	s.writePlan(w, p, string(outcome), time.Since(startedAt))
}

// markShared exposes the singleflight leader of a shared result, so log
// lines (and clients) can join follower requests onto the computation that
// actually ran.
func (s *Server) markShared(w http.ResponseWriter, outcome plancache.Outcome, fp string) {
	if outcome != plancache.Shared {
		return
	}
	if leader := s.leader(fp); leader != "" {
		w.Header().Set("X-Ocas-Leader-Id", leader)
	}
}

// executeRequest is the /execute body: a plan request (resolved through the
// cache exactly like /synthesize) plus execution options.
type executeRequest struct {
	plan.Request
	// TimeoutMS lowers the server's budget for synthesis + execution.
	TimeoutMS int64 `json:"timeoutMs,omitempty"`
	// Exec tunes the execution (batch size, pool budget, seed, explicit or
	// resized inputs).
	Exec plan.ExecOptions `json:"exec,omitempty"`
}

// handleExecute resolves the request's plan (cache hit or fresh synthesis)
// and runs it on the storage simulator, returning the execution report:
// output digest, virtual-clock seconds, per-device InitCom/UnitTr ledgers
// and buffer-pool stats.
func (s *Server) handleExecute(w http.ResponseWriter, r *http.Request) {
	startedAt := time.Now()
	atomic.AddInt64(&s.metrics.Requests, 1)
	defer func() {
		atomic.AddInt64(&s.metrics.ServeNanos, int64(time.Since(startedAt)))
	}()

	var req executeRequest
	// Explicit input rows make /execute bodies legitimately larger than
	// /synthesize bodies.
	body := http.MaxBytesReader(w, r.Body, 16*s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.fail(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	// ?explain opts into the per-operator EXPLAIN ANALYZE tree without
	// touching the body (a transport toggle, like the exec.explain field).
	if q := r.URL.Query(); q.Has("explain") && q.Get("explain") != "0" && q.Get("explain") != "false" {
		req.Exec.Explain = true
	}
	s.applyDefaults(&req.Request)
	_, spCompile := obs.Start(r.Context(), "compile")
	compiled, err := plan.Compile(req.Request)
	spCompile.End()
	if err != nil {
		s.fail(w, http.StatusBadRequest, "invalid request: %v", err)
		return
	}
	if len(req.Exec.Tables) > 0 {
		cat := s.requireCatalog(w)
		if cat == nil {
			return
		}
		// The catalog handle is server wiring, never client input: the
		// JSON field only ever carries table names.
		req.Exec.Cat = cat
	}
	if err := plan.CheckExecOptions(compiled.Task, req.Exec); err != nil {
		s.fail(w, http.StatusBadRequest, "invalid request: %v", err)
		return
	}
	for name, nominal := range compiled.Task.InputRows {
		rows := nominal
		if o, ok := req.Exec.Rows[name]; ok {
			rows = o
		}
		if supplied, ok := req.Exec.Inputs[name]; ok {
			rows = int64(len(supplied))
		}
		if tname, ok := req.Exec.Tables[name]; ok {
			info, found := req.Exec.Cat.Info(tname)
			if !found {
				s.fail(w, http.StatusNotFound, "input %s: no table %q", name, tname)
				return
			}
			// A bound input executes the table's current row count.
			rows = info.Rows
		}
		if rows > s.cfg.MaxExecRows {
			s.fail(w, http.StatusBadRequest,
				"input %s would execute %d rows, above the server limit %d; shrink it with exec.rows",
				name, rows, s.cfg.MaxExecRows)
			return
		}
	}

	timeout := s.cfg.Timeout
	if req.TimeoutMS > 0 {
		if d := time.Duration(req.TimeoutMS) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	rctx, spResolve := obs.Start(ctx, "resolve")
	p, outcome, err := s.resolvePlan(rctx, compiled)
	if spResolve != nil {
		spResolve.Attr("outcome", string(outcome))
		spResolve.End()
	}
	if err != nil {
		s.failCompute(w, err, timeout)
		return
	}
	s.markShared(w, outcome, compiled.Fingerprint)
	// Execution admission charges worker-slots, not requests: a run with W
	// executor workers holds W slots of the shared pool, so concurrent
	// /execute traffic cannot oversubscribe the box however small each
	// request is.
	workers := req.Exec.ExecWorkers
	if workers <= 0 {
		workers = s.cfg.ExecWorkers
	}
	if workers > s.cfg.MaxWorkerSlots {
		workers = s.cfg.MaxWorkerSlots
	}
	// The executor cannot use more than plan.MaxExecWorkers lanes; holding
	// extra slots would starve other requests for nothing.
	if workers > plan.MaxExecWorkers {
		workers = plan.MaxExecWorkers
	}
	req.Exec.ExecWorkers = workers
	if err := s.slots.Acquire(ctx, int64(workers)); err != nil {
		s.failCompute(w, err, timeout)
		return
	}
	ectx, spExec := obs.Start(ctx, "execute")
	rep, err := plan.ExecutePlan(ectx, compiled, p, req.Exec)
	if spExec != nil {
		spExec.Attr("workers", workers)
		if err == nil {
			spExec.AddVirt(rep.VirtualSeconds)
		}
		spExec.End()
	}
	s.slots.Release(int64(workers))
	if err == nil {
		s.exec.executions.Add(1)
		s.exec.poolShrinks.Add(rep.Pool.Shrinks)
		s.exec.spills.Add(rep.Pool.Spills)
		s.exec.spillBytes.Add(rep.Pool.SpillBytes)
		if len(req.Exec.Tables) > 0 {
			s.tables.durableScans.Add(1)
		}
	}
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			s.failCompute(w, err, timeout)
		default:
			s.fail(w, http.StatusUnprocessableEntity, "execution failed: %v", err)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Ocas-Cache", string(outcome))
	w.Header().Set("X-Ocas-Elapsed", time.Since(startedAt).String())
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(rep)
}

// failCompute maps synthesis/execution context errors to HTTP statuses.
func (s *Server) failCompute(w http.ResponseWriter, err error, timeout time.Duration) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		atomic.AddInt64(&s.metrics.Timeouts, 1)
		s.fail(w, http.StatusGatewayTimeout, "request exceeded its %s budget", timeout)
	case errors.Is(err, context.Canceled):
		atomic.AddInt64(&s.metrics.Cancelled, 1)
		s.fail(w, http.StatusServiceUnavailable, "request cancelled before its result was ready")
	default:
		s.fail(w, http.StatusUnprocessableEntity, "synthesis failed: %v", err)
	}
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fingerprint")
	p, ok := s.store.Get(fp)
	if !ok {
		s.fail(w, http.StatusNotFound, "no plan with fingerprint %q", fp)
		return
	}
	s.writePlan(w, p, string(plancache.Hit), 0)
}

// writePlan sends the canonical plan bytes — exactly what cmd/ocas -json
// prints — with cache metadata confined to headers so the body stays
// byte-identical.
func (s *Server) writePlan(w http.ResponseWriter, p *plan.Plan, outcome string, elapsed time.Duration) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Ocas-Cache", outcome)
	if elapsed > 0 {
		w.Header().Set("X-Ocas-Elapsed", elapsed.String())
	}
	w.Write(plan.Encode(p))
}

// CatalogStats extends the catalog's own counters with the HTTP-surface
// totals (creates, drops, rows ingested, durable scans served).
type CatalogStats struct {
	catalog.Stats
	Creates      int64 `json:"creates"`
	Drops        int64 `json:"drops"`
	IngestedHTTP int64 `json:"ingestedHttp"`
	DurableScans int64 `json:"durableScans"`
}

type statsResponse struct {
	Cache plancache.Stats `json:"cache"`
	// Templates is the template (shape) tier.
	Templates plancache.Stats `json:"templates"`
	// Instantiations counts plans served by binding a cached template;
	// GuardRejects counts templates the equivalence guards refused (the
	// request fell back to a full search and replaced the template).
	Instantiations int64     `json:"instantiations"`
	GuardRejects   int64     `json:"guardRejects"`
	Service        Metrics   `json:"service"`
	Exec           ExecStats `json:"exec"`
	// Catalog is the durable-table layer; nil when no -data directory is
	// configured.
	Catalog *CatalogStats `json:"catalog,omitempty"`
	Uptime  string        `json:"uptime"`
}

// catalogStats snapshots the catalog section of /stats (nil when the
// durable-table layer is disabled).
func (s *Server) catalogStats() *CatalogStats {
	if s.cfg.Catalog == nil {
		return nil
	}
	return &CatalogStats{
		Stats:        s.cfg.Catalog.Stats(),
		Creates:      s.tables.creates.Load(),
		Drops:        s.tables.drops.Load(),
		IngestedHTTP: s.tables.ingestedRows.Load(),
		DurableScans: s.tables.durableScans.Load(),
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.store.Stats()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(statsResponse{
		Cache:          st.Plans,
		Templates:      st.Templates,
		Instantiations: st.Instantiations,
		GuardRejects:   st.GuardRejects,
		Service: Metrics{
			Requests:   atomic.LoadInt64(&s.metrics.Requests),
			Errors:     atomic.LoadInt64(&s.metrics.Errors),
			Timeouts:   atomic.LoadInt64(&s.metrics.Timeouts),
			Cancelled:  atomic.LoadInt64(&s.metrics.Cancelled),
			SynthNanos: atomic.LoadInt64(&s.metrics.SynthNanos),
			ServeNanos: atomic.LoadInt64(&s.metrics.ServeNanos),
		},
		Exec: ExecStats{
			ActiveWorkers: s.slots.InUse(),
			WorkerSlots:   int64(s.cfg.MaxWorkerSlots),
			Executions:    s.exec.executions.Load(),
			PoolShrinks:   s.exec.poolShrinks.Load(),
			Spills:        s.exec.spills.Load(),
			SpillBytes:    s.exec.spillBytes.Load(),
		},
		Catalog: s.catalogStats(),
		Uptime:  time.Since(s.started).String(),
	})
}

// applyDefaults fills the daemon-level default worker count into a request
// that left it unset; plan.Normalize then applies the package defaults.
func (s *Server) applyDefaults(r *plan.Request) {
	if r.Workers == 0 {
		r.Workers = s.cfg.Workers
	}
}
