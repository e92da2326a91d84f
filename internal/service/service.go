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
//	                          tier occupancy, execution slots.
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
	"bytes"
	"context"
	"crypto/sha256"
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
	"ocas/internal/exec"
	"ocas/internal/obs"
	"ocas/internal/plan"
	"ocas/internal/plancache"
)

// Config tunes a Server. Zero values mean defaults.
type Config struct {
	// CacheSize bounds the plan cache (default 1024 plans), and the hit
	// memo's recorded /synthesize bodies at the same count.
	CacheSize int
	// TemplateCacheSize bounds the template tier: reusable synthesis
	// captures keyed by request shape, so that requests differing only in
	// input cardinalities skip the search (see internal/plan's template
	// documentation; default 64 templates).
	TemplateCacheSize int
	// MaxInflight bounds concurrent syntheses, searches and recaptures
	// (default 2). Hits, singleflight joins and template instantiations
	// take no slot, and each execution holds one of GOMAXPROCS execution
	// slots per lane.
	MaxInflight int
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
	Requests   int64 `json:"requests"`   // /synthesize and /execute requests
	Errors     int64 `json:"errors"`     // failed requests of every endpoint, 4xx and 5xx alike
	Timeouts   int64 `json:"timeouts"`   // requests that hit their deadline (incl. waiting for admission)
	Cancelled  int64 `json:"cancelled"`  // client disconnected or abandoned mid-flight
	SynthNanos int64 `json:"synthNanos"` // wall time spent inside synthesis (misses)
	ServeNanos int64 `json:"serveNanos"` // wall time of all /synthesize and /execute requests
}

// ExecStats are the executor counters exposed on /stats: the live
// execution-slot gauge plus totals accumulated over every completed /execute.
type ExecStats struct {
	// ActiveWorkers is the number of slots held right now, one per running
	// executor lane; WorkerSlots is the slot count (GOMAXPROCS).
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
	execSem chan struct{} // execution slots (/execute), one per executor lane
	started time.Time
	metrics Metrics
	// execWaiting counts the executions waiting for an execSem slot.
	execWaiting atomic.Int64
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
	// memo answers repeated /synthesize hits from their bytes (hitmemo.go).
	memo     *hitMemo
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
	if cfg.TraceRing <= 0 {
		cfg.TraceRing = 256
	}
	s := &Server{
		cfg:     cfg,
		store:   plancache.NewStore(cfg.CacheSize, cfg.TemplateCacheSize),
		sem:     make(chan struct{}, cfg.MaxInflight),
		execSem: make(chan struct{}, runtime.GOMAXPROCS(0)),
		started: time.Now(),
		memo:    newHitMemo(cfg.CacheSize),
	}
	s.initObs()
	return s
}

// Store exposes the two-tier cache (its plan tier is what -persist saves).
func (s *Server) Store() *plancache.Store { return s.store }

// resolvePlan routes one compiled request through the two-tier cache.
// Admission gates the paths that synthesize for the request (a search, or a
// recapture of a guard-rejected template's space), never instantiation —
// replaying a template is cheap by construction and must not queue behind
// cold searches.
func (s *Server) resolvePlan(ctx context.Context, compiled *plan.Compiled) (*plan.Plan, plancache.Outcome, error) {
	// admitted runs one synthesis in an admission slot. The compute context
	// retains the leader's values, so the span here belongs to the request
	// whose miss started the synthesis; followers joining via singleflight
	// attribute their log lines to this ID.
	admitted := func(cctx context.Context, run func(context.Context) (*plan.Plan, *plan.Template, error)) (*plan.Plan, *plan.Template, error) {
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
		p, t, err := run(cctx)
		if err == nil && p.Truncated {
			s.truncated.Add(1)
		}
		return p, t, err
	}
	return s.store.Resolve(ctx, compiled.Fingerprint, compiled.TemplateFingerprint, plancache.ResolveFuncs{
		Capture: func(cctx context.Context) (*plan.Plan, *plan.Template, error) {
			return admitted(cctx, compiled.RunCapture)
		},
		Instantiate: compiled.Instantiate,
		Recapture: func(cctx context.Context, t *plan.Template) (*plan.Plan, *plan.Template, error) {
			return admitted(cctx, func(cctx context.Context) (*plan.Plan, *plan.Template, error) {
				return compiled.Recapture(cctx, t)
			})
		},
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
// options that must not influence the fingerprint. /execute embeds it.
type synthesizeRequest struct {
	plan.Request
	// TimeoutMS lowers the server's per-request budget (synthesis, and on
	// /execute execution too).
	TimeoutMS int64 `json:"timeoutMs,omitempty"`
}

// base gives resolveRequest the part of either body it reads.
func (r *synthesizeRequest) base() *synthesizeRequest { return r }

type apiError struct {
	Error string `json:"error"`
}

func (s *Server) fail(w http.ResponseWriter, code int, format string, args ...any) {
	atomic.AddInt64(&s.metrics.Errors, 1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(apiError{Error: fmt.Sprintf(format, args...)})
}

// resolved is what the shared request prologue hands its handler.
type resolved struct {
	compiled *plan.Compiled
	plan     *plan.Plan
	outcome  plancache.Outcome
	// ctx carries the request's timeout; the handler calls cancel.
	ctx     context.Context
	cancel  context.CancelFunc
	timeout time.Duration
}

// readBody reads a request body of at most limit bytes into one buffer
// sized by its Content-Length.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	var body bytes.Buffer
	if r.ContentLength > 0 && r.ContentLength <= limit {
		body.Grow(int(r.ContentLength) + bytes.MinRead) // one allocation, no regrowth
	}
	_, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	return body.Bytes(), err
}

// readRequest reads a /synthesize or /execute body of at most limit bytes;
// it answers a failure itself, with ok false.
func (s *Server) readRequest(w http.ResponseWriter, r *http.Request, limit int64) (body []byte, ok bool) {
	body, err := readBody(w, r, limit)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "bad request body: %v", err)
		return nil, false
	}
	return body, true
}

// errTrailing rejects a body that goes on after its request object.
var errTrailing = errors.New("trailing data after the request object")

// decodeRequest decodes a request body that is one JSON object with no
// unknown fields and nothing after it but whitespace.
func decodeRequest(body io.Reader, req any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return err
	}
	if dec.Decode(&json.RawMessage{}) != io.EOF {
		return errTrailing
	}
	return nil
}

// resolveRequest is the prologue /synthesize and /execute share: decode the
// body into req (one object, no unknown fields), compile it, run the
// handler's own checks (check answers what it rejects and reports whether
// to go on; nil for none), then resolve the plan through the cache under
// the request's timeout. Every failure is answered here, with ok false.
func (s *Server) resolveRequest(w http.ResponseWriter, r *http.Request, body []byte,
	req interface{ base() *synthesizeRequest }, check func(*plan.Compiled) bool) (res resolved, ok bool) {
	if err := decodeRequest(bytes.NewReader(body), req); err != nil {
		s.fail(w, http.StatusBadRequest, "bad request body: %v", err)
		return res, false
	}
	base := req.base()
	_, spCompile := obs.Start(r.Context(), "compile")
	compiled, err := plan.Compile(base.Request)
	spCompile.End()
	if err != nil {
		s.fail(w, http.StatusBadRequest, "invalid request: %v", err)
		return res, false
	}
	if check != nil && !check(compiled) {
		return res, false
	}

	res = resolved{compiled: compiled, timeout: s.cfg.Timeout}
	if base.TimeoutMS > 0 {
		res.timeout = min(res.timeout, time.Duration(base.TimeoutMS)*time.Millisecond)
	}
	res.ctx, res.cancel = context.WithTimeout(r.Context(), res.timeout)
	rctx, spResolve := obs.Start(res.ctx, "resolve")
	res.plan, res.outcome, err = s.resolvePlan(rctx, compiled)
	if spResolve != nil {
		spResolve.Attr("outcome", string(res.outcome))
		spResolve.End()
	}
	if err != nil {
		res.cancel()
		s.failCompute(w, err, res.timeout, "synthesis")
		return res, false
	}
	s.markShared(w, res.outcome, compiled.Fingerprint)
	return res, true
}

func (s *Server) handleSynthesize(w http.ResponseWriter, r *http.Request) {
	startedAt := time.Now()
	atomic.AddInt64(&s.metrics.Requests, 1)
	defer func() {
		atomic.AddInt64(&s.metrics.ServeNanos, int64(time.Since(startedAt)))
	}()

	body, ok := s.readRequest(w, r, s.cfg.MaxBodyBytes)
	if !ok {
		return
	}
	key := sha256.Sum256(body)
	if s.serveMemo(w, r, key, startedAt) {
		return
	}
	var req synthesizeRequest
	res, ok := s.resolveRequest(w, r, body, &req, nil)
	if !ok {
		return
	}
	defer res.cancel()
	encoded := plan.Encode(res.plan)
	// A body is memoized the second time it is seen: its first answer was
	// the miss that cached the plan.
	if res.outcome == plancache.Hit {
		s.memo.put(key, memoEntry{fp: res.compiled.Fingerprint, plan: res.plan, bytes: encoded})
	}
	s.writePlan(w, encoded, string(res.outcome), time.Since(startedAt))
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
	synthesizeRequest
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

	// Explicit input rows make /execute bodies legitimately larger than
	// /synthesize bodies.
	body, ok := s.readRequest(w, r, 16*s.cfg.MaxBodyBytes)
	if !ok {
		return
	}
	var req executeRequest
	res, ok := s.resolveRequest(w, r, body, &req, func(compiled *plan.Compiled) bool {
		return s.checkExec(w, compiled, &req.Exec)
	})
	if !ok {
		return
	}
	defer res.cancel()
	// ?explain opts into the per-operator EXPLAIN ANALYZE tree without
	// touching the body (a transport toggle, like the exec.explain field).
	if q := r.URL.Query(); q.Has("explain") && q.Get("explain") != "0" && q.Get("explain") != "false" {
		req.Exec.Explain = true
	}
	// Each execution waits for one slot, then takes the slots still free,
	// up to exec.Lanes(): one per lane, held for the whole run and released
	// however it ends. An idle host gives a run every core; a loaded one
	// gives each run one lane.
	s.execWaiting.Add(1)
	select {
	case s.execSem <- struct{}{}:
		s.execWaiting.Add(-1)
	case <-res.ctx.Done():
		s.execWaiting.Add(-1)
		s.failCompute(w, res.ctx.Err(), res.timeout, "execution")
		return
	}
	lanes := 1
	for free := true; free && lanes < exec.Lanes(); {
		select {
		case s.execSem <- struct{}{}:
			lanes++
		default:
			free = false
		}
	}
	defer func() {
		for range lanes {
			<-s.execSem
		}
	}()
	req.Exec.ExecWorkers = lanes
	ectx, spExec := obs.Start(res.ctx, "execute")
	rep, err := plan.ExecutePlan(ectx, res.compiled, res.plan, req.Exec)
	if spExec != nil {
		if err == nil {
			spExec.Attr("workers", rep.ExecWorkers)
			spExec.AddVirt(rep.VirtualSeconds)
		}
		spExec.End()
	}
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
		s.failCompute(w, err, res.timeout, "execution")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Ocas-Cache", string(res.outcome))
	w.Header().Set("X-Ocas-Elapsed", time.Since(startedAt).String())
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(rep)
}

// checkExec is /execute's own check between compile and resolve: the
// exec options must fit the compiled task and no input may execute more
// rows than the server allows. It answers what it rejects.
func (s *Server) checkExec(w http.ResponseWriter, compiled *plan.Compiled, ex *plan.ExecOptions) bool {
	if len(ex.Tables) > 0 {
		cat := s.requireCatalog(w)
		if cat == nil {
			return false
		}
		// The catalog handle is server wiring, never client input: the
		// JSON field only ever carries table names.
		ex.Cat = cat
	}
	if err := plan.CheckExecOptions(compiled.H, compiled.Task, *ex); err != nil {
		s.fail(w, http.StatusBadRequest, "invalid request: %v", err)
		return false
	}
	for name, nominal := range compiled.Task.InputRows {
		rows := nominal
		if o, ok := ex.Rows[name]; ok {
			rows = o
		}
		if supplied, ok := ex.Inputs[name]; ok {
			rows = int64(len(supplied))
		}
		if tname, ok := ex.Tables[name]; ok {
			info, found := ex.Cat.Info(tname)
			if !found {
				s.fail(w, http.StatusNotFound, "input %s: no table %q", name, tname)
				return false
			}
			// A bound input executes the table's current row count.
			rows = info.Rows
		}
		if rows > s.cfg.MaxExecRows {
			s.fail(w, http.StatusBadRequest,
				"input %s would execute %d rows, above the server limit %d; shrink it with exec.rows",
				name, rows, s.cfg.MaxExecRows)
			return false
		}
	}
	return true
}

// failCompute answers a failed synthesis or execution (what names which): a
// missed deadline is a 504, a cancelled request a 503, a panic the plan
// cache caught a 500, and any other failure a 422.
func (s *Server) failCompute(w http.ResponseWriter, err error, timeout time.Duration, what string) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		atomic.AddInt64(&s.metrics.Timeouts, 1)
		s.fail(w, http.StatusGatewayTimeout, "request exceeded its %s budget", timeout)
	case errors.Is(err, context.Canceled):
		atomic.AddInt64(&s.metrics.Cancelled, 1)
		s.fail(w, http.StatusServiceUnavailable, "request cancelled before its result was ready")
	case errors.Is(err, plancache.ErrInternal):
		s.fail(w, http.StatusInternalServerError, "%s failed: %v", what, err)
	default:
		s.fail(w, http.StatusUnprocessableEntity, "%s failed: %v", what, err)
	}
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fingerprint")
	p, ok := s.store.Get(fp)
	if !ok {
		s.fail(w, http.StatusNotFound, "no plan with fingerprint %q", fp)
		return
	}
	s.writePlan(w, plan.Encode(p), string(plancache.Hit), 0)
}

// writePlan sends the canonical plan bytes — exactly what cmd/ocas -json
// prints — with cache metadata confined to headers so the body stays
// byte-identical.
func (s *Server) writePlan(w http.ResponseWriter, encoded []byte, outcome string, elapsed time.Duration) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Ocas-Cache", outcome)
	if elapsed > 0 {
		w.Header().Set("X-Ocas-Elapsed", elapsed.String())
	}
	w.Write(encoded)
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
	// request was synthesized for itself, over the template's space unless
	// its spelling differs, and its template replaced the refused one).
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
			ActiveWorkers: int64(len(s.execSem)),
			WorkerSlots:   int64(cap(s.execSem)),
			Executions:    s.exec.executions.Load(),
			PoolShrinks:   s.exec.poolShrinks.Load(),
			Spills:        s.exec.spills.Load(),
			SpillBytes:    s.exec.spillBytes.Load(),
		},
		Catalog: s.catalogStats(),
		Uptime:  time.Since(s.started).String(),
	})
}
