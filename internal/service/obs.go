// obs.go is the service's observability wiring: the request middleware
// (request IDs, traces, latency metrics, structured access logs) and the
// /metrics, /traces and /healthz endpoints. All instrumentation funnels
// into one obs.Registry; /stats and /metrics are two renderings of the
// same underlying counters.
package service

import (
	"encoding/json"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"ocas/internal/obs"
)

// initObs builds the server's registry, trace ring and metric families.
// Called from New.
func (s *Server) initObs() {
	s.reg = obs.NewRegistry()
	s.ring = obs.NewRing(s.cfg.TraceRing)
	if s.cfg.TraceLog != nil {
		s.ring.SetLog(s.cfg.TraceLog)
	}
	s.leaderID = map[string]string{}

	s.mLatency = s.reg.Histogram("ocas_request_seconds",
		"Request latency by endpoint and cache outcome.",
		obs.DefLatencyBuckets(), "endpoint", "outcome")
	s.mHTTP = s.reg.Counter("ocas_http_requests_total",
		"Requests by endpoint, cache outcome and status code.",
		"endpoint", "outcome", "code")

	// Callback-backed views over counters that already live elsewhere: the
	// cache tiers, the admission semaphores and the exec totals. Reading at
	// scrape time avoids double bookkeeping and drift between /stats and
	// /metrics.
	s.reg.Func("ocas_plan_cache_hits_total", "Plan-tier cache hits.", obs.KindCounter,
		func() float64 { return float64(s.store.Stats().Plans.Hits) })
	s.reg.Func("ocas_plan_cache_misses_total", "Plan-tier cache misses.", obs.KindCounter,
		func() float64 { return float64(s.store.Stats().Plans.Misses) })
	s.reg.Func("ocas_plan_cache_shared_total", "Synthesis requests joined onto an in-flight leader.", obs.KindCounter,
		func() float64 { return float64(s.store.Stats().Plans.Shared) })
	s.reg.Func("ocas_plan_cache_evictions_total", "Plan-tier LRU evictions.", obs.KindCounter,
		func() float64 { return float64(s.store.Stats().Plans.Evictions) })
	s.reg.Func("ocas_plan_cache_size", "Plans currently cached.", obs.KindGauge,
		func() float64 { return float64(s.store.Stats().Plans.Size) })
	s.reg.Func("ocas_template_cache_hits_total", "Template-tier hits (request shape already captured).", obs.KindCounter,
		func() float64 { return float64(s.store.Stats().Templates.Hits) })
	s.reg.Func("ocas_template_cache_size", "Templates currently cached.", obs.KindGauge,
		func() float64 { return float64(s.store.Stats().Templates.Size) })
	s.reg.Func("ocas_template_instantiations_total", "Plans served by instantiating a cached template.", obs.KindCounter,
		func() float64 { return float64(s.store.Stats().Instantiations) })
	s.reg.Func("ocas_template_guard_rejects_total", "Templates refused by the equivalence guards.", obs.KindCounter,
		func() float64 { return float64(s.store.Stats().GuardRejects) })

	s.reg.Func("ocas_search_truncated_total", "Searches stopped at the request's space bound (the plan is the best of a partial space).", obs.KindCounter,
		func() float64 { return float64(s.truncated.Load()) })
	s.reg.Func("ocas_synth_inflight", "Synthesis jobs holding an admission slot.", obs.KindGauge,
		func() float64 { return float64(len(s.sem)) })
	s.reg.Func("ocas_exec_workers_inuse", "Executor worker slots held right now.", obs.KindGauge,
		func() float64 { return float64(s.slots.InUse()) })
	s.reg.Func("ocas_exec_workers_waiting", "Requests queued for executor worker slots.", obs.KindGauge,
		func() float64 { return float64(s.slots.Waiting()) })
	s.reg.Func("ocas_exec_worker_slots", "Executor worker-slot pool size.", obs.KindGauge,
		func() float64 { return float64(s.cfg.MaxWorkerSlots) })

	s.reg.Func("ocas_executions_total", "Completed /execute runs.", obs.KindCounter,
		func() float64 { return float64(s.exec.executions.Load()) })
	s.reg.Func("ocas_pool_shrinks_total", "Buffer-pool budget shrinks across executions.", obs.KindCounter,
		func() float64 { return float64(s.exec.poolShrinks.Load()) })
	s.reg.Func("ocas_spills_total", "Spill files created across executions.", obs.KindCounter,
		func() float64 { return float64(s.exec.spills.Load()) })
	s.reg.Func("ocas_spill_bytes_total", "Bytes spilled across executions.", obs.KindCounter,
		func() float64 { return float64(s.exec.spillBytes.Load()) })

	s.reg.Func("ocas_traces_total", "Traces recorded since start.", obs.KindCounter,
		func() float64 { return float64(s.ring.Total()) })

	if s.cfg.Catalog != nil {
		s.reg.Func("ocas_catalog_tables", "Durable tables in the catalog.", obs.KindGauge,
			func() float64 { return float64(s.cfg.Catalog.Stats().Tables) })
		s.reg.Func("ocas_catalog_rows", "Rows across all tables (durable + buffered).", obs.KindGauge,
			func() float64 { return float64(s.cfg.Catalog.Stats().Rows) })
		s.reg.Func("ocas_catalog_segments", "Durable segment files across all tables.", obs.KindGauge,
			func() float64 { return float64(s.cfg.Catalog.Stats().Segments) })
		s.reg.Func("ocas_catalog_buffered_rows", "Rows buffered in memory awaiting a segment flush.", obs.KindGauge,
			func() float64 { return float64(s.cfg.Catalog.Stats().BufferedRows) })
		s.reg.Func("ocas_catalog_ingested_rows_total", "Rows ingested since the catalog opened.", obs.KindCounter,
			func() float64 { return float64(s.cfg.Catalog.Stats().IngestedRows) })
		s.reg.Func("ocas_catalog_segment_flushes_total", "Segments flushed since the catalog opened.", obs.KindCounter,
			func() float64 { return float64(s.cfg.Catalog.Stats().SegmentFlushes) })
		s.reg.Func("ocas_durable_scans_total", "Completed /execute runs that read catalog tables.", obs.KindCounter,
			func() float64 { return float64(s.tables.durableScans.Load()) })
	}
}

// endpointLabel maps a request path to its route pattern, so metric label
// cardinality stays fixed no matter what clients send.
func endpointLabel(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/synthesize", p == "/execute", p == "/healthz", p == "/stats",
		p == "/metrics", p == "/traces", p == "/tables":
		return p
	case strings.HasPrefix(p, "/plans/"):
		return "/plans/{fingerprint}"
	case strings.HasPrefix(p, "/traces/"):
		return "/traces/{id}"
	case strings.HasPrefix(p, "/tables/") && strings.HasSuffix(p, "/rows"):
		return "/tables/{name}/rows"
	case strings.HasPrefix(p, "/tables/"):
		return "/tables/{name}"
	default:
		return "other"
	}
}

// statusWriter captures the status code written by a handler.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// withObs is the request middleware: it assigns every request an ID (echoed
// as X-Ocas-Request-Id), opens the request's root span, measures latency
// into the per-endpoint histogram split by cache outcome, emits the access
// log line and records the finished trace into the ring.
func (s *Server) withObs(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := obs.NewID()
		w.Header().Set("X-Ocas-Request-Id", id)
		ep := endpointLabel(r)
		tr := obs.NewTrace(id)
		root := tr.StartSpan(r.Method+" "+ep, nil)
		ctx := obs.ContextWith(r.Context(), root)
		rec := &statusWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(rec, r.WithContext(ctx))
		elapsed := time.Since(start)

		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		outcome := rec.Header().Get("X-Ocas-Cache")
		if outcome == "" {
			outcome = "none"
		}
		s.mLatency.With(ep, outcome).Observe(elapsed.Seconds())
		s.mHTTP.With(ep, outcome, strconv.Itoa(rec.status)).Inc()
		root.Attr("status", rec.status)
		if outcome != "none" {
			root.Attr("outcome", outcome)
		}
		root.End()
		tr.Finish()
		s.ring.Add(tr)

		if s.cfg.AccessLog != nil {
			args := []any{
				"method", r.Method,
				"path", r.URL.Path,
				"status", rec.status,
				"durMs", float64(elapsed.Nanoseconds()) / 1e6,
				"requestId", id,
			}
			if outcome != "none" {
				args = append(args, "outcome", outcome)
			}
			// A singleflight follower reports the leader whose synthesis it
			// shared, so log lines of one computation join on one ID.
			if leader := rec.Header().Get("X-Ocas-Leader-Id"); leader != "" && leader != id {
				args = append(args, "leaderId", leader)
			}
			s.cfg.AccessLog.Info("request", args...)
		}
	})
}

// setLeader records the request that is computing a fingerprint, so
// followers that share the result can attribute it. The map is bounded:
// entries are evicted arbitrarily beyond the cap (attribution is best
// effort — a lost entry only costs a leaderId log field).
func (s *Server) setLeader(fp, id string) {
	if id == "" {
		return
	}
	s.leaderMu.Lock()
	if len(s.leaderID) >= 1024 {
		for k := range s.leaderID {
			delete(s.leaderID, k)
			if len(s.leaderID) < 1024 {
				break
			}
		}
	}
	s.leaderID[fp] = id
	s.leaderMu.Unlock()
}

func (s *Server) leader(fp string) string {
	s.leaderMu.Lock()
	defer s.leaderMu.Unlock()
	return s.leaderID[fp]
}

// handleMetrics serves the registry in the Prometheus text exposition
// format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}

// handleTraces lists recent traces, newest first (?n= bounds the count,
// default 20).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	n := 20
	if q := r.URL.Query().Get("n"); q != "" {
		if v, err := strconv.Atoi(q); err == nil && v > 0 {
			n = v
		}
	}
	recent := s.ring.Recent(n)
	out := make([]obs.TraceJSON, 0, len(recent))
	for _, t := range recent {
		out = append(out, t.Snapshot())
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"total":  s.ring.Total(),
		"traces": out,
	})
}

// handleTrace serves one trace by ID, while it is still in the ring.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	t, ok := s.ring.Get(id)
	if !ok {
		s.fail(w, http.StatusNotFound, "no trace %q in the ring (it holds the most recent %d)", id, s.cfg.TraceRing)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(t.Snapshot())
}

// healthzResponse is the /healthz readiness report.
type healthzResponse struct {
	Status     string `json:"status"`
	Uptime     string `json:"uptime"`
	GoVersion  string `json:"goVersion"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Cache occupancy of the two tiers (size/capacity).
	Plans     tierHealth `json:"plans"`
	Templates tierHealth `json:"templates"`
	// Worker slots: the executor admission pool.
	WorkerSlots   int64 `json:"workerSlots"`
	ActiveWorkers int64 `json:"activeWorkers"`
	MaxInflight   int   `json:"maxInflight"`
	SynthInflight int   `json:"synthInflight"`
}

type tierHealth struct {
	Size     int `json:"size"`
	Capacity int `json:"capacity"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.store.Stats()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(healthzResponse{
		Status:        "ok",
		Uptime:        time.Since(s.started).String(),
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Plans:         tierHealth{Size: st.Plans.Size, Capacity: st.Plans.Capacity},
		Templates:     tierHealth{Size: st.Templates.Size, Capacity: st.Templates.Capacity},
		WorkerSlots:   int64(s.cfg.MaxWorkerSlots),
		ActiveWorkers: s.slots.InUse(),
		MaxInflight:   s.cfg.MaxInflight,
		SynthInflight: len(s.sem),
	})
}
