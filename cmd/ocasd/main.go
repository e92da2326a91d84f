// Command ocasd is the synthesis daemon: a long-running HTTP service that
// memoizes OCAS synthesis behind a content-addressed plan cache, so a plan
// is synthesized once and served many times.
//
// Usage:
//
//	ocasd -addr :8080 -cache-size 1024 -template-cache 64 -persist plans.json \
//	      [-data ./data -flush-rows 65536] \
//	      [-max-inflight 2] [-timeout 60s] \
//	      [-max-exec-rows 1048576] [-pprof ADDR] \
//	      [-trace-ring 256] [-trace-log traces.jsonl] [-log-json] [-access-log]
//
// Endpoints (see internal/service):
//
//	POST /synthesize          synthesize (or serve) the plan for a request
//	POST /execute             resolve the plan, then run it on the storage
//	                          simulator (durable tables via exec.tables,
//	                          request-supplied, or generated inputs);
//	                          returns digest + virtual clock + per-device
//	                          ledger
//	GET  /plans/{fingerprint} fetch a cached plan by content address
//	POST /tables              create a durable table (name + column schema)
//	GET  /tables              list durable tables
//	GET  /tables/{name}       one table's schema, row count and segments
//	DELETE /tables/{name}     drop a table and its segment files
//	POST /tables/{name}/rows  bulk-load rows (JSON or text/csv body)
//	GET  /healthz             readiness report (uptime, build, cache
//	                          occupancy, execution slots)
//	GET  /stats               cache + service + catalog counters
//	GET  /metrics             Prometheus text exposition (latency
//	                          histograms split by cache outcome)
//	GET  /traces              recent request traces, newest first
//	GET  /traces/{id}         one trace by request ID
//
// Every response carries an X-Ocas-Request-Id header; the same ID fetches
// the request's trace and tags its access-log line. -trace-log appends each
// finished trace as a JSON line; -log-json switches the access log from
// text to JSON.
//
// With -persist, the plan cache is loaded at startup and written back on
// SIGINT/SIGTERM, so a restarted daemon serves every request it had answered
// as a hit. A missing or corrupt snapshot is logged and the daemon starts
// cold, with nothing of the file installed; a failed save at shutdown is
// logged and exits nonzero.
// The template tier (-template-cache sizes it) memoizes the search space
// per request *shape*, so a known shape at new input
// cardinalities re-optimizes in milliseconds instead of re-searching. It
// lives in the process and is not in the snapshot: after a restart the first
// new cardinality of a shape searches once (miss) and captures it again.
//
// With -data, the daemon opens the durable table catalog rooted at that
// directory: the /tables endpoints come alive and /execute resolves
// exec.tables bindings against it. Ingested rows buffer in memory and flush
// to columnar segment files every -flush-rows rows; the graceful-shutdown
// path flushes the remainder, so a SIGTERM-stopped daemon restarts with
// every ingested row durable.
//
// Each /execute holds one of GOMAXPROCS execution slots per executor lane
// for its whole run: it waits for one, then takes the free ones, up to 8.
//
// -pprof ADDR serves net/http/pprof on a separate listener — the profiling
// mux is never mounted on the serving address.
package main

import (
	"context"
	"errors"
	"flag"
	"io"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ocas/internal/catalog"
	"ocas/internal/service"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		cacheSize   = flag.Int("cache-size", 1024, "maximum number of cached plans (LRU beyond that)")
		tmplSize    = flag.Int("template-cache", 64, "maximum number of cached plan templates, amortizing synthesis across cardinalities (LRU beyond that)")
		persist     = flag.String("persist", "", "plan-cache snapshot file (loaded at startup, saved at shutdown; plans only, templates are per-process)")
		maxInflight = flag.Int("max-inflight", 2, "maximum concurrent syntheses, searches and recaptures (admission control; cache and template hits take no slot, and each executor lane holds one of GOMAXPROCS execution slots)")
		timeout     = flag.Duration("timeout", 60*time.Second, "per-request synthesis budget (requests may lower it via timeoutMs)")
		maxExecRows = flag.Int64("max-exec-rows", 1<<20, "largest per-input row count POST /execute will run")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this separate address (e.g. localhost:6060); empty disables profiling")
		dataDir     = flag.String("data", "", "durable table catalog directory; empty disables the /tables endpoints and exec.tables bindings")
		flushRows   = flag.Int64("flush-rows", 0, "buffered rows per table before ingest cuts a columnar segment (0 = 65536)")
		traceRing   = flag.Int("trace-ring", 256, "recent request traces kept in memory for GET /traces")
		traceLog    = flag.String("trace-log", "", "append every finished request trace to this file, one JSON line each")
		logJSON     = flag.Bool("log-json", false, "emit the access log as JSON lines instead of text")
		accessLog   = flag.Bool("access-log", true, "log one structured line per request (method, path, status, duration, request ID)")
	)
	flag.Parse()

	var logger *slog.Logger
	if *accessLog {
		if *logJSON {
			logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
		} else {
			logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
		}
	}
	var traceSink io.Writer
	if *traceLog != "" {
		f, err := os.OpenFile(*traceLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("ocasd: -trace-log: %v", err)
		}
		defer f.Close()
		traceSink = f
	}

	var cat *catalog.Catalog
	if *dataDir != "" {
		var err error
		cat, err = catalog.Open(*dataDir, catalog.Options{FlushRows: *flushRows})
		if err != nil {
			log.Fatalf("ocasd: open catalog %s: %v", *dataDir, err)
		}
		st := cat.Stats()
		log.Printf("ocasd: catalog %s: %d tables, %d rows in %d segments",
			*dataDir, st.Tables, st.Rows, st.Segments)
	}

	srv := service.New(service.Config{
		CacheSize:         *cacheSize,
		TemplateCacheSize: *tmplSize,
		MaxInflight:       *maxInflight,
		Timeout:           *timeout,
		MaxExecRows:       *maxExecRows,
		Catalog:           cat,
		TraceRing:         *traceRing,
		TraceLog:          traceSink,
		AccessLog:         logger,
	})
	store := srv.Store()
	if *persist != "" {
		start := time.Now()
		if err := store.Load(*persist); err != nil {
			// A bad snapshot should not keep the daemon down: log it and
			// start cold (Load installs nothing of a file it refuses). The
			// file is rewritten on clean shutdown.
			log.Printf("ocasd: load %s: %v (starting with a cold cache)", *persist, err)
		} else if n := store.Stats().Plans.Size; n > 0 {
			log.Printf("ocasd: loaded %d plans from %s in %.1f ms",
				n, *persist, float64(time.Since(start).Microseconds())/1000)
		}
	}

	if *pprofAddr != "" {
		// Profiling gets its own mux on its own listener: the serving mux
		// never exposes the pprof endpoints, so an operator can firewall the
		// profiling port independently of the API.
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("ocasd: pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, pmux); err != nil {
				log.Printf("ocasd: pprof server: %v", err)
			}
		}()
	}

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("ocasd: listening on %s (cache %d plans, %d concurrent searches, %s budget)",
		*addr, *cacheSize, *maxInflight, *timeout)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatalf("ocasd: %v", err)
	case sig := <-sigc:
		log.Printf("ocasd: %v, shutting down", sig)
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("ocasd: shutdown: %v", err)
	}
	if cat != nil {
		// Close flushes each table's buffered rows into a final segment, so
		// a clean shutdown leaves every ingested row durable on disk.
		if err := cat.Close(); err != nil {
			log.Printf("ocasd: close catalog: %v", err)
			os.Exit(1)
		}
	}
	if *persist != "" {
		if err := store.Save(*persist); err != nil {
			log.Printf("ocasd: save %s: %v", *persist, err)
			os.Exit(1)
		}
		log.Printf("ocasd: persisted %d plans to %s", store.Stats().Plans.Size, *persist)
	}
}
