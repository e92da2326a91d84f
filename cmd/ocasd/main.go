// Command ocasd is the synthesis daemon: a long-running HTTP service that
// memoizes OCAS synthesis behind a content-addressed plan cache, so a plan
// is synthesized once and served many times.
//
// Usage:
//
//	ocasd -addr :8080 [-persist plans.json] [-data ./data] \
//	      [-max-inflight 2] [-timeout 60s] \
//	      [-max-exec-rows 1048576] [-pprof ADDR]
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
// the request's trace from the ring of the 256 most recent, and tags its
// line in the text access log on stderr.
//
// With -persist, the plan cache is loaded at startup and written back on
// SIGINT/SIGTERM, so a restarted daemon serves every request it had answered
// as a hit. A missing or corrupt snapshot is logged and the daemon starts
// cold, with nothing of the file installed; a failed save at shutdown is
// logged and exits nonzero.
// The cache holds 1,024 plans and 64 templates. The template tier memoizes
// the search space per request *shape*, so a known shape at new input
// cardinalities re-optimizes in milliseconds instead of re-searching. It
// lives in the process and is not in the snapshot: after a restart the first
// new cardinality of a shape searches once (miss) and captures it again.
//
// With -data, the daemon opens the durable table catalog rooted at that
// directory: the /tables endpoints come alive and /execute resolves
// exec.tables bindings against it. Ingested rows buffer in memory and flush
// to columnar segment files every 65,536 rows; the graceful-shutdown path
// flushes the remainder, so a SIGTERM-stopped daemon restarts with every
// ingested row durable.
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
		persist     = flag.String("persist", "", "plan-cache snapshot file (loaded at startup, saved at shutdown; plans only, templates are per-process)")
		maxInflight = flag.Int("max-inflight", 2, "maximum concurrent syntheses, searches and recaptures (admission control; cache and template hits take no slot, and each executor lane holds one of GOMAXPROCS execution slots)")
		timeout     = flag.Duration("timeout", 60*time.Second, "per-request synthesis budget (requests may lower it via timeoutMs)")
		maxExecRows = flag.Int64("max-exec-rows", 1<<20, "largest per-input row count POST /execute will run")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this separate address (e.g. localhost:6060); empty disables profiling")
		dataDir     = flag.String("data", "", "durable table catalog directory; empty disables the /tables endpoints and exec.tables bindings")
	)
	flag.Parse()

	var cat *catalog.Catalog
	if *dataDir != "" {
		var err error
		cat, err = catalog.Open(*dataDir, catalog.Options{})
		if err != nil {
			log.Fatalf("ocasd: open catalog %s: %v", *dataDir, err)
		}
		st := cat.Stats()
		log.Printf("ocasd: catalog %s: %d tables, %d rows in %d segments",
			*dataDir, st.Tables, st.Rows, st.Segments)
	}

	srv := service.New(service.Config{
		MaxInflight: *maxInflight,
		Timeout:     *timeout,
		MaxExecRows: *maxExecRows,
		Catalog:     cat,
		AccessLog:   slog.New(slog.NewTextHandler(os.Stderr, nil)),
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
	log.Printf("ocasd: listening on %s (%d concurrent searches, %s budget)",
		*addr, *maxInflight, *timeout)

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
