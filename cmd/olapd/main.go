// Command olapd serves a database over the engine's binary wire
// protocol. One process owns the database files (the engine is
// single-writer); any number of clients connect with the client
// package or olapcli -connect.
//
// Usage:
//
//	olapd -db sales.db [-listen 127.0.0.1:7432] [-obs 127.0.0.1:9090]
//	      [-max-concurrent N] [-queue-depth N] [-slow-ms 100] [-cache-mb 64]
//	      [-compact-interval 5s] [-delta-max-mb 64]
//
// HTAP ingest: clients push cell states with Ingest frames; they land
// in the WAL-backed delta store and are visible to queries immediately.
// -compact-interval runs the background compactor that folds them into
// the chunk store; -delta-max-mb bounds the delta store, applying
// backpressure to ingest until a compaction drains it.
//
// SIGINT/SIGTERM drain gracefully: in-flight queries finish (up to
// -drain-timeout), new ones are refused with a typed shutdown error,
// and the WAL closes cleanly before exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	repro "repro"
	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	path := flag.String("db", "olap.db", "database path")
	listen := flag.String("listen", "127.0.0.1:7432", "query protocol listen address")
	obsAddr := flag.String("obs", "", "serve /metrics, /healthz, /debug/queries, and /debug/pprof on this address (e.g. 127.0.0.1:9090)")
	maxConcurrent := flag.Int("max-concurrent", 0, "max queries running at once (0 = GOMAXPROCS)")
	queueDepth := flag.Int("queue-depth", 0, "max queries waiting for a slot (0 = 2x max-concurrent, -1 = none)")
	batchRows := flag.Int("batch-rows", 0, "result rows per wire frame (0 = protocol default)")
	slowMS := flag.Int("slow-ms", 0, "log queries slower than this many milliseconds (0 = off)")
	cacheMB := flag.Int("cache-mb", 0, "mid-tier query cache size in MiB, split between result and chunk caches (0 = off)")
	workers := flag.Int("workers", 0, "default intra-query parallel degree per session (0 = GOMAXPROCS, 1 = sequential)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight queries on shutdown")
	compactInterval := flag.Duration("compact-interval", 0, "background delta compaction interval (0 = no background compactor; compact only on explicit request)")
	deltaMaxMB := flag.Int("delta-max-mb", 0, "delta store byte budget in MiB; ingest blocks over it until a compaction drains (0 = unlimited)")
	flag.Parse()

	log := slog.New(slog.NewTextHandler(os.Stderr, nil))
	fatal := func(err error) {
		fmt.Fprintf(os.Stderr, "olapd: %v\n", err)
		os.Exit(1)
	}

	db, err := repro.Open(repro.Options{
		Path:             *path,
		DeltaBudgetBytes: int64(*deltaMaxMB) << 20,
	})
	if err != nil {
		fatal(err)
	}
	if *cacheMB > 0 {
		db.EnableQueryCache(int64(*cacheMB) << 20)
	}
	if *compactInterval > 0 {
		db.StartCompactor(*compactInterval)
	}

	cfg := server.Config{
		Addr:          *listen,
		MaxConcurrent: *maxConcurrent,
		QueueDepth:    *queueDepth,
		BatchRows:     *batchRows,
		Workers:       *workers,
	}
	if *slowMS > 0 {
		cfg.SlowQueryLog = log
		cfg.SlowQueryMin = time.Duration(*slowMS) * time.Millisecond
	}
	srv := server.New(server.Local{DB: db}, cfg)
	if err := srv.Start(); err != nil {
		db.Close()
		fatal(err)
	}
	log.Info("olapd serving", slog.String("addr", srv.Addr().String()), slog.String("db", *path))

	if *obsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", obs.Handler(db.Registry()))
		// The flight recorder: the last N completed queries' profiles and
		// the slowest seen, as JSON (?id=<query-id> for one, ?n= to cap).
		mux.Handle("/debug/queries", db.FlightRecorder().Handler())
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintln(w, "ok")
		})
		// Profiling. Executor and worker goroutines run under pprof labels
		// (query_id, engine, fingerprint, worker), so CPU samples here can
		// be cut per query.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		// Listen explicitly so ":0" reports the bound port in the log.
		lis, err := net.Listen("tcp", *obsAddr)
		if err != nil {
			db.Close()
			fatal(fmt.Errorf("obs listen: %w", err))
		}
		go func() {
			if err := http.Serve(lis, mux); err != nil {
				log.Error("obs server", slog.Any("err", err))
			}
		}()
		log.Info("observability endpoint", slog.String("addr", lis.Addr().String()))
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	log.Info("draining", slog.String("signal", s.String()))

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Warn("drain timeout; canceling remaining queries", slog.Any("err", err))
	}
	// With every query finished (or hard-canceled), the WAL can close.
	if err := db.Close(); err != nil {
		fatal(fmt.Errorf("close: %w", err))
	}
	log.Info("olapd stopped")
}
