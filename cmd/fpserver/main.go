// Command fpserver runs Fuzzy Prophet as a long-running multi-tenant HTTP
// service: scenarios are compiled and registered over the wire, sessions
// hold slider state server-side, renders stream with fingerprint reuse
// shared across every client of a scenario, and the reuse state survives
// restarts through disk snapshots.
//
//	fpserver -addr :8080 -snapshot-dir /var/lib/fpserver
//
// Then drive the paper workflow with curl (see the README's "Running the
// server" section for the full tour):
//
//	curl -s localhost:8080/scenarios -d '{"sql": "DECLARE PARAMETER ..."}'
//	curl -s localhost:8080/scenarios/<id>/sessions -X POST -d '{}'
//	curl -s localhost:8080/sessions/<id>/render
//
// For fleet-scale rendering, run shard workers and point a coordinator at
// them (see the README's "World sharding" section): every render's Monte
// Carlo world range is split across the workers and stitched back
// bit-identically, with per-shard retry and local fallback.
//
//	fpserver -worker -addr :8081
//	fpserver -worker -addr :8082
//	fpserver -addr :8080 -workers http://localhost:8081,http://localhost:8082
//
// A SIGINT/SIGTERM shuts down gracefully: in-flight requests finish,
// sessions drain, and every scenario's reuse cache is snapshotted so the
// next boot starts warm.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"strings"
	"time"

	fp "fuzzyprophet"
	"fuzzyprophet/internal/buildinfo"
	"fuzzyprophet/internal/cli"
	"fuzzyprophet/internal/server"
)

func main() {
	var (
		addr             = flag.String("addr", ":8080", "listen address")
		worlds           = flag.Int("worlds", 400, "default Monte Carlo worlds per point")
		maxSessions      = flag.Int("max-sessions", 256, "concurrent session limit (excess opens get 429)")
		sessionTTL       = flag.Duration("session-ttl", 15*time.Minute, "evict sessions idle longer than this")
		snapshotDir      = flag.String("snapshot-dir", "", "directory for reuse snapshots (empty = no persistence)")
		snapshotInterval = flag.Duration("snapshot-interval", time.Minute, "how often to persist reuse caches")
		storeBudget      = flag.Int64("store-budget", 0, "per-scenario basis-store budget in bytes (0 = unbounded)")
		spillDir         = flag.String("spill-dir", "", "directory for out-of-core basis spill (empty = RAM-only stores; ignored with -worker)")
		spillBudget      = flag.Int64("spill-budget", 0, "per-scenario basis spill disk budget in bytes (0 = unbounded)")
		enablePprof      = flag.Bool("pprof", false, "mount net/http/pprof handlers under /debug/pprof/ (do not expose publicly)")
		workerMode       = flag.Bool("worker", false, "run as a shard worker: serve only POST /shard/render (+ health/metrics)")
		workerURLs       = flag.String("workers", "", "comma-separated shard-worker base URLs; renders fan out across them")
		requestTimeout   = flag.Duration("request-timeout", time.Minute, "server-side deadline budget per render/evaluate request; ?timeout= can shorten it (<0 disables)")
		maxRenders       = flag.Int("max-concurrent-renders", 0, "concurrent render/evaluate limit; excess queues briefly then gets 429 (0 = unbounded)")
		slowRender       = flag.Duration("slow-render-threshold", time.Second, "log renders at/above this duration and retain their traces at /debug/traces (<0 disables)")
		version          = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("fpserver"))
		return
	}

	ctx, stop := cli.SignalContext()
	defer stop()

	var workers []string
	for _, u := range strings.Split(*workerURLs, ",") {
		if u = strings.TrimSpace(u); u != "" {
			workers = append(workers, strings.TrimRight(u, "/"))
		}
	}
	if *workerMode && len(workers) > 0 {
		cli.Fatal("fpserver", fmt.Errorf("-worker and -workers are mutually exclusive (a worker never fans out)"))
	}

	if err := run(ctx, config{
		addr:             *addr,
		worlds:           *worlds,
		maxSessions:      *maxSessions,
		sessionTTL:       *sessionTTL,
		snapshotDir:      *snapshotDir,
		snapshotInterval: *snapshotInterval,
		storeBudget:      *storeBudget,
		spillDir:         *spillDir,
		spillBudget:      *spillBudget,
		enablePprof:      *enablePprof,
		workerMode:       *workerMode,
		workers:          workers,
		requestTimeout:   *requestTimeout,
		maxRenders:       *maxRenders,
		slowRender:       *slowRender,
	}); err != nil {
		cli.Fatal("fpserver", err)
	}
}

type config struct {
	addr             string
	worlds           int
	maxSessions      int
	sessionTTL       time.Duration
	snapshotDir      string
	snapshotInterval time.Duration
	storeBudget      int64
	spillDir         string
	spillBudget      int64
	enablePprof      bool
	workerMode       bool
	workers          []string
	requestTimeout   time.Duration
	maxRenders       int
	slowRender       time.Duration
}

func run(ctx context.Context, cfg config) error {
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	logger.Info("starting", "build", buildinfo.String("fpserver"))

	sys, err := fp.New(fp.WithDemoModels())
	if err != nil {
		return err
	}
	srv, err := server.New(server.Config{
		System:               sys,
		DefaultWorlds:        cfg.worlds,
		MaxSessions:          cfg.maxSessions,
		SessionTTL:           cfg.sessionTTL,
		SnapshotDir:          cfg.snapshotDir,
		SnapshotInterval:     cfg.snapshotInterval,
		StoreBudget:          cfg.storeBudget,
		SpillDir:             cfg.spillDir,
		SpillBudget:          cfg.spillBudget,
		EnablePprof:          cfg.enablePprof,
		WorkerMode:           cfg.workerMode,
		Workers:              cfg.workers,
		RequestTimeout:       cfg.requestTimeout,
		MaxConcurrentRenders: cfg.maxRenders,
		Log:                  logger,
		SlowRenderThreshold:  cfg.slowRender,
	})
	if err != nil {
		return err
	}

	httpSrv := &http.Server{Addr: cfg.addr, Handler: srv}
	errCh := make(chan error, 1)
	go func() {
		switch {
		case cfg.workerMode:
			logger.Info("listening", "addr", cfg.addr, "role", "shard worker")
		case len(cfg.workers) > 0:
			logger.Info("listening", "addr", cfg.addr, "role", "coordinator",
				"workers", strings.Join(cfg.workers, ","), "snapshots", orNone(cfg.snapshotDir))
		default:
			logger.Info("listening", "addr", cfg.addr, "snapshots", orNone(cfg.snapshotDir))
		}
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		srv.Close()
		return err
	case <-ctx.Done():
	}

	logger.Info("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	shutdownErr := httpSrv.Shutdown(shutdownCtx)
	if closeErr := srv.Close(); closeErr != nil {
		logger.Error("final snapshot failed", "err", closeErr)
		if shutdownErr == nil {
			shutdownErr = closeErr
		}
	}
	if shutdownErr != nil && !errors.Is(shutdownErr, http.ErrServerClosed) {
		return fmt.Errorf("shutdown: %w", shutdownErr)
	}
	logger.Info("bye")
	return nil
}

func orNone(s string) string {
	if s == "" {
		return "none"
	}
	return s
}
