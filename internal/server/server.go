// Package server is Fuzzy Prophet's multi-tenant HTTP service layer: the
// paper's interactive what-if exploration (sliders, progressive renders,
// shared fingerprint reuse) exposed as a long-running JSON service instead
// of a library linked into one binary.
//
// Three components grow the architecture toward the ROADMAP's
// production-scale goal:
//
//   - A scenario registry: a concurrent map of compiled scenarios with
//     ref-counting, so re-registering an ID never breaks sessions opened
//     against the previous compilation.
//   - A session manager: TTL-based idle eviction, per-session render
//     single-flight (a burst of slider moves coalesces into one
//     simulation), and max-sessions backpressure returning 429.
//   - A reuse-snapshot store: each scenario's shared fingerprint-reuse
//     cache is persisted to disk periodically and on shutdown, and
//     warm-started at registration — a restarted server answers its first
//     render from remapped bases instead of cold Monte Carlo.
//
// Endpoints:
//
//	POST   /scenarios                 compile + register (returns scenario ID)
//	GET    /scenarios                 list registered scenarios
//	GET    /scenarios/{id}            scenario details + reuse stats
//	DELETE /scenarios/{id}            unregister (sessions keep the old entry)
//	POST   /scenarios/{id}/sessions   open an online session
//	POST   /scenarios/{id}/evaluate   batch point evaluation (shared reuse)
//	GET    /sessions/{id}             session details
//	PUT    /sessions/{id}/params      slider moves
//	GET    /sessions/{id}/render      JSON graph with CI95 bands + reuse stats;
//	                                  ?stream=1 streams progressive SSE frames
//	DELETE /sessions/{id}             close the session
//	GET    /healthz                   liveness + basic occupancy
//	GET    /metrics                   Prometheus text: reuse hit rate, store
//	                                  occupancy, session count, render latency
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"path/filepath"
	"runtime/debug"
	rpprof "runtime/pprof"
	"strconv"
	"sync"
	"time"

	fp "fuzzyprophet"
	"fuzzyprophet/internal/obs"
)

// Config configures a Server. Zero fields take the documented defaults.
type Config struct {
	// System compiles scenarios (its VG registry is shared by all of
	// them). Required.
	System *fp.System
	// DefaultWorlds is the world count used when a request does not
	// specify one (default 400).
	DefaultWorlds int
	// MaxSessions bounds concurrently open sessions; excess opens get 429
	// (default 256; <0 means unbounded).
	MaxSessions int
	// SessionTTL evicts sessions idle longer than this (default 15m;
	// <0 disables eviction).
	SessionTTL time.Duration
	// SnapshotDir enables reuse-snapshot persistence when non-empty: one
	// file per scenario fingerprint, loaded at registration and written
	// every SnapshotInterval and at Close.
	SnapshotDir string
	// SnapshotInterval is the periodic persistence cadence (default 60s;
	// <0 disables the ticker, leaving registration-load and Close-save).
	SnapshotInterval time.Duration
	// StoreBudget bounds each scenario's basis-distribution store in
	// bytes (0 = unbounded). Ignored in WorkerMode, which keeps no bases.
	StoreBudget int64
	// SpillDir enables out-of-core basis storage when non-empty: each
	// scenario's bases evicted from StoreBudget are demoted to column
	// files under SpillDir/bases/<fingerprint> and read back on demand,
	// CRC-checked at every read. Reopened crash-safely: torn or corrupt
	// files are quarantined and their bases re-simulated. Sessions with a custom
	// seed base stay RAM-only (their samples are incompatible with the
	// shared tier). Ignored in WorkerMode, which keeps no bases.
	SpillDir string
	// SpillBudget bounds each basis spill tier's disk usage in bytes (0 =
	// unbounded). Over-budget column files are dropped least-recently-used.
	SpillBudget int64
	// EnablePprof mounts net/http/pprof handlers under /debug/pprof/ so
	// the serving path can be profiled in place (fpserver -pprof). Leave
	// off on exposed deployments: the profiles reveal internals.
	EnablePprof bool
	// Workers lists shard-worker base URLs (e.g. "http://10.0.0.2:8080").
	// When non-empty, session renders and batch evaluations fan each
	// point's world range out across them, one shard per worker, with
	// hedging, per-shard retry on the remaining workers, per-worker circuit
	// breakers and local fallback when all fail; every timing of that loop
	// is a constant or derives from observed shard latencies. The workers
	// must run the same VG model registry (verified per shard by scenario
	// fingerprint). Empty = evaluate locally.
	Workers []string
	// WorkerMode serves ONLY the shard-render endpoint (plus health,
	// metrics and optional pprof): the fpserver -worker role. Scenario
	// registration, sessions and snapshots are disabled.
	WorkerMode bool
	// RequestTimeout is the server-side deadline budget applied to every
	// render/evaluate request (default 1m; <0 disables). A per-request
	// ?timeout= query parameter can shorten — never extend — it. The
	// budget propagates to shard fan-out (per-shard timeouts derive from
	// the remaining budget) and to workers via the X-FP-Budget-Ms header.
	RequestTimeout time.Duration
	// MaxConcurrentRenders bounds renders + batch evaluations running at
	// once; excess requests queue (deadline-aware, up to 1s) and are then
	// shed with 429 + Retry-After (default 0 = unbounded).
	MaxConcurrentRenders int
	// Log receives the server's operational log records, each with a fixed
	// message and fixed attribute keys (docs/ARCHITECTURE.md, "Log
	// inventory"). Default: a discard logger.
	Log *slog.Logger
	// SlowRenderThreshold marks renders at or above this duration as slow:
	// they are logged via Log with their render ID and retained (full span
	// tree) in the /debug/traces ring. Default 1s; <0 disables both.
	SlowRenderThreshold time.Duration
}

func (c Config) withDefaults() Config {
	if c.DefaultWorlds <= 0 {
		c.DefaultWorlds = 400
	}
	if c.MaxSessions == 0 {
		c.MaxSessions = 256
	}
	if c.SessionTTL == 0 {
		c.SessionTTL = 15 * time.Minute
	}
	if c.SnapshotInterval == 0 {
		c.SnapshotInterval = time.Minute
	}
	if c.Log == nil {
		c.Log = slog.New(slog.DiscardHandler)
	}
	if c.SlowRenderThreshold == 0 {
		c.SlowRenderThreshold = time.Second
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = defaultRequestTimeout
	} else if c.RequestTimeout < 0 {
		c.RequestTimeout = 0
	}
	return c
}

// Server is the HTTP service. It implements http.Handler; run it under any
// http.Server and call Close on shutdown (final snapshot + session drain).
type Server struct {
	cfg       Config
	registry  *Registry
	sessions  *Manager
	snapshots *SnapshotStore // nil when persistence is disabled
	metrics   *metrics
	traces    *traceRing
	mux       *http.ServeMux

	// shardCache caches worker-side compiled scenarios by fingerprint;
	// shardClient is the coordinator-side HTTP client for shard fan-out;
	// workerStates is the coordinator's per-worker protocol book-keeping
	// (warm fingerprints, circuit breaker), shared by every scenario's
	// worker pool.
	shardCache   *shardScenarios
	shardClient  *http.Client
	workerStates []*workerState

	// gate is the render admission gate (concurrency bound, load shedding,
	// shutdown draining); shardLatency holds successful shard round-trip
	// times, from which the fan-out derives its hedge delay and attempt
	// deadline.
	gate         *admission
	shardLatency *latencyWindow

	stop      chan struct{}
	loops     sync.WaitGroup
	closeOnce sync.Once
	closeErr  error
}

// New builds a Server from cfg and starts its background loops (idle
// eviction, periodic snapshots).
func New(cfg Config) (*Server, error) {
	if cfg.System == nil {
		return nil, fmt.Errorf("server: Config.System is required")
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:        cfg,
		registry:   NewRegistry(),
		sessions:   NewManager(cfg.MaxSessions, cfg.SessionTTL),
		metrics:    newMetrics(),
		traces:     &traceRing{},
		mux:        http.NewServeMux(),
		shardCache: newShardScenarios(),
		stop:       make(chan struct{}),
	}
	s.gate = newAdmission(cfg.MaxConcurrentRenders)
	s.shardLatency = &latencyWindow{}
	// No client-level timeout: each attempt's deadline is on its context,
	// derived from the latency window and the request's remaining budget.
	s.shardClient = &http.Client{}
	s.workerStates = newWorkerStates(cfg.Workers)
	if cfg.SnapshotDir != "" && !cfg.WorkerMode {
		store, err := NewSnapshotStore(cfg.SnapshotDir)
		if err != nil {
			return nil, err
		}
		s.snapshots = store
	}
	s.routes()
	s.startLoops()
	return s, nil
}

func (s *Server) routes() {
	// Every server can evaluate world shards; a worker serves only these.
	s.mux.HandleFunc("POST /shard/render", s.handleShardRender)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/traces", s.handleTraces)
	if s.cfg.EnablePprof {
		// Registered explicitly: importing net/http/pprof for side effects
		// would mount the handlers on the DefaultServeMux, not ours.
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	if s.cfg.WorkerMode {
		return
	}
	s.mux.HandleFunc("POST /scenarios", s.handleRegister)
	s.mux.HandleFunc("GET /scenarios", s.handleListScenarios)
	s.mux.HandleFunc("GET /scenarios/{id}", s.handleGetScenario)
	s.mux.HandleFunc("DELETE /scenarios/{id}", s.handleDeleteScenario)
	s.mux.HandleFunc("POST /scenarios/{id}/sessions", s.handleOpenSession)
	s.mux.HandleFunc("POST /scenarios/{id}/evaluate", s.handleEvaluate)
	s.mux.HandleFunc("GET /sessions/{id}", s.handleGetSession)
	s.mux.HandleFunc("PUT /sessions/{id}/params", s.handleSetParams)
	s.mux.HandleFunc("GET /sessions/{id}/render", s.handleRender)
	s.mux.HandleFunc("GET /sessions/{id}/map", s.handleExplorationMap)
	s.mux.HandleFunc("DELETE /sessions/{id}", s.handleCloseSession)
}

func (s *Server) startLoops() {
	if s.cfg.SessionTTL > 0 {
		interval := s.cfg.SessionTTL / 4
		if interval < time.Second {
			interval = time.Second
		}
		s.loops.Add(1)
		go func() {
			defer s.loops.Done()
			defer s.recoverToLog("session-sweep loop")
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-s.stop:
					return
				case now := <-t.C:
					if n := s.sessions.Sweep(now); n > 0 {
						s.cfg.Log.Info("idle sessions evicted", "count", n)
					}
				}
			}
		}()
	}
	if s.snapshots != nil && s.cfg.SnapshotInterval > 0 {
		s.loops.Add(1)
		go func() {
			defer s.loops.Done()
			defer s.recoverToLog("snapshot loop")
			t := time.NewTicker(s.cfg.SnapshotInterval)
			defer t.Stop()
			for {
				select {
				case <-s.stop:
					return
				case <-t.C:
					if err := s.snapshots.SaveAll(s.registry.List()); err != nil {
						s.cfg.Log.Error("snapshot save failed", "err", err)
					}
				}
			}
		}()
	}
}

// Close drains in-flight renders (new requests get 503 + Retry-After the
// moment draining begins), stops the background loops, drains sessions and
// writes a final snapshot of every registered scenario's reuse cache.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		// Flip to draining first and wait for admitted renders: the final
		// snapshot then captures their reuse-cache contributions, and no
		// render races the spill-tier teardown below. In-flight work is
		// bounded by the request deadline budget.
		s.gate.drain()
		close(s.stop)
		s.loops.Wait()
		s.sessions.CloseAll()
		if s.snapshots != nil {
			s.closeErr = s.snapshots.SaveAll(s.registry.List())
		}
		// Flush spill-tier manifests after sessions are
		// drained and the final snapshot is written.
		for _, e := range s.registry.List() {
			if err := e.Cache.Close(); err != nil && s.closeErr == nil {
				s.closeErr = err
			}
		}
	})
	return s.closeErr
}

// ServeHTTP dispatches to the route table, counting every request. It
// rejects new work while draining (health and metrics stay reachable for
// orchestrators) and isolates handler panics: a panicking request answers
// 500 while every other in-flight request continues untouched.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.metrics.requests.Add(1)
	if s.gate.isDraining() && r.URL.Path != "/healthz" && r.URL.Path != "/metrics" {
		w.Header().Set("Retry-After", "1")
		s.error(w, http.StatusServiceUnavailable, errDraining)
		return
	}
	rw := &recoverWriter{ResponseWriter: w}
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		if rec == http.ErrAbortHandler {
			panic(rec) // net/http's own "abort this response" signal
		}
		s.metrics.panics.Add(1)
		s.cfg.Log.Error("panic serving request", "method", r.Method, "path", r.URL.Path, "panic", fmt.Sprint(rec), "stack", string(debug.Stack()))
		if !rw.wrote {
			s.json(rw.ResponseWriter, http.StatusInternalServerError, map[string]any{
				"error": fmt.Sprintf("internal error: %v", rec),
				"code":  "panic",
			})
		}
	}()
	s.mux.ServeHTTP(rw, r)
}

// ---- request/response shapes ----

type tableDef struct {
	Name    string   `json:"name"`
	Columns []string `json:"columns"`
	Rows    [][]any  `json:"rows"`
}

type registerRequest struct {
	// SQL is the scenario script (required).
	SQL string `json:"sql"`
	// ID optionally names the scenario; default is the fingerprint's
	// first 12 hex digits.
	ID string `json:"id,omitempty"`
	// Tables are deterministic side tables the query's FROM may join.
	Tables []tableDef `json:"tables,omitempty"`
}

type paramJSON struct {
	Name   string `json:"name"`
	Values []any  `json:"values"`
}

type scenarioJSON struct {
	ID            string         `json:"id"`
	Fingerprint   string         `json:"fingerprint"`
	Generation    int            `json:"generation"`
	Params        []paramJSON    `json:"params"`
	OutputColumns []string       `json:"output_columns"`
	SpaceSize     int            `json:"space_size"`
	Warm          bool           `json:"warm_start"`
	Replaced      bool           `json:"replaced,omitempty"`
	Refs          int64          `json:"refs"`
	Store         *fp.StoreStats `json:"store,omitempty"`
	ReuseCounts   map[string]int `json:"reuse_counts,omitempty"`
	CreatedAt     time.Time      `json:"created_at"`
}

type openSessionRequest struct {
	// Worlds overrides the server's default world count.
	Worlds int `json:"worlds,omitempty"`
	// Seed, when nonzero, gives the session a private seed base AND a
	// private reuse engine (the shared cache is bound to one seed base).
	Seed uint64 `json:"seed,omitempty"`
	// Params are initial slider positions.
	Params map[string]any `json:"params,omitempty"`
	// SketchOnly makes the session's sharded renders exchange merged
	// per-column sketches instead of per-world sample vectors (wire
	// protocol v4's compressed response mode). Moments are exact,
	// quantiles carry the t-digest error bound.
	SketchOnly bool `json:"sketch_only,omitempty"`
	// AllowDegraded opts the session's renders into graceful degradation:
	// when the deadline budget expires mid-render, the response carries
	// the worlds (and sweep points) completed so far, flagged
	// "degraded": true with "worlds_completed", instead of a 504.
	AllowDegraded bool `json:"allow_degraded,omitempty"`
}

type sessionJSON struct {
	ID          string          `json:"id"`
	ScenarioID  string          `json:"scenario_id"`
	Axis        string          `json:"axis"`
	Worlds      int             `json:"worlds"`
	Params      map[string]any  `json:"params"`
	Stats       fp.SessionStats `json:"stats"`
	Renders     int64           `json:"renders"`
	Coalesced   int64           `json:"coalesced"`
	ReuseCounts map[string]int  `json:"reuse_counts,omitempty"`
	CreatedAt   time.Time       `json:"created_at"`
}

type renderResponse struct {
	Graph *fp.Graph `json:"graph"`
	// Coalesced reports the frame was served by single-flight (shared
	// with, or cached from, another request) rather than freshly
	// simulated for this call.
	Coalesced   bool           `json:"coalesced"`
	ReuseCounts map[string]int `json:"reuse_counts,omitempty"`
	// RenderID and Trace are present only with ?trace=1 on a non-coalesced
	// render: the span tree covers every stage of this render, including
	// grafted worker subtrees of sharded evaluations.
	RenderID string    `json:"render_id,omitempty"`
	Trace    *obs.Node `json:"trace,omitempty"`
	// Degraded marks a partial frame: the deadline budget expired
	// mid-render and the session opted in via allow_degraded. The graph
	// carries the points completed so far; WorldsCompleted is the minimum
	// world count any returned point was estimated from.
	Degraded        bool `json:"degraded,omitempty"`
	WorldsCompleted int  `json:"worlds_completed,omitempty"`
}

type evaluateRequest struct {
	Points []map[string]any `json:"points"`
	Worlds int              `json:"worlds,omitempty"`
	// SketchOnly makes sharded evaluations exchange merged per-column
	// sketches instead of per-world sample vectors.
	SketchOnly bool `json:"sketch_only,omitempty"`
	// AllowDegraded opts the batch into graceful degradation under the
	// deadline budget: points evaluated before the budget expired are
	// returned flagged degraded instead of the whole batch failing 504.
	AllowDegraded bool `json:"allow_degraded,omitempty"`
}

// ---- handlers ----

const maxBodyBytes = 8 << 20

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.SQL == "" {
		s.error(w, http.StatusBadRequest, fmt.Errorf("missing \"sql\""))
		return
	}
	scn, err := compileScenario(s.cfg.System, req.SQL, req.Tables)
	if err != nil {
		s.error(w, http.StatusBadRequest, err)
		return
	}
	fingerprint := scn.Fingerprint()
	id := req.ID
	if id == "" {
		id = fingerprint[:12]
	}

	cacheOpts := []fp.EvalOption{fp.WithStoreBudget(s.cfg.StoreBudget)}
	if s.cfg.SpillDir != "" {
		// One spill tier per scenario content fingerprint: bases are only
		// valid for the exact compiled scenario (and the default seed base),
		// and the subdir keying means a re-registered identical scenario —
		// or a restart — re-addresses its spilled bases without resimulation.
		cacheOpts = append(cacheOpts,
			fp.WithSpillDir(filepath.Join(s.cfg.SpillDir, "bases", fingerprint)),
			fp.WithSpillBudget(s.cfg.SpillBudget))
	}
	var cache *fp.ReuseCache
	warm := false
	// A registration of content some current entry holds — a re-registration
	// of the same id, or another id — shares that entry's live cache: it is
	// at least as fresh as any disk snapshot, sessions of every entry keep
	// sharing one reuse engine, and the spill directory keyed by the
	// fingerprint keeps one tier.
	if old, ok := s.registry.ByFingerprint(fingerprint); ok {
		cache, warm = old.Cache, true
	}
	if cache == nil && s.snapshots != nil {
		loaded, found, err := s.snapshots.Load(fingerprint, cacheOpts...)
		switch {
		case err != nil:
			s.cfg.Log.Warn("snapshot unusable, starting cold", "scenario", id, "err", err)
		case found:
			cache, warm = loaded, true
		}
	}
	if cache == nil {
		if cache, err = fp.NewReuseCache(cacheOpts...); err != nil {
			s.error(w, http.StatusInternalServerError, err)
			return
		}
	}

	entry := &ScenarioEntry{
		ID:          id,
		Fingerprint: fingerprint,
		Scenario:    scn,
		Cache:       cache,
		Warm:        warm,
		Source:      req.SQL,
		Tables:      req.Tables,
		CreatedAt:   time.Now(),
	}
	replaced := s.registry.Register(entry)
	s.cfg.Log.Info("scenario registered", "scenario", id, "fingerprint", fingerprint, "warm", warm, "replaced", replaced)
	resp := scenarioToJSON(entry, false)
	resp.Replaced = replaced
	s.json(w, http.StatusCreated, resp)
}

func (s *Server) handleListScenarios(w http.ResponseWriter, r *http.Request) {
	entries := s.registry.List()
	out := make([]scenarioJSON, len(entries))
	for i, e := range entries {
		out[i] = scenarioToJSON(e, false)
	}
	s.json(w, http.StatusOK, map[string]any{"scenarios": out})
}

func (s *Server) handleGetScenario(w http.ResponseWriter, r *http.Request) {
	entry, ok := s.registry.Get(r.PathValue("id"))
	if !ok {
		s.error(w, http.StatusNotFound, fmt.Errorf("unknown scenario %q", r.PathValue("id")))
		return
	}
	s.json(w, http.StatusOK, scenarioToJSON(entry, true))
}

func (s *Server) handleDeleteScenario(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.registry.Remove(id) {
		s.error(w, http.StatusNotFound, fmt.Errorf("unknown scenario %q", id))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleOpenSession(w http.ResponseWriter, r *http.Request) {
	var req openSessionRequest
	if !s.decode(w, r, &req) {
		return
	}
	entry, ok := s.registry.Acquire(r.PathValue("id"))
	if !ok {
		s.error(w, http.StatusNotFound, fmt.Errorf("unknown scenario %q", r.PathValue("id")))
		return
	}
	worlds := req.Worlds
	if worlds <= 0 {
		worlds = s.cfg.DefaultWorlds
	}
	opts := []fp.EvalOption{fp.WithWorlds(worlds)}
	if req.Seed != 0 {
		// A custom seed base changes every sample, so the session cannot
		// share the scenario cache (bound to the default base): it gets a
		// private reuse engine instead.
		opts = append(opts, fp.WithSeedBase(req.Seed), fp.WithStoreBudget(s.cfg.StoreBudget))
	} else {
		opts = append(opts, fp.WithReuseCache(entry.Cache))
	}
	// With workers configured, the session's renders fan each point's
	// world range out across them (shardable scenarios only; others keep
	// evaluating locally inside the executor).
	opts = append(opts, s.shardEvalOptions(entry)...)
	if req.SketchOnly {
		opts = append(opts, fp.WithSketchOnly())
	}
	if req.AllowDegraded {
		opts = append(opts, fp.WithAllowDegraded())
	}
	inner, err := entry.Scenario.OpenSession(opts...)
	if err != nil {
		entry.release()
		s.error(w, http.StatusBadRequest, err)
		return
	}
	sess, err := s.sessions.Open(entry, inner, worlds)
	if err != nil {
		entry.release()
		if errors.Is(err, ErrSessionLimit) {
			w.Header().Set("Retry-After", "1")
			s.error(w, http.StatusTooManyRequests, err)
			return
		}
		s.error(w, http.StatusInternalServerError, err)
		return
	}
	if len(req.Params) > 0 {
		if err := sess.SetParams(req.Params); err != nil {
			s.sessions.Close(sess.ID)
			s.error(w, http.StatusBadRequest, err)
			return
		}
	}
	s.json(w, http.StatusCreated, sessionToJSON(sess))
}

func (s *Server) handleGetSession(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.sessions.Get(r.PathValue("id"))
	if !ok {
		s.error(w, http.StatusNotFound, fmt.Errorf("unknown session %q", r.PathValue("id")))
		return
	}
	s.json(w, http.StatusOK, sessionToJSON(sess))
}

func (s *Server) handleSetParams(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.sessions.Get(r.PathValue("id"))
	if !ok {
		s.error(w, http.StatusNotFound, fmt.Errorf("unknown session %q", r.PathValue("id")))
		return
	}
	var params map[string]any
	if !s.decode(w, r, &params) {
		return
	}
	if len(params) == 0 {
		s.error(w, http.StatusBadRequest, fmt.Errorf("no parameters in body"))
		return
	}
	if err := sess.SetParams(params); err != nil {
		s.error(w, http.StatusBadRequest, err)
		return
	}
	s.json(w, http.StatusOK, map[string]any{"params": sess.Sess.Params()})
}

func (s *Server) handleRender(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.sessions.Get(r.PathValue("id"))
	if !ok {
		s.error(w, http.StatusNotFound, fmt.Errorf("unknown session %q", r.PathValue("id")))
		return
	}
	bctx, cancel, ok := s.withBudget(w, r)
	if !ok {
		return
	}
	defer cancel()
	if err := s.gate.acquire(bctx); err != nil {
		s.admissionError(w, err)
		return
	}
	defer s.gate.release()
	if r.URL.Query().Has("stream") || r.Header.Get("Accept") == "text/event-stream" {
		s.renderSSE(w, r.WithContext(bctx), sess)
		return
	}
	start := time.Now()
	// Every render records its spans: they feed the per-stage histograms
	// and the slow-render ring whether or not the client asked for
	// ?trace=1, which alone exports the trace (its tree, worker subtrees
	// included, goes into the response). Coalesced followers share the
	// leader's simulation but not its trace, so theirs are discarded below.
	tr := obs.New("render", obs.NewID())
	traced := r.URL.Query().Get("trace") == "1"
	if traced {
		tr.Export()
	}
	var (
		g         *fp.Graph
		coalesced bool
		err       error
	)
	rpprof.Do(bctx, rpprof.Labels("render_id", tr.ID(), "scenario", sess.Entry.ID), func(ctx context.Context) {
		g, coalesced, err = sess.Render(obs.With(ctx, tr.Root()))
	})
	if err != nil {
		s.metrics.renderErrors.Add(1)
		s.renderError(w, bctx, err)
		return
	}
	resp := renderResponse{
		Graph:           g,
		Coalesced:       coalesced,
		ReuseCounts:     sess.Sess.ReuseCounts(),
		Degraded:        g.Stats.Degraded,
		WorldsCompleted: g.Stats.WorldsCompleted,
	}
	if g.Stats.Degraded {
		s.metrics.degradedRenders.Add(1)
	}
	if coalesced {
		s.metrics.rendersCoalesced.Add(1)
	} else {
		dur := time.Since(start)
		s.metrics.rendersTotal.Add(1)
		s.metrics.renderLatency.observe(dur.Seconds())
		resp.Trace = s.observeTrace("render", sess.Entry.ID, sess.ID, tr, dur)
		if traced {
			resp.RenderID = tr.ID()
		}
	}
	s.json(w, http.StatusOK, resp)
}

// renderSSE streams RenderProgressive refinements as server-sent events:
// one "frame" event per world-count pass, then a closing "done" event.
func (s *Server) renderSSE(w http.ResponseWriter, r *http.Request, sess *Session) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.error(w, http.StatusNotAcceptable, fmt.Errorf("streaming unsupported by connection"))
		return
	}
	startWorlds := 64
	if v := r.URL.Query().Get("start_worlds"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			s.error(w, http.StatusBadRequest, fmt.Errorf("bad start_worlds %q", v))
			return
		}
		startWorlds = n
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)

	emit := func(event string, payload any) bool {
		data, err := json.Marshal(payload)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}

	start := time.Now()
	tr := obs.New("render", obs.NewID())
	var final *fp.Graph
	var err error
	sess.stream(func() {
		rpprof.Do(r.Context(), rpprof.Labels("render_id", tr.ID(), "scenario", sess.Entry.ID), func(ctx context.Context) {
			final, err = sess.Sess.RenderProgressive(obs.With(ctx, tr.Root()), startWorlds, func(g *fp.Graph, worlds int) bool {
				if r.Context().Err() != nil {
					return false
				}
				return emit("frame", map[string]any{"worlds": worlds, "graph": g})
			})
		})
	})
	if err != nil {
		s.metrics.renderErrors.Add(1)
		emit("error", map[string]any{"error": err.Error()})
		return
	}
	dur := time.Since(start)
	s.metrics.rendersTotal.Add(1)
	s.metrics.renderLatency.observe(dur.Seconds())
	if final.Stats.Degraded {
		s.metrics.degradedRenders.Add(1)
	}
	s.observeTrace("render-stream", sess.Entry.ID, sess.ID, tr, dur)
	emit("done", map[string]any{
		"render_id":    tr.ID(),
		"stats":        final.Stats,
		"reuse_counts": sess.Sess.ReuseCounts(),
	})
}

// handleExplorationMap serves the paper's Figure 4 exploration grid over
// two slider parameters (?rows=param&cols=param) as JSON.
func (s *Server) handleExplorationMap(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.sessions.Get(r.PathValue("id"))
	if !ok {
		s.error(w, http.StatusNotFound, fmt.Errorf("unknown session %q", r.PathValue("id")))
		return
	}
	rows, cols := r.URL.Query().Get("rows"), r.URL.Query().Get("cols")
	if rows == "" || cols == "" {
		s.error(w, http.StatusBadRequest, fmt.Errorf("need ?rows=<param>&cols=<param>"))
		return
	}
	data, err := sess.Sess.ExplorationMapJSON(rows, cols)
	if err != nil {
		s.error(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

func (s *Server) handleCloseSession(w http.ResponseWriter, r *http.Request) {
	if !s.sessions.Close(r.PathValue("id")) {
		s.error(w, http.StatusNotFound, fmt.Errorf("unknown session %q", r.PathValue("id")))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	var req evaluateRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Points) == 0 {
		s.error(w, http.StatusBadRequest, fmt.Errorf("no points in body"))
		return
	}
	entry, ok := s.registry.Acquire(r.PathValue("id"))
	if !ok {
		s.error(w, http.StatusNotFound, fmt.Errorf("unknown scenario %q", r.PathValue("id")))
		return
	}
	defer entry.release()
	bctx, cancel, ok := s.withBudget(w, r)
	if !ok {
		return
	}
	defer cancel()
	if err := s.gate.acquire(bctx); err != nil {
		s.admissionError(w, err)
		return
	}
	defer s.gate.release()
	worlds := req.Worlds
	if worlds <= 0 {
		worlds = s.cfg.DefaultWorlds
	}
	points := make([]map[string]any, len(req.Points))
	for i, pt := range req.Points {
		points[i] = make(map[string]any, len(pt))
		for k, v := range pt {
			points[i][k] = canonicalNumber(v)
		}
	}
	batchOpts := []fp.EvalOption{fp.WithWorlds(worlds), fp.WithReuseCache(entry.Cache)}
	batchOpts = append(batchOpts, s.shardEvalOptions(entry)...)
	if req.SketchOnly {
		batchOpts = append(batchOpts, fp.WithSketchOnly())
	}
	if req.AllowDegraded {
		batchOpts = append(batchOpts, fp.WithAllowDegraded())
	}
	start := time.Now()
	tr := obs.New("evaluate", obs.NewID())
	traced := r.URL.Query().Get("trace") == "1"
	if traced {
		tr.Export()
	}
	var res *fp.BatchResult
	var err error
	rpprof.Do(bctx, rpprof.Labels("render_id", tr.ID(), "scenario", entry.ID), func(ctx context.Context) {
		res, err = entry.Scenario.EvaluateBatch(obs.With(ctx, tr.Root()), points, batchOpts...)
	})
	if err != nil {
		s.renderError(w, bctx, err)
		return
	}
	if res.Degraded {
		s.metrics.degradedRenders.Add(1)
	}
	s.metrics.evaluatesTotal.Add(1)
	s.metrics.pointsEvaluated.Add(int64(len(points)))
	tree := s.observeTrace("evaluate", entry.ID, "", tr, time.Since(start))
	if traced {
		s.json(w, http.StatusOK, struct {
			*fp.BatchResult
			RenderID string    `json:"render_id"`
			Trace    *obs.Node `json:"trace"`
		}{res, tr.ID(), tree})
		return
	}
	s.json(w, http.StatusOK, res)
}

// handleHealthz reports liveness, occupancy and the shard wire protocol
// version.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.json(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": int64(time.Since(s.metrics.start).Seconds()),
		"scenarios":      s.registry.Len(),
		"sessions":       s.sessions.Len(),
		// The shard wire protocol version this server speaks.
		"shard_proto": fp.ShardProtocolVersion,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.writeTo(w, s, time.Now())
}

// ---- helpers ----

func scenarioToJSON(e *ScenarioEntry, detailed bool) scenarioJSON {
	params := e.Scenario.Params()
	ps := make([]paramJSON, len(params))
	for i, p := range params {
		ps[i] = paramJSON{Name: p.Name, Values: p.Values}
	}
	out := scenarioJSON{
		ID:            e.ID,
		Fingerprint:   e.Fingerprint,
		Generation:    e.Generation,
		Params:        ps,
		OutputColumns: e.Scenario.OutputColumns(),
		SpaceSize:     e.Scenario.SpaceSize(),
		Warm:          e.Warm,
		Refs:          e.Refs(),
		CreatedAt:     e.CreatedAt,
	}
	if detailed {
		st := e.Cache.StoreStats()
		out.Store = &st
		out.ReuseCounts = e.Cache.Counts()
	}
	return out
}

func sessionToJSON(s *Session) sessionJSON {
	return sessionJSON{
		ID:          s.ID,
		ScenarioID:  s.Entry.ID,
		Axis:        s.Sess.Axis(),
		Worlds:      s.Worlds,
		Params:      s.Sess.Params(),
		Stats:       s.Sess.SessionStats(),
		Renders:     s.Renders(),
		Coalesced:   s.Coalesced(),
		ReuseCounts: s.Sess.ReuseCounts(),
		CreatedAt:   s.CreatedAt,
	}
}

// compileScenario compiles a scenario payload — a script plus its side
// tables, each cell canonicalized — as registration and a worker's cache
// miss both receive it.
func compileScenario(sys *fp.System, sql string, tables []tableDef) (*fp.Scenario, error) {
	scn, err := sys.Compile(sql)
	if err != nil {
		return nil, err
	}
	for _, t := range tables {
		rows := make([][]any, len(t.Rows))
		for i, row := range t.Rows {
			rows[i] = make([]any, len(row))
			for j, v := range row {
				rows[i][j] = canonicalNumber(v)
			}
		}
		if err := scn.AddTable(t.Name, t.Columns, rows); err != nil {
			return nil, err
		}
	}
	return scn, nil
}

// canonicalNumber converts whole JSON numbers (always decoded as float64)
// to int64, so parameter values and table cells match integer-declared
// spaces and produce canonical reuse-cache argument keys.
func canonicalNumber(v any) any {
	f, ok := v.(float64)
	if !ok {
		return v
	}
	if f == math.Trunc(f) && math.Abs(f) < 1<<53 {
		return int64(f)
	}
	return v
}

// decode reads a JSON body into dst, reporting malformed input as 400.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(dst); err != nil {
		s.error(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

// json writes payload as a JSON body. It marshals before writing the
// status, so a payload that cannot be encoded (a NaN or ±Inf statistic)
// answers 500 {error, code:"encode"} instead of a success status with an
// empty body.
func (s *Server) json(w http.ResponseWriter, status int, payload any) {
	body, err := json.Marshal(payload)
	if err != nil {
		s.encodeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(body, '\n'))
}

// encodeError answers a response that could not be serialized.
func (s *Server) encodeError(w http.ResponseWriter, err error) {
	s.cfg.Log.Error("response encoding failed", "err", err)
	s.json(w, http.StatusInternalServerError, map[string]any{
		"error": "encoding response: " + err.Error(),
		"code":  codeEncode,
	})
}

// error writes a JSON error envelope; compile errors carry line/col.
func (s *Server) error(w http.ResponseWriter, status int, err error) {
	body := map[string]any{"error": err.Error()}
	var ce *fp.CompileError
	if errors.As(err, &ce) && ce.Line > 0 {
		body["line"], body["col"] = ce.Line, ce.Col
	}
	s.json(w, status, body)
}

// renderError maps evaluation failures to statuses: client-caused input
// errors are 400; client disconnects 499 (nginx convention, no error-log
// spam — the client is gone); the server's own deadline budget expiring is
// a structured 504; recovered evaluation panics are a structured 500 with
// the stack logged; everything else 500. ctx is the request context the
// evaluation ran under, consulted to tell the server's budget (via its
// cancellation cause) from the client's disappearance.
func (s *Server) renderError(w http.ResponseWriter, ctx context.Context, err error) {
	var unknown *fp.UnknownParamError
	var pe *fp.PanicError
	switch {
	case errors.As(err, &unknown):
		s.error(w, http.StatusBadRequest, err)
	case errors.As(err, &pe):
		s.metrics.panics.Add(1)
		s.cfg.Log.Error("panic recovered", "stage", pe.Stage, "panic", fmt.Sprint(pe.Value), "stack", string(pe.Stack))
		s.json(w, http.StatusInternalServerError, map[string]any{
			"error": err.Error(),
			"code":  "panic",
		})
	case errors.Is(err, context.Canceled):
		s.metrics.clientDisconnects.Add(1)
		s.error(w, 499, err)
	case errors.Is(err, context.DeadlineExceeded):
		s.metrics.deadlinesExceeded.Add(1)
		body := map[string]any{
			"error": err.Error(),
			"code":  "deadline_exceeded",
		}
		var be *budgetExceededError
		if ctx != nil && errors.As(context.Cause(ctx), &be) {
			body["budget"] = be.budget.String()
		}
		s.json(w, http.StatusGatewayTimeout, body)
	default:
		s.error(w, http.StatusInternalServerError, err)
	}
}

// admissionError maps gate rejections: draining → 503, shed → 429 (both
// with Retry-After), client disconnect while queued → 499.
func (s *Server) admissionError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errDraining):
		w.Header().Set("Retry-After", "1")
		s.error(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, errOverloaded):
		s.metrics.rendersShed.Add(1)
		w.Header().Set("Retry-After", "1")
		s.error(w, http.StatusTooManyRequests, err)
	case errors.Is(err, context.Canceled):
		s.metrics.clientDisconnects.Add(1)
		s.error(w, 499, err)
	default:
		s.error(w, http.StatusInternalServerError, err)
	}
}
