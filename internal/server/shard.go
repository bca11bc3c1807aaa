// World-shard fan-out: the HTTP half of distributed rendering.
//
// A render's Monte Carlo world range is embarrassingly parallel and every
// sample derives from a per-(site, world) seed, so any fpserver holding the
// same VG registry can evaluate a world range [lo, hi) of any scenario
// bit-identically. Two roles cooperate over wire protocol v4:
//
//   - WORKER (fpserver -worker): serves POST /shard/render. A steady-state
//     request carries only the scenario FINGERPRINT plus the parameter
//     points, total world count, seed base and world range — no script, no
//     side tables. The worker resolves the fingerprint in its compiled-
//     scenario cache; a miss answers 409 {"code":"scenario_not_cached"},
//     upon which the coordinator re-sends once with the full payload. Each
//     cached scenario keeps a freelist of warmed evaluators, so repeat
//     shards pay only the evaluation; one request's points run in order on
//     one evaluator. With sketch_only set (body field or ?sketch_only=1)
//     the response carries merged per-column sketches instead of per-world
//     sample vectors — O(compression), not O(worlds). Requests and error
//     answers are JSON; a 200 answer is one checksummed binary frame with
//     one result per point (frame.go).
//
//   - COORDINATOR (fpserver -workers=url1,url2,...): a workerPool
//     implements fp.ShardEvaluator; session renders and batch evaluates
//     split the worlds across the configured workers as the equal split,
//     shard i to worker i first — so a worker sees the same range at every
//     point and its series chains and pooled evaluators stay warm across a
//     sweep. A session render sends one point per request; a batch
//     evaluate sends each worker ONE request carrying every point. The
//     coordinator tracks, per worker, which fingerprints are warm (so
//     steady state sends fingerprint-only requests). One event loop per
//     shard (race) runs its attempts. Every timing is a constant or
//     derives from the P95 of recent per-point shard latencies, scaled by
//     the request's point count: past the hedge delay a duplicate request
//     races on a second worker and the first result wins; a failed
//     request is retried on the remaining workers after a jittered
//     exponential backoff; an attempt gives up at max(1s, 20×P95). A
//     transport error, timeout or 5xx opens the worker's circuit breaker,
//     which moves it to the back of the order until the jittered,
//     probe-doubling open window lapses. When every worker fails, the
//     Monte Carlo executor evaluates the shard locally — dying workers
//     degrade throughput, never correctness or results. Attempt deadlines
//     propagate to workers via X-FP-Budget-Ms. With no workers configured
//     everything evaluates locally, unchanged.
package server

import (
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	fp "fuzzyprophet"
	"fuzzyprophet/internal/obs"
)

// Trace propagation headers: the coordinator stamps each shard request
// with the render ID, and with the trace flag only when a reader asked for
// the render's tree (?trace=1); the worker then returns its span tree in
// the response frame and the coordinator grafts it under the requesting
// shard span — one stitched tree per render across processes. The worker
// also advertises its protocol version on every shard response.
const (
	headerRenderID = "X-FP-Render-ID"
	headerTrace    = "X-FP-Trace"
	headerProto    = "X-FP-Shard-Proto"
	// headerBudget carries the coordinator attempt's remaining deadline
	// budget in milliseconds; the worker applies it server-side so an
	// abandoned shard stops burning cores even if the connection lingers.
	headerBudget = "X-FP-Budget-Ms"
)

// Error codes carried in the "code" field of JSON error bodies, so
// coordinators distinguish protocol states from plain failures without
// parsing prose.
const (
	codeScenarioNotCached   = "scenario_not_cached"
	codeUnsupportedProtocol = "unsupported_protocol"
	// codeEncode marks a response the server could not serialize.
	codeEncode = "encode"
)

// shardRequest is the wire form of one shard evaluation.
//
// The steady-state request carries Fingerprint but neither SQL nor Tables;
// the worker resolves the scenario from its cache and answers
// 409/scenario_not_cached when it can't, triggering a one-shot full
// re-send.
type shardRequest struct {
	// Proto is the wire protocol version the coordinator speaks. Workers
	// answer any version but their own with 400 unsupported_protocol.
	Proto int `json:"proto,omitempty"`
	// SQL is the scenario script; Tables its deterministic side tables.
	// Omitted on steady-state requests.
	SQL    string     `json:"sql,omitempty"`
	Tables []tableDef `json:"tables,omitempty"`
	// Fingerprint identifies the compiled scenario's content — it keys the
	// worker's scenario cache and guards against coordinator/worker model
	// drift when a full payload is compiled.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Points holds the parameter points, evaluated in order over the one
	// range; Worlds the render's TOTAL world count; Seed the seed base (0 =
	// the default).
	Points []map[string]any `json:"points"`
	Worlds int              `json:"worlds"`
	Seed   uint64           `json:"seed,omitempty"`
	// Lo/Hi is the assigned world range [Lo, Hi) within [0, Worlds).
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// SketchOnly asks for merged per-column sketches WITHOUT the per-world
	// sample vectors (equivalent to the ?sketch_only=1 query parameter).
	SketchOnly bool `json:"sketch_only,omitempty"`
}

// shardScenarioCacheMax bounds the worker's compiled-scenario cache.
const shardScenarioCacheMax = 64

// shardScenarios is the worker-side compiled-scenario cache, keyed by
// fingerprint (LRU beyond shardScenarioCacheMax). Compiling per shard
// request would dwarf small shards; after the first shard of a scenario,
// workers pay only the evaluation — and each entry's evaluator freelist
// (fp.ShardWorker) carries warmed execution state across requests.
type shardScenarios struct {
	mu    sync.Mutex
	byFP  map[string]*list.Element // fingerprint → element holding *shardScenarioEntry
	order *list.List               // front = most recent
}

type shardScenarioEntry struct {
	fp     string
	scn    *fp.Scenario
	worker *fp.ShardWorker
}

func newShardScenarios() *shardScenarios {
	return &shardScenarios{byFP: make(map[string]*list.Element), order: list.New()}
}

// lookup returns the cached entry for a fingerprint without compiling —
// the steady-state path. A false return means the coordinator must
// re-send the full payload.
func (c *shardScenarios) lookup(fingerprint string) (*shardScenarioEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byFP[fingerprint]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*shardScenarioEntry), true
}

// get returns the cached compiled scenario for the request, compiling (and
// verifying the fingerprint of) a fresh one on miss. mkWorker builds the
// entry's evaluator freelist from the compiled scenario.
func (c *shardScenarios) get(sys *fp.System, req *shardRequest, mkWorker func(*fp.Scenario) (*fp.ShardWorker, error)) (*shardScenarioEntry, error) {
	if req.Fingerprint != "" {
		if e, ok := c.lookup(req.Fingerprint); ok {
			return e, nil
		}
	}
	scn, err := sys.Compile(req.SQL)
	if err != nil {
		return nil, err
	}
	for _, t := range req.Tables {
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
	got := scn.Fingerprint()
	if req.Fingerprint != "" && got != req.Fingerprint {
		return nil, fmt.Errorf("scenario fingerprint mismatch: coordinator sent %.12s, worker compiled %.12s (model registries differ?)", req.Fingerprint, got)
	}
	worker, err := mkWorker(scn)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byFP[got]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*shardScenarioEntry), nil
	}
	entry := &shardScenarioEntry{fp: got, scn: scn, worker: worker}
	c.byFP[got] = c.order.PushFront(entry)
	for c.order.Len() > shardScenarioCacheMax {
		el := c.order.Back()
		delete(c.byFP, el.Value.(*shardScenarioEntry).fp)
		c.order.Remove(el)
	}
	return entry, nil
}

// newShardWorkerFor builds the per-scenario evaluator freelist a worker
// serves shard requests from, sub-sharded across this machine's cores so
// one request saturates it.
func (s *Server) newShardWorkerFor(scn *fp.Scenario) (*fp.ShardWorker, error) {
	return scn.NewShardWorker(fp.WithShards(runtime.GOMAXPROCS(0)))
}

// protocolError writes a JSON error body with a machine-readable code, so
// coordinators branch on protocol states without parsing prose.
func (s *Server) protocolError(w http.ResponseWriter, status int, code string, err error) {
	s.json(w, status, map[string]any{"error": err.Error(), "code": code})
}

// handleShardRender serves one shard evaluation at every point of the
// request (worker role).
func (s *Server) handleShardRender(w http.ResponseWriter, r *http.Request) {
	var req shardRequest
	if !s.decode(w, r, &req) {
		return
	}
	w.Header().Set(headerProto, strconv.Itoa(fp.ShardProtocolVersion))
	if req.Proto != fp.ShardProtocolVersion {
		s.protocolError(w, http.StatusBadRequest, codeUnsupportedProtocol,
			fmt.Errorf("unsupported shard protocol %d (this worker speaks %d)", req.Proto, fp.ShardProtocolVersion))
		return
	}
	if req.Worlds <= 0 || req.Lo < 0 || req.Hi > req.Worlds || req.Lo >= req.Hi {
		s.error(w, http.StatusBadRequest, fmt.Errorf("bad shard range [%d,%d) of %d worlds", req.Lo, req.Hi, req.Worlds))
		return
	}
	if len(req.Points) == 0 {
		s.error(w, http.StatusBadRequest, fmt.Errorf("no points in shard request"))
		return
	}
	var entry *shardScenarioEntry
	if req.SQL == "" {
		if req.Fingerprint == "" {
			s.error(w, http.StatusBadRequest, fmt.Errorf("missing \"sql\""))
			return
		}
		// Steady state: fingerprint-only resolution. A miss is the
		// protocol's distinguishable cache-miss answer, not a failure: the
		// coordinator re-sends once with the full payload.
		var ok bool
		if entry, ok = s.shardCache.lookup(req.Fingerprint); !ok {
			s.metrics.shardCacheMisses.Add(1)
			s.protocolError(w, http.StatusConflict, codeScenarioNotCached,
				fmt.Errorf("scenario %.12s not cached on this worker; re-send with the full payload", req.Fingerprint))
			return
		}
	} else {
		var err error
		if entry, err = s.shardCache.get(s.cfg.System, &req, s.newShardWorkerFor); err != nil {
			s.error(w, http.StatusBadRequest, err)
			return
		}
	}
	sketchOnly := req.SketchOnly || r.URL.Query().Get("sketch_only") == "1"
	for _, point := range req.Points {
		for k, v := range point {
			point[k] = canonicalNumber(v)
		}
	}
	ctx := r.Context()
	// Honor the coordinator's propagated deadline budget: the shard aborts
	// between world batches once the budget is gone, whether or not the
	// transport connection has been torn down yet.
	if v := r.Header.Get(headerBudget); v != "" {
		if ms, err := strconv.ParseInt(v, 10, 64); err == nil && ms > 0 {
			budget := time.Duration(ms) * time.Millisecond
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeoutCause(ctx, budget, &budgetExceededError{budget})
			defer cancel()
		}
	}
	// Every shard records its spans under the propagated render ID: they
	// feed this worker's stage histograms and slow-render ring. The tree
	// goes back in the response only when the coordinator asked for it.
	start := time.Now()
	tr := obs.New("worker-shard", r.Header.Get(headerRenderID))
	if r.Header.Get(headerTrace) != "" {
		tr.Export()
	}
	ctx = obs.With(ctx, tr.Root())
	tr.Root().SetInt("lo", int64(req.Lo))
	tr.Root().SetInt("hi", int64(req.Hi))
	if len(req.Points) > 1 {
		tr.Root().SetInt("points", int64(len(req.Points)))
	}
	if sketchOnly {
		tr.Root().SetInt("sketch_only", 1)
	}
	results, err := entry.worker.EvaluateShard(ctx, req.Points, req.Worlds, req.Seed,
		fp.WorldShard{Lo: req.Lo, Hi: req.Hi}, sketchOnly)
	if err != nil {
		s.renderError(w, ctx, err)
		return
	}
	s.metrics.shardRendersServed.Add(1)
	if sketchOnly {
		s.metrics.shardSketchOnlyServed.Add(1)
	}
	resp := shardResponse{
		Points: results,
		Trace:  s.observeTrace("shard", "", "", tr, time.Since(start)),
	}
	frame, err := encodeShardFrame(&resp)
	if err != nil {
		s.encodeError(w, err)
		return
	}
	w.Header().Set("Content-Type", shardFrameContentType)
	w.WriteHeader(http.StatusOK)
	w.Write(frame)
}

// ---- coordinator side ----

// workerState is the coordinator's per-worker book-keeping, shared by every
// scenario's workerPool so warm sets and breakers survive across renders and
// scenarios.
type workerState struct {
	url string

	mu sync.Mutex
	// warm records which scenario fingerprints this worker has confirmed
	// cached, making fingerprint-only (slim) requests safe.
	warm map[string]bool
	// openSpan is the breaker's current un-jittered open window (0 =
	// closed) and openUntil the end of the jittered one (resilience.go).
	openSpan  time.Duration
	openUntil time.Time
}

// newWorkerStates builds the shared per-worker book-keeping.
func newWorkerStates(urls []string) []*workerState {
	out := make([]*workerState, len(urls))
	for i, u := range urls {
		out[i] = &workerState{url: u, warm: make(map[string]bool)}
	}
	return out
}

func (ws *workerState) isWarm(fingerprint string) bool {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.warm[fingerprint]
}

func (ws *workerState) setWarm(fingerprint string, warm bool) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if warm {
		ws.warm[fingerprint] = true
	} else {
		delete(ws.warm, fingerprint)
	}
}

// shardHTTPError is a non-200 worker answer, carrying the machine-readable
// protocol code when the body had one.
type shardHTTPError struct {
	url    string
	status int
	code   string
	msg    string
}

func (e *shardHTTPError) Error() string {
	return fmt.Sprintf("worker %s: status %d: %s", e.url, e.status, e.msg)
}

// workerPool fans shard evaluations out to the configured workers,
// implementing fp.ShardEvaluator for one scenario entry over wire protocol
// v4. Worker selection starts at the shard's index (shard i of the equal
// split goes to worker i first, keeping each worker's range fixed),
// preferring workers whose circuit breaker is not open; race runs the
// attempts.
type workerPool struct {
	states  []*workerState
	client  *http.Client
	entry   *ScenarioEntry
	metrics *metrics
	logf    func(string, ...any)
	latency *latencyWindow
}

// newWorkerPool builds the fan-out evaluator for one scenario entry.
func (s *Server) newWorkerPool(entry *ScenarioEntry) *workerPool {
	return &workerPool{
		states:  s.workerStates,
		client:  s.shardClient,
		entry:   entry,
		metrics: s.metrics,
		logf:    s.cfg.Logf,
		latency: s.shardLatency,
	}
}

// order returns the workers to try for a shard, starting at its index and
// rotating, with workers whose breaker is open moved to the back — they
// are only reached when every other worker has failed.
func (p *workerPool) order(index int) []*workerState {
	n := len(p.states)
	start := 0
	if n > 0 && index > 0 {
		start = index % n
	}
	now := time.Now()
	healthy := make([]*workerState, 0, n)
	var cooling []*workerState
	for k := 0; k < n; k++ {
		ws := p.states[(start+k)%n]
		if ws.state(now) != breakerOpen {
			healthy = append(healthy, ws)
		} else {
			cooling = append(cooling, ws)
		}
	}
	return append(healthy, cooling...)
}

// EvaluateShard implements fp.ShardEvaluator over HTTP (protocol v4): one
// request carries every point of req.
func (p *workerPool) EvaluateShard(ctx context.Context, req fp.ShardRequest) ([]*fp.ShardResult, error) {
	wire := shardRequest{
		Proto:       fp.ShardProtocolVersion,
		Fingerprint: p.entry.Fingerprint,
		Points:      req.Points,
		Worlds:      req.Worlds,
		Seed:        req.Seed,
		Lo:          req.Shard.Lo,
		Hi:          req.Shard.Hi,
		SketchOnly:  req.SketchOnly,
	}
	slim, err := json.Marshal(wire)
	if err != nil {
		return nil, err
	}
	// The full payload (script + side tables) is marshalled only when an
	// attempt needs it — a cold worker or a 409 re-send — and then shared by
	// every attempt of this shard.
	full := sync.OnceValues(func() ([]byte, error) {
		wire.SQL = p.entry.Source
		wire.Tables = p.entry.Tables
		return json.Marshal(wire)
	})

	return p.race(ctx, req.Shard, len(req.Points), retryBackoff, func(ctx context.Context, ws *workerState) ([]*fp.ShardResult, error) {
		return p.tryWorker(ctx, ws, slim, full)
	})
}

// race runs one shard's attempts as one event loop over four events:
// attempt result, hedge timer, backoff timer and ctx.Done. The primary goes
// to the first candidate; when the hedge timer fires, one duplicate goes to
// the next; every failure owes one retry on the next candidate, launched
// when the jittered, doubling backoff timer fires. The first success wins
// and cancels the rest. The hedge delay and the attempt deadline come from
// the latency window, scaled to the request's point count; an attempt never
// outlives the request's budget. A transport error, timeout or 5xx opens
// its worker's breaker; a success closes it and feeds the window its
// per-point latency. When no candidate is left and nothing is in flight the
// last error is returned, upon which the Monte Carlo executor evaluates the
// shard locally.
func (p *workerPool) race(ctx context.Context, shard fp.WorldShard, points int, backoff time.Duration, attempt func(context.Context, *workerState) ([]*fp.ShardResult, error)) ([]*fp.ShardResult, error) {
	candidates := p.order(shard.Index)
	if len(candidates) == 0 {
		return nil, fmt.Errorf("no shard workers configured")
	}
	hedge, deadline, warm := p.latency.timings(points)
	actx, acancel := context.WithCancel(ctx)
	defer acancel()
	type outcome struct {
		ws     *workerState
		res    []*fp.ShardResult
		err    error
		hedged bool
		took   time.Duration
	}
	// Each candidate is attempted at most once, so with one slot per
	// candidate a losing attempt reports without blocking after the race.
	results := make(chan outcome, len(candidates))
	next, inflight := 0, 0
	launch := func(hedged bool) {
		ws := candidates[next]
		next++
		inflight++
		cancel := context.CancelFunc(func() {})
		attemptCtx := actx
		if warm {
			attemptCtx, cancel = context.WithTimeout(actx, deadline)
		}
		go func() {
			var res []*fp.ShardResult
			var err error
			start := time.Now()
			// The result send is registered first so it runs after the
			// recovery: a panicking attempt still reports to the loop (as a
			// *PanicError) instead of leaving it waiting forever.
			defer func() {
				cancel()
				results <- outcome{ws, res, err, hedged, time.Since(start)}
			}()
			defer recoverToError(&err, "shard attempt")
			res, err = attempt(attemptCtx, ws)
		}()
	}

	var hedgeC, backoffC <-chan time.Time
	if warm && len(candidates) > 1 {
		hedgeC = time.After(hedge)
	}
	launch(false)
	owed := 0 // failures not yet replaced by a retry
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-hedgeC:
			if next+owed < len(candidates) {
				p.metrics.shardHedges.Add(1)
				p.logf("shard [%d,%d): hedging on worker %s", shard.Lo, shard.Hi, candidates[next].url)
				launch(true)
			}
		case <-backoffC:
			for ; owed > 0; owed-- {
				p.metrics.shardRetries.Add(1)
				launch(false)
			}
		case r := <-results:
			inflight--
			if r.err == nil {
				r.ws.succeed()
				p.latency.observe(r.took / time.Duration(max(points, 1)))
				if r.hedged {
					p.metrics.shardHedgeWins.Add(1)
				}
				p.metrics.shardFanouts.Add(1)
				return r.res, nil
			}
			// A transport error, timeout or 5xx opens the worker's breaker so
			// the next shards prefer its peers; a 4xx (bad input, fingerprint
			// mismatch) means the worker is alive and would fail again
			// identically.
			var he *shardHTTPError
			if ctx.Err() == nil && (!errors.As(r.err, &he) || he.status >= 500) {
				r.ws.fail(time.Now())
				p.metrics.shardCooldowns.Add(1)
			}
			switch {
			case next+owed < len(candidates):
				p.logf("shard [%d,%d): worker %s failed (%v), trying next", shard.Lo, shard.Hi, r.ws.url, r.err)
				if owed == 0 {
					backoffC = time.After(jitter(backoff))
					backoff = min(2*backoff, maxRetryBackoff)
				}
				owed++
			case inflight == 0:
				p.metrics.shardWorkerFailures.Add(1)
				p.logf("shard [%d,%d): all %d worker(s) failed, evaluating locally: %v", shard.Lo, shard.Hi, len(candidates), r.err)
				return nil, r.err
			}
		}
	}
}

// tryWorker runs one shard against one worker: slim (fingerprint-only)
// when the worker is warm for this scenario, with a one-shot full re-send
// on 409/scenario_not_cached. Any other 4xx — a bad range, a bad point —
// is the request's fault, not the worker's: it is returned as is, and the
// worker stays warm.
func (p *workerPool) tryWorker(ctx context.Context, ws *workerState, slim []byte, full func() ([]byte, error)) ([]*fp.ShardResult, error) {
	sp := obs.SpanFrom(ctx)
	fingerprint := p.entry.Fingerprint
	useSlim := ws.isWarm(fingerprint)
	body, wire := slim, "slim"
	if useSlim {
		p.metrics.shardSlimRequests.Add(1)
	} else {
		var err error
		if body, err = full(); err != nil {
			return nil, err
		}
		wire = "full"
		p.metrics.shardFullRequests.Add(1)
	}
	res, err := p.post(ctx, ws.url, body)
	var he *shardHTTPError
	if err != nil && useSlim && errors.As(err, &he) && he.status == http.StatusConflict && he.code == codeScenarioNotCached {
		// The worker lost (or never had) the scenario: one-shot full
		// re-send, then remember it as warm again.
		ws.setWarm(fingerprint, false)
		p.metrics.shardCacheMissResends.Add(1)
		p.metrics.shardFullRequests.Add(1)
		sp.SetInt("cache_miss_resend", 1)
		if body, err = full(); err != nil {
			return nil, err
		}
		useSlim, wire = false, "full-resend"
		res, err = p.post(ctx, ws.url, body)
	}
	if err != nil {
		return nil, err
	}
	if !useSlim {
		ws.setWarm(fingerprint, true)
	}
	sp.SetStr("wire", wire)
	return res, nil
}

// post performs one shard request against one worker. The attempt's
// deadline (already on ctx) is propagated to the worker as X-FP-Budget-Ms
// so it aborts server-side too.
func (p *workerPool) post(ctx context.Context, base string, body []byte) ([]*fp.ShardResult, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/shard/render", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); rem > 0 {
			req.Header.Set(headerBudget, strconv.FormatInt(rem.Milliseconds()+1, 10))
		}
	}
	sp := obs.SpanFrom(ctx)
	if id := sp.TraceID(); id != "" {
		req.Header.Set(headerRenderID, id)
	}
	if sp.Exported() {
		req.Header.Set(headerTrace, "1")
	}
	p.metrics.shardRequestBytes.Add(int64(len(body)))
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		he := &shardHTTPError{url: base, status: resp.StatusCode, msg: string(bytes.TrimSpace(raw))}
		var eb struct {
			Error string `json:"error"`
			Code  string `json:"code"`
		}
		if json.Unmarshal(raw, &eb) == nil {
			he.code = eb.Code
			if eb.Error != "" {
				he.msg = eb.Error
			}
		}
		return nil, he
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("worker %s: reading response: %w", base, err)
	}
	p.metrics.shardResponseBytes.Add(int64(len(raw)))
	sr, err := decodeShardFrame(raw)
	if err != nil {
		return nil, fmt.Errorf("worker %s: decoding response: %w", base, err)
	}
	if sr.Trace != nil {
		sp.Graft(sr.Trace)
	}
	return sr.Points, nil
}

// shardEvalOptions returns the fan-out options for evaluations of entry
// when workers are configured (nil otherwise): one shard per worker, the
// equal split, evaluated through the entry's worker pool.
func (s *Server) shardEvalOptions(entry *ScenarioEntry) []fp.EvalOption {
	if len(s.cfg.Workers) == 0 {
		return nil
	}
	return []fp.EvalOption{
		fp.WithShards(len(s.cfg.Workers)),
		fp.WithShardEvaluator(s.newWorkerPool(entry)),
	}
}
