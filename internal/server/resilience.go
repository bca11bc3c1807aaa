package server

// Resilience primitives for the serving path: request deadline budgets,
// per-worker circuit breakers, the shard-latency window the fan-out derives
// its hedge delay and attempt deadline from, and the render admission gate.
// The shard fan-out (shard.go) consumes the breaker and the window; the
// HTTP handlers (server.go) consume the budget helper and the gate.
// Everything here is deliberately dependency-free and lock-scoped per
// instance so it composes with the lock-free metrics.

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"slices"
	"sync"
	"time"
)

// ---- request deadline budgets ----

// defaultRequestTimeout is the server-side deadline applied to every
// request when Config.RequestTimeout is unset.
const defaultRequestTimeout = time.Minute

// budgetExceededError is the context cancellation cause when the SERVER's
// deadline budget — not the client's own context — expired. renderError
// uses it to answer 504 with the budget that was in force, distinguishing
// "the server gave up" from "the client went away" (499).
type budgetExceededError struct{ budget time.Duration }

func (e *budgetExceededError) Error() string {
	return fmt.Sprintf("server: request exceeded its %s deadline budget", e.budget)
}

// withBudget wraps the request context with the server-side deadline:
// Config.RequestTimeout by default, shortened — never extended — by a
// per-request ?timeout= override (a Go duration, e.g. ?timeout=500ms).
// Reports false after writing a 400 when the override is malformed.
func (s *Server) withBudget(w http.ResponseWriter, r *http.Request) (context.Context, context.CancelFunc, bool) {
	budget := s.cfg.RequestTimeout
	if v := r.URL.Query().Get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			s.error(w, http.StatusBadRequest, fmt.Errorf("bad timeout %q: want a positive duration like \"2s\"", v))
			return nil, nil, false
		}
		if budget <= 0 || d < budget {
			budget = d
		}
	}
	if budget <= 0 {
		return r.Context(), func() {}, true
	}
	ctx, cancel := context.WithTimeoutCause(r.Context(), budget, &budgetExceededError{budget})
	return ctx, cancel, true
}

// ---- circuit breaker ----

// Breaker states, exported to /metrics as fpserver_breaker_state.
const (
	breakerClosed   = 0
	breakerHalfOpen = 1
	breakerOpen     = 2
)

// A worker's breaker opens on its first transport error, timeout or 5xx for
// a jittered breakerBase window that doubles on every failed half-open probe,
// up to breakerMaxOpen. While open, the worker moves to the back of the
// candidate order. The breaker lives in workerState and is derived from
// (openSpan, openUntil, now) rather than stored, so open→half-open needs no
// timer goroutine: once the window passes, the breaker reads half-open and
// the next attempt is the probe. Every transition takes now explicitly.
const (
	breakerBase    = 5 * time.Second
	breakerMaxOpen = 16 * breakerBase
)

// state reports the worker's breaker position at now.
func (ws *workerState) state(now time.Time) int {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	switch {
	case ws.openSpan == 0:
		return breakerClosed
	case now.Before(ws.openUntil):
		return breakerOpen
	}
	return breakerHalfOpen
}

// fail records a transport error, timeout or 5xx at now and (re-)opens the
// breaker. A failure while half-open is a failed probe: the open window
// doubles, up to the cap.
func (ws *workerState) fail(now time.Time) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	switch {
	case ws.openSpan == 0:
		ws.openSpan = breakerBase
	case !now.Before(ws.openUntil):
		ws.openSpan = min(2*ws.openSpan, breakerMaxOpen)
	}
	ws.openUntil = now.Add(jitter(ws.openSpan))
}

// succeed closes the breaker and resets its backoff.
func (ws *workerState) succeed() {
	ws.mu.Lock()
	ws.openSpan, ws.openUntil = 0, time.Time{}
	ws.mu.Unlock()
}

// jitter spreads d over [0.9d, 1.1d) so a fleet of breakers (or retry
// backoffs) opened by one event does not re-probe in lockstep.
func jitter(d time.Duration) time.Duration {
	return time.Duration(float64(d) * (0.9 + 0.2*rand.Float64()))
}

// ---- shard timings ----

const (
	// latencyWindowSize bounds the shard-latency sample window.
	latencyWindowSize = 256
	// minWarmSamples is how many shard latencies the window needs before
	// its P95 means anything; until then nothing hedges and an attempt may
	// use the request's whole remaining budget.
	minWarmSamples = 16
	// minHedgeDelay floors the hedge delay so microsecond-scale P95s (tiny
	// test renders) don't hedge every request reflexively.
	minHedgeDelay = 5 * time.Millisecond
	// attemptDeadlineFactor × P95 bounds one attempt, floored at
	// minAttemptDeadline: a healthy fleet's tail sits within a small
	// multiple of its P95, so 20× only cuts a worker that black-holes, and
	// the floor keeps a millisecond-scale P95 from cutting a merely slow one.
	attemptDeadlineFactor = 20
	minAttemptDeadline    = time.Second
	// retryBackoff is the base of the jittered exponential backoff between
	// shard retries; it doubles per retry up to maxRetryBackoff.
	retryBackoff    = 10 * time.Millisecond
	maxRetryBackoff = time.Second
)

// latencyWindow keeps a ring of recent successful shard latencies PER
// POINT and derives the fan-out's timings from their exact P95: the hedge
// fires when a shard request has been outstanding longer than 95% of recent
// ones took for its point count (the classic tail-latency trade of a
// little duplicate work for a bounded tail), and an attempt gives up at a
// multiple of it. A request carries a whole batch — a 53-point session
// sweep, a 4-point evaluate, or a single point — so one window serves them
// all only per point: the fan-out records a batch's latency divided by its
// point count, and its timings scale by it.
type latencyWindow struct {
	mu   sync.Mutex
	ring [latencyWindowSize]time.Duration
	n    int // total observations (ring index = n % size)
}

// observe records one per-point latency.
func (w *latencyWindow) observe(d time.Duration) {
	w.mu.Lock()
	w.ring[w.n%latencyWindowSize] = d
	w.n++
	w.mu.Unlock()
}

// timings returns, for a request of the given number of points, the hedge
// delay, max(points×P95, minHedgeDelay), and the per-attempt deadline,
// max(minAttemptDeadline, attemptDeadlineFactor×points×P95). warm is
// false, and both are zero, until minWarmSamples latencies exist.
func (w *latencyWindow) timings(points int) (hedge, deadline time.Duration, warm bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	k := min(w.n, latencyWindowSize)
	if k < minWarmSamples {
		return 0, 0, false
	}
	window := slices.Clone(w.ring[:k])
	slices.Sort(window)
	p95 := window[(k-1)*95/100] * time.Duration(max(points, 1))
	return max(p95, minHedgeDelay), max(attemptDeadlineFactor*p95, minAttemptDeadline), true
}

// ---- admission gate ----

// errDraining rejects work arriving after Close began: 503 + Retry-After.
var errDraining = errors.New("server: shutting down")

// errOverloaded sheds work the gate could not admit before its queue wait
// (bounded by the request's own deadline) expired: 429 + Retry-After.
var errOverloaded = errors.New("server: render capacity saturated, retry later")

// defaultQueueWait bounds how long an unbudgeted request queues for a
// render slot before being shed.
const defaultQueueWait = time.Second

// admission is the render admission gate: a semaphore bounding concurrent
// renders (nil = unbounded), a deadline-aware queue in front of it, and
// draining state for graceful shutdown. Every admitted request is tracked
// so drain() can wait for in-flight work.
type admission struct {
	sem chan struct{} // nil when unbounded

	mu       sync.Mutex
	cond     *sync.Cond
	inflight int
	draining bool

	queueDepth int64 // guarded by mu only for read consistency in metrics
}

func newAdmission(maxConcurrent int) *admission {
	g := &admission{}
	g.cond = sync.NewCond(&g.mu)
	if maxConcurrent > 0 {
		g.sem = make(chan struct{}, maxConcurrent)
	}
	return g
}

// acquire admits one render. It returns nil and reserves a slot, or:
// errDraining (shutdown), errOverloaded (no slot before the deadline-aware
// queue wait lapsed — shed), or the context's own cancellation (client
// disconnect while queued). Pair every nil return with release().
func (g *admission) acquire(ctx context.Context) error {
	g.mu.Lock()
	if g.draining {
		g.mu.Unlock()
		return errDraining
	}
	g.inflight++
	g.mu.Unlock()
	if g.sem == nil {
		return nil
	}
	select {
	case g.sem <- struct{}{}:
		return nil
	default:
	}
	// Queue for a slot, but never past the request's own deadline: work
	// admitted with no budget left would only be killed by the deadline —
	// shedding now lets the client retry elsewhere immediately.
	wait := defaultQueueWait
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); rem < wait {
			wait = rem
		}
	}
	if wait <= 0 {
		g.exit()
		return errOverloaded
	}
	g.mu.Lock()
	g.queueDepth++
	g.mu.Unlock()
	defer func() {
		g.mu.Lock()
		g.queueDepth--
		g.mu.Unlock()
	}()
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case g.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		g.exit()
		if errors.Is(context.Cause(ctx), context.Canceled) {
			return ctx.Err() // client went away while queued
		}
		return errOverloaded // budget burned in the queue: shed
	case <-timer.C:
		g.exit()
		return errOverloaded
	}
}

// release returns an admitted render's slot.
func (g *admission) release() {
	if g.sem != nil {
		<-g.sem
	}
	g.exit()
}

// exit decrements the in-flight count and wakes drain().
func (g *admission) exit() {
	g.mu.Lock()
	g.inflight--
	if g.inflight == 0 && g.draining {
		g.cond.Broadcast()
	}
	g.mu.Unlock()
}

// isDraining reports whether drain() has begun.
func (g *admission) isDraining() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.draining
}

// stats returns (inflight, queued) for /metrics.
func (g *admission) stats() (int64, int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return int64(g.inflight), g.queueDepth
}

// drain flips the gate to draining — every subsequent acquire fails with
// errDraining (503 + Retry-After) — and blocks until in-flight renders
// finish. Renders carry deadline budgets, so the wait is bounded unless
// the operator disabled RequestTimeout.
func (g *admission) drain() {
	g.mu.Lock()
	g.draining = true
	for g.inflight > 0 {
		g.cond.Wait()
	}
	g.mu.Unlock()
}

// ---- panic isolation ----

// recoverWriter tracks whether the handler already wrote a status line, so
// the panic middleware knows a 500 can still be sent. It forwards Flush
// for the SSE path.
type recoverWriter struct {
	http.ResponseWriter
	wrote bool
}

func (rw *recoverWriter) WriteHeader(code int) {
	rw.wrote = true
	rw.ResponseWriter.WriteHeader(code)
}

func (rw *recoverWriter) Write(b []byte) (int, error) {
	rw.wrote = true
	return rw.ResponseWriter.Write(b)
}

func (rw *recoverWriter) Flush() {
	if f, ok := rw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
