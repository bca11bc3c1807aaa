package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	fp "fuzzyprophet"
	"fuzzyprophet/internal/server/protocoltest"
	"fuzzyprophet/internal/sqlparser"
)

// ---- chaos matrix ----

// warmWindow seeds a shard-latency window with minWarmSamples latencies of
// p95, so the fan-out's derived timings apply from the first shard on: a
// hedge fires after max(p95, 5ms) and every attempt is bounded by
// max(1s, 20×p95).
func warmWindow(w *latencyWindow, p95 time.Duration) {
	for i := 0; i < minWarmSamples; i++ {
		w.observe(p95)
	}
}

// TestChaosMatrixBitIdentical runs every bundled example scenario through
// a two-worker fan-out where BOTH workers sit behind seeded chaos proxies
// randomly killing, hanging and slowing shard exchanges, and asserts each
// batch result is bit-identical to the single-node evaluation and never
// degraded: deadlines, hedges, breakers, retries and local fallback
// protect correctness, not just availability.
func TestChaosMatrixBitIdentical(t *testing.T) {
	seed := uint64(20260808)
	for name, sql := range sqlparser.ExampleScenarios() {
		t.Run(name, func(t *testing.T) {
			_, local := newTestServer(t, func(c *Config) { c.System = newExampleSystem(t) })
			scnLocal := registerExample(t, local.URL, name, sql)
			points := examplePoints(scnLocal)
			want := evaluatePoints(t, local.URL, scnLocal.ID, evaluateRequest{Points: points, Worlds: 48})

			var proxies []*protocoltest.Proxy
			var urls []string
			for i := 0; i < 2; i++ {
				_, worker := newTestServer(t, func(c *Config) {
					c.System = newExampleSystem(t)
					c.WorkerMode = true
				})
				proxy := protocoltest.New(worker.URL)
				t.Cleanup(proxy.Close)
				proxy.SetDelay(10 * time.Millisecond)
				proxy.SetChaos(seed+uint64(i), 0.15, 0.10, 0.15)
				proxies = append(proxies, proxy)
				urls = append(urls, proxy.URL())
			}
			coordSrv, coord := newTestServer(t, func(c *Config) {
				c.System = newExampleSystem(t)
				c.Workers = urls
			})
			// Hung shards are bounded by the derived attempt deadline, and
			// a hedge races a duplicate after 25ms.
			warmWindow(coordSrv.shardLatency, 25*time.Millisecond)

			scn := registerExample(t, coord.URL, name, sql)
			got := evaluatePoints(t, coord.URL, scn.ID, evaluateRequest{Points: points, Worlds: 48})

			if got.Degraded {
				t.Fatal("chaos run reported degraded without allow_degraded")
			}
			if len(got.Points) != len(want.Points) {
				t.Fatalf("%d points, want %d", len(got.Points), len(want.Points))
			}
			for i := range want.Points {
				if got.Points[i].Degraded {
					t.Errorf("point %d flagged degraded without allow_degraded", i)
				}
				if !reflect.DeepEqual(want.Points[i].Summaries, got.Points[i].Summaries) {
					t.Errorf("point %d diverged under chaos:\nlocal:  %+v\nfanned: %+v",
						i, want.Points[i].Summaries, got.Points[i].Summaries)
				}
			}
			if n := coordSrv.metrics.renderErrors.Load(); n != 0 {
				t.Errorf("%d render errors under chaos", n)
			}
			exchanges := 0
			for _, p := range proxies {
				exchanges += len(p.ShardExchanges())
			}
			if exchanges == 0 {
				t.Error("chaos proxies saw no shard exchanges")
			}
		})
	}
}

// ---- hedged shards ----

// TestHedgeRescuesHungShard: with one worker hung, the hedge timer fires a
// duplicate on the healthy worker and the render completes bit-identically
// — without waiting out the attempt deadline and without degrading.
func TestHedgeRescuesHungShard(t *testing.T) {
	_, local := newTestServer(t, nil)
	scnLocal := registerScenario(t, local.URL)
	one := []map[string]any{testPoints[0]}
	want := evaluatePoints(t, local.URL, scnLocal.ID, evaluateRequest{Points: one, Worlds: 64})

	_, good := newTestServer(t, func(c *Config) { c.WorkerMode = true })
	_, hung := newTestServer(t, func(c *Config) { c.WorkerMode = true })
	proxy := protocoltest.New(hung.URL)
	t.Cleanup(proxy.Close)
	proxy.SetFault(protocoltest.Hang)

	coordSrv, coord := newTestServer(t, func(c *Config) {
		c.Workers = []string{good.URL, proxy.URL()}
	})
	warmWindow(coordSrv.shardLatency, 10*time.Millisecond)
	scn := registerScenario(t, coord.URL)
	got := evaluatePoints(t, coord.URL, scn.ID, evaluateRequest{Points: one, Worlds: 64})

	if !reflect.DeepEqual(want.Points[0].Summaries, got.Points[0].Summaries) {
		t.Errorf("hedged result diverged:\nlocal:  %+v\nhedged: %+v",
			want.Points[0].Summaries, got.Points[0].Summaries)
	}
	if got.Degraded {
		t.Error("hedged render reported degraded")
	}
	if n := coordSrv.metrics.shardHedges.Load(); n < 1 {
		t.Errorf("hedge counter = %d, want >= 1", n)
	}
	if n := coordSrv.metrics.shardHedgeWins.Load(); n < 1 {
		t.Errorf("hedge win counter = %d, want >= 1", n)
	}
}

// ---- degraded renders ----

// TestDegradedEvaluate: with hedging off and one worker hung, an
// allow_degraded batch under a short ?timeout= budget returns the shards
// that completed — flagged degraded, with a partial world count and a
// per-column confidence note — instead of a 504.
func TestDegradedEvaluate(t *testing.T) {
	_, good := newTestServer(t, func(c *Config) { c.WorkerMode = true })
	_, hung := newTestServer(t, func(c *Config) { c.WorkerMode = true })
	proxy := protocoltest.New(hung.URL)
	t.Cleanup(proxy.Close)
	proxy.SetFault(protocoltest.Hang)

	// A hedge would rescue the shard, but the latency window stays cold
	// (under 16 samples) through this batch, and a cold window never
	// hedges: the budget cuts the hung shard.
	_, coord := newTestServer(t, func(c *Config) {
		c.Workers = []string{good.URL, proxy.URL()}
	})
	scn := registerScenario(t, coord.URL)

	const worlds = 64
	var res fp.BatchResult
	code := call(t, "POST", coord.URL+"/scenarios/"+scn.ID+"/evaluate?timeout=600ms",
		evaluateRequest{Points: testPoints, Worlds: worlds, AllowDegraded: true}, &res)
	if code != http.StatusOK {
		t.Fatalf("degraded evaluate = %d, want 200", code)
	}
	if !res.Degraded {
		t.Fatal("batch not flagged degraded")
	}
	if len(res.Points) == 0 {
		t.Fatal("degraded batch carried no points")
	}
	pt := res.Points[0]
	if !pt.Degraded {
		t.Error("point not flagged degraded")
	}
	if pt.WorldsCompleted <= 0 || pt.WorldsCompleted >= worlds {
		t.Errorf("worlds_completed = %d, want in (0, %d)", pt.WorldsCompleted, worlds)
	}
	if len(pt.Summaries) == 0 {
		t.Fatal("degraded point carried no summaries")
	}
	for col, s := range pt.Summaries {
		if !strings.Contains(s.Note, "degraded") {
			t.Errorf("column %s: note = %q, want a degraded confidence note", col, s.Note)
		}
		if s.N != int64(pt.WorldsCompleted) {
			t.Errorf("column %s: N = %d, want the %d completed worlds", col, s.N, pt.WorldsCompleted)
		}
	}
}

// TestDegradedRenderNotCached: a session opted into allow_degraded serves
// a partial frame under a short budget — and the single-flight cache does
// NOT retain it: the next render at the same params re-renders at full
// fidelity.
func TestDegradedRenderNotCached(t *testing.T) {
	_, good := newTestServer(t, func(c *Config) { c.WorkerMode = true })
	_, hung := newTestServer(t, func(c *Config) { c.WorkerMode = true })
	proxy := protocoltest.New(hung.URL)
	t.Cleanup(proxy.Close)
	proxy.SetFaultWindow(protocoltest.Hang, 1)

	// The latency window is cold when the hung shard starts, and a cold
	// window never hedges: the budget cuts it.
	_, coord := newTestServer(t, func(c *Config) {
		c.Workers = []string{good.URL, proxy.URL()}
	})
	scn := registerScenario(t, coord.URL)
	sess := openSession(t, coord.URL, scn.ID, openSessionRequest{AllowDegraded: true})

	var degraded renderResponse
	if code := call(t, "GET", coord.URL+"/sessions/"+sess.ID+"/render?timeout=600ms", nil, &degraded); code != http.StatusOK {
		t.Fatalf("degraded render = %d, want 200", code)
	}
	if !degraded.Degraded || !degraded.Graph.Stats.Degraded {
		t.Fatalf("render not flagged degraded: %+v", degraded.Graph.Stats)
	}
	if degraded.WorldsCompleted <= 0 {
		t.Errorf("worlds_completed = %d, want > 0", degraded.WorldsCompleted)
	}
	if len(degraded.Graph.X) == 0 {
		t.Error("degraded frame carried no points")
	}

	// The hang was consumed; a fresh render must be full-fidelity — the
	// degraded frame must not have been cached by single-flight.
	var full renderResponse
	if code := call(t, "GET", coord.URL+"/sessions/"+sess.ID+"/render", nil, &full); code != http.StatusOK {
		t.Fatalf("follow-up render = %d, want 200", code)
	}
	if full.Degraded || full.Graph.Stats.Degraded {
		t.Error("follow-up render inherited the degraded frame; partial frames must not be cached")
	}
	if full.Coalesced {
		t.Error("follow-up render was served from cache; degraded frames must not be cached")
	}
	// The hung shard cut every point of the one batch to the good worker's
	// worlds; the follow-up frame has every axis point at full fidelity.
	if degraded.WorldsCompleted >= sess.Worlds {
		t.Errorf("degraded worlds_completed = %d, want below the requested %d", degraded.WorldsCompleted, sess.Worlds)
	}
	if len(full.Graph.X) != 13 || full.Graph.Stats.Points != 13 {
		t.Errorf("full frame has %d points (stats say %d), want all 13", len(full.Graph.X), full.Graph.Stats.Points)
	}
}

// ---- deadline budgets ----

// TestBudgetOverride: ?timeout= must be a positive duration (400
// otherwise), and an impossible budget yields a structured 504 carrying
// the budget that was in force.
func TestBudgetOverride(t *testing.T) {
	_, ts := newTestServer(t, nil)
	scn := registerScenario(t, ts.URL)

	var body map[string]any
	if code := call(t, "POST", ts.URL+"/scenarios/"+scn.ID+"/evaluate?timeout=banana",
		evaluateRequest{Points: testPoints[:1]}, &body); code != http.StatusBadRequest {
		t.Errorf("bad timeout = %d, want 400", code)
	}

	body = nil
	code := call(t, "POST", ts.URL+"/scenarios/"+scn.ID+"/evaluate?timeout=1ns",
		evaluateRequest{Points: testPoints[:1]}, &body)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("1ns budget = %d, want 504", code)
	}
	if body["code"] != "deadline_exceeded" {
		t.Errorf("code = %v, want deadline_exceeded", body["code"])
	}
	if body["budget"] != "1ns" {
		t.Errorf("budget = %v, want 1ns", body["budget"])
	}
}

// ---- blocking VG harness (admission + draining tests) ----

// blockSystem registers BlockModel: a VG whose first invocation signals
// started and then blocks — with every later invocation — until release is
// closed, letting tests hold a render mid-flight deterministically.
func blockSystem(t *testing.T) (sys *fp.System, started chan struct{}, release chan struct{}) {
	t.Helper()
	sys, err := fp.New(fp.WithDemoModels())
	if err != nil {
		t.Fatal(err)
	}
	started = make(chan struct{})
	release = make(chan struct{})
	var once sync.Once
	err = sys.RegisterVG("BlockModel", 1, func(seed uint64, args []float64) (float64, error) {
		once.Do(func() { close(started) })
		<-release
		return args[0], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys, started, release
}

const blockScenario = `
DECLARE PARAMETER @x AS SET (1, 2);
SELECT BlockModel(@x) AS y INTO results;
GRAPH OVER @x EXPECT y WITH bold red;
`

// TestGracefulShutdownDraining: Close() lets an in-flight render finish
// (200) while new requests are refused with 503 + Retry-After, and
// health/metrics stay reachable for orchestrators throughout.
func TestGracefulShutdownDraining(t *testing.T) {
	sys, started, release := blockSystem(t)
	srv, ts := newTestServer(t, func(c *Config) { c.System = sys })

	var scn scenarioJSON
	if code := call(t, "POST", ts.URL+"/scenarios", registerRequest{SQL: blockScenario}, &scn); code != http.StatusCreated {
		t.Fatalf("register = %d", code)
	}
	sess := openSession(t, ts.URL, scn.ID, openSessionRequest{Worlds: 8})

	renderCode := make(chan int, 1)
	go func() {
		var resp renderResponse
		renderCode <- call(t, "GET", ts.URL+"/sessions/"+sess.ID+"/render", nil, &resp)
	}()
	<-started // the render is inside the simulation now

	closeDone := make(chan struct{})
	go func() {
		srv.Close()
		close(closeDone)
	}()
	waitFor(t, time.Second, srv.gate.isDraining)

	// New work is refused while draining...
	resp, err := http.Get(ts.URL + "/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("request while draining = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 carried no Retry-After")
	}
	// ...but liveness stays up.
	if hr, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, hr.Body)
		hr.Body.Close()
		if hr.StatusCode != http.StatusOK {
			t.Errorf("healthz while draining = %d, want 200", hr.StatusCode)
		}
	}

	select {
	case <-closeDone:
		t.Fatal("Close returned while a render was still in flight")
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	if code := <-renderCode; code != http.StatusOK {
		t.Errorf("in-flight render = %d, want 200 (drain must let it finish)", code)
	}
	select {
	case <-closeDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the in-flight render finished")
	}
}

// TestAdmissionShed: with MaxConcurrentRenders=1 and the slot held by a
// blocked render, a second budgeted request queues, times out and is shed
// with 429 + Retry-After.
func TestAdmissionShed(t *testing.T) {
	sys, started, release := blockSystem(t)
	srv, ts := newTestServer(t, func(c *Config) {
		c.System = sys
		c.MaxConcurrentRenders = 1
	})

	var scn scenarioJSON
	if code := call(t, "POST", ts.URL+"/scenarios", registerRequest{SQL: blockScenario}, &scn); code != http.StatusCreated {
		t.Fatalf("register = %d", code)
	}
	sess := openSession(t, ts.URL, scn.ID, openSessionRequest{Worlds: 8})

	renderCode := make(chan int, 1)
	go func() {
		var resp renderResponse
		renderCode <- call(t, "GET", ts.URL+"/sessions/"+sess.ID+"/render", nil, &resp)
	}()
	<-started

	resp, err := http.Post(ts.URL+"/scenarios/"+scn.ID+"/evaluate?timeout=50ms", "application/json",
		strings.NewReader(`{"points":[{"x":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("request over capacity = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 carried no Retry-After")
	}
	if n := srv.metrics.rendersShed.Load(); n != 1 {
		t.Errorf("shed counter = %d, want 1", n)
	}

	close(release)
	if code := <-renderCode; code != http.StatusOK {
		t.Errorf("slot-holding render = %d, want 200", code)
	}
}

// ---- panic isolation ----

const panicScenario = `
DECLARE PARAMETER @x AS SET (1, 2);
SELECT PanicModel(@x) AS boom INTO results;
GRAPH OVER @x EXPECT boom WITH bold red;
`

// TestEvaluationPanicIsolated: a panicking VG-Function fails its own
// request with a structured 500 while a concurrent render on the same
// server completes untouched — and never flags degraded, even with
// allow_degraded set.
func TestEvaluationPanicIsolated(t *testing.T) {
	sys, err := fp.New(fp.WithDemoModels())
	if err != nil {
		t.Fatal(err)
	}
	err = sys.RegisterVG("PanicModel", 1, func(seed uint64, args []float64) (float64, error) {
		panic("injected VG panic")
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, func(c *Config) { c.System = sys })

	var boom scenarioJSON
	if code := call(t, "POST", ts.URL+"/scenarios", registerRequest{SQL: panicScenario}, &boom); code != http.StatusCreated {
		t.Fatalf("register = %d", code)
	}
	healthy := registerScenario(t, ts.URL)

	done := make(chan fp.BatchResult, 1)
	go func() {
		var res fp.BatchResult
		call(t, "POST", ts.URL+"/scenarios/"+healthy.ID+"/evaluate",
			evaluateRequest{Points: testPoints, Worlds: 64}, &res)
		done <- res
	}()

	var body map[string]any
	code := call(t, "POST", ts.URL+"/scenarios/"+boom.ID+"/evaluate",
		evaluateRequest{Points: []map[string]any{{"x": 1}}, Worlds: 16, AllowDegraded: true}, &body)
	if code != http.StatusInternalServerError {
		t.Errorf("panicking evaluation = %d, want 500", code)
	}
	if body["code"] != "panic" {
		t.Errorf("code = %v, want panic", body["code"])
	}
	if n := srv.metrics.panics.Load(); n < 1 {
		t.Errorf("panic counter = %d, want >= 1", n)
	}

	res := <-done
	if len(res.Points) != len(testPoints) {
		t.Errorf("concurrent evaluation returned %d points, want %d — a VG panic must not leak across requests",
			len(res.Points), len(testPoints))
	}
}

// TestHandlerPanicRecovered: the ServeHTTP middleware converts a panicking
// handler into a structured 500 and the server keeps serving.
func TestHandlerPanicRecovered(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	srv.mux.HandleFunc("GET /test/boom", func(http.ResponseWriter, *http.Request) {
		panic("injected handler panic")
	})

	resp, err := http.Get(ts.URL + "/test/boom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("panicking handler = %d, want 500", resp.StatusCode)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("500 body not JSON: %v", err)
	}
	if body["code"] != "panic" {
		t.Errorf("code = %v, want panic", body["code"])
	}
	if n := srv.metrics.panics.Load(); n != 1 {
		t.Errorf("panic counter = %d, want 1", n)
	}

	// The server survived: a real request still works.
	scn := registerScenario(t, ts.URL)
	evaluatePoints(t, ts.URL, scn.ID, evaluateRequest{Points: testPoints[:1], Worlds: 16})
}

// ---- the shard-attempt loop ----

// TestBreakerTable drives one worker's breaker through (event, now) rows
// and reads both its state and the fpserver_breaker_state gauge (0 closed,
// 1 half-open, 2 open) at each row's now. Open windows are jittered to
// [0.9, 1.1) of their span, so "open" rows sit just below 0.9× the span and
// "half-open" rows at 1.1×.
func TestBreakerTable(t *testing.T) {
	const url = "http://worker.invalid"
	srv, _ := newTestServer(t, func(c *Config) { c.Workers = []string{url} })
	ws := srv.workerStates[0]
	ms := time.Millisecond
	t0 := time.Now()
	for _, row := range []struct {
		name  string
		event string // "fail", "succeed" or "" (read only)
		at    time.Duration
		want  int
	}{
		{"a new worker is closed", "", 0, breakerClosed},
		{"the first failure opens", "fail", 0, breakerOpen},
		{"open inside the jittered 5s window", "", 4499 * ms, breakerOpen},
		{"half-open after it", "", 5500 * ms, breakerHalfOpen},
		{"a failed probe re-opens", "fail", 5500 * ms, breakerOpen},
		{"the window doubled to 10s", "", (5500 + 8999) * ms, breakerOpen},
		{"half-open after 10s", "", (5500 + 11000) * ms, breakerHalfOpen},
		{"a failed probe doubles it to 20s", "fail", 16500 * ms, breakerOpen},
		{"half-open after 20s", "", (16500 + 22000) * ms, breakerHalfOpen},
		{"a failed probe doubles it to 40s", "fail", 38500 * ms, breakerOpen},
		{"half-open after 40s", "", (38500 + 44000) * ms, breakerHalfOpen},
		{"a failed probe doubles it to the 80s cap", "fail", 82500 * ms, breakerOpen},
		{"open inside 80s", "", (82500 + 71999) * ms, breakerOpen},
		{"half-open after 80s", "", (82500 + 88000) * ms, breakerHalfOpen},
		{"a failed probe stays at the cap", "fail", 170500 * ms, breakerOpen},
		{"half-open after 80s, not 160s", "", (170500 + 88000) * ms, breakerHalfOpen},
		{"a success closes", "succeed", 258500 * ms, breakerClosed},
		{"the next failure opens again", "fail", 300000 * ms, breakerOpen},
		{"half-open after 5s: the success reset the backoff", "", 305500 * ms, breakerHalfOpen},
	} {
		now := t0.Add(row.at)
		switch row.event {
		case "fail":
			ws.fail(now)
		case "succeed":
			ws.succeed()
		}
		if got := ws.state(now); got != row.want {
			t.Errorf("%s: state = %d, want %d", row.name, got, row.want)
		}
		var buf bytes.Buffer
		srv.metrics.writeTo(&buf, srv, now)
		line := fmt.Sprintf("fpserver_breaker_state{worker=%q} %d\n", url, row.want)
		if !strings.Contains(buf.String(), line) {
			t.Errorf("%s: /metrics lacks %q", row.name, line)
		}
	}
}

// testLog returns a logger whose records go to t.Log.
func testLog(t *testing.T) *slog.Logger {
	return slog.New(slog.NewTextHandler(testWriter{t}, nil))
}

// testWriter writes each slog record as one t.Log line.
type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Helper()
	w.t.Log(strings.TrimSuffix(string(p), "\n"))
	return len(p), nil
}

// TestHedgeWinsDuringBackoff pins the loop's event order with scripted
// attempts over three workers. The hedge goes to the second worker while
// the primary is in flight; the primary then fails, which owes a retry
// after the backoff; the hedge succeeds during that backoff. The hedge's
// result must win at once: no retry is launched on the third worker or
// counted. The backoff is an hour and each attempt waits for the event
// before it, so the order does not depend on timing.
func TestHedgeWinsDuringBackoff(t *testing.T) {
	states := newWorkerStates([]string{"w0", "w1", "w2"})
	p := &workerPool{states: states, metrics: newMetrics(), log: testLog(t), latency: &latencyWindow{}}
	warmWindow(p.latency, time.Millisecond) // the hedge fires after 5ms
	want := &fp.ShardResult{Rows: 7}
	var calls [3]atomic.Int32
	hedgeStarted := make(chan struct{})
	attempt := func(ctx context.Context, ws *workerState) ([]*fp.ShardResult, error) {
		switch ws {
		case states[0]: // the primary fails once the hedge is in flight
			calls[0].Add(1)
			<-hedgeStarted
			return nil, errors.New("connection reset")
		case states[1]: // the hedge succeeds once the loop saw that failure
			calls[1].Add(1)
			close(hedgeStarted)
			for states[0].state(time.Now()) != breakerOpen {
				time.Sleep(100 * time.Microsecond)
			}
			return []*fp.ShardResult{want}, nil
		default:
			calls[2].Add(1)
			return nil, errors.New("a retry reached the third worker")
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got, err := p.race(ctx, fp.WorldShard{Lo: 0, Hi: 8}, 1, time.Hour, attempt)
	if err != nil || len(got) != 1 || got[0] != want {
		t.Fatalf("race = %v, %v; want the hedge's result", got, err)
	}
	for i, want := range []int32{1, 1, 0} {
		if n := calls[i].Load(); n != want {
			t.Errorf("worker %d attempted %d time(s), want %d", i, n, want)
		}
	}
	m := p.metrics
	for name, c := range map[string]struct{ got, want int64 }{
		"retries":         {m.shardRetries.Load(), 0},
		"hedges":          {m.shardHedges.Load(), 1},
		"hedge wins":      {m.shardHedgeWins.Load(), 1},
		"cooldowns":       {m.shardCooldowns.Load(), 1},
		"worker failures": {m.shardWorkerFailures.Load(), 0},
	} {
		if c.got != c.want {
			t.Errorf("%s counter = %d, want %d", name, c.got, c.want)
		}
	}
	if st := states[1].state(time.Now()); st != breakerClosed {
		t.Errorf("the winning worker's breaker = %d, want closed", st)
	}
}

// TestRaceOwnsItsAttempts: race returns only after every attempt it
// launched has reported. The primary blocks until it is cancelled, then
// takes a while to wind down and records that it finished; the hedge wins
// at once. race must cancel the primary (not wait out its attempt
// deadline) and return only after it recorded, and the drained failure
// must move no breaker and no counter.
func TestRaceOwnsItsAttempts(t *testing.T) {
	states := newWorkerStates([]string{"w0", "w1"})
	p := &workerPool{states: states, metrics: newMetrics(), log: testLog(t), latency: &latencyWindow{}}
	warmWindow(p.latency, time.Millisecond) // the hedge fires after 5ms
	want := &fp.ShardResult{Rows: 7}
	var finished atomic.Bool
	var cause error
	attempt := func(ctx context.Context, ws *workerState) ([]*fp.ShardResult, error) {
		if ws == states[1] {
			return []*fp.ShardResult{want}, nil
		}
		<-ctx.Done()
		cause = ctx.Err()
		time.Sleep(20 * time.Millisecond)
		finished.Store(true)
		return nil, ctx.Err()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got, err := p.race(ctx, fp.WorldShard{Lo: 0, Hi: 8}, 1, time.Hour, attempt)
	if !finished.Load() {
		t.Fatal("race returned while the losing attempt was still running")
	}
	if err != nil || len(got) != 1 || got[0] != want {
		t.Fatalf("race = %v, %v; want the hedge's result", got, err)
	}
	if !errors.Is(cause, context.Canceled) {
		t.Errorf("the losing attempt ended with %v, want it cancelled", cause)
	}
	m := p.metrics
	for name, c := range map[string]struct{ got, want int64 }{
		"hedges":          {m.shardHedges.Load(), 1},
		"hedge wins":      {m.shardHedgeWins.Load(), 1},
		"cooldowns":       {m.shardCooldowns.Load(), 0},
		"retries":         {m.shardRetries.Load(), 0},
		"worker failures": {m.shardWorkerFailures.Load(), 0},
	} {
		if c.got != c.want {
			t.Errorf("%s counter = %d, want %d", name, c.got, c.want)
		}
	}
	if st := states[0].state(time.Now()); st != breakerClosed {
		t.Errorf("the losing worker's breaker = %d, want closed", st)
	}
}

// TestBatchTimingsScaleWithPoints: the latency window holds per-point
// latencies and a request's timings scale with its point count. A window
// warmed with 1-point latencies of 10ms hedges a 1-point request after 10ms,
// but must not hedge a healthy 53-point batch taking 100ms (a fifth of
// 53×10ms), whose attempt deadline is 20×53×10ms, not the 1-point floor of
// 1s. Sixteen 53-point batches of 10ms then warm a fresh window to a
// per-point P95 under a millisecond, so a 1-point request hedges at the 5ms
// floor rather than at 10ms.
func TestBatchTimingsScaleWithPoints(t *testing.T) {
	const points = 53
	ctx := context.Background()
	states := newWorkerStates([]string{"w0", "w1"})
	p := &workerPool{states: states, metrics: newMetrics(), log: testLog(t), latency: &latencyWindow{}}
	warmWindow(p.latency, 10*time.Millisecond)
	if hedge, deadline, _ := p.latency.timings(1); hedge != 10*time.Millisecond || deadline != time.Second {
		t.Fatalf("1-point timings = %v, %v; want 10ms, 1s", hedge, deadline)
	}
	var budget time.Duration
	batch := func(ctx context.Context, ws *workerState) ([]*fp.ShardResult, error) {
		if ws != states[0] {
			return nil, errors.New("hedged onto the second worker")
		}
		if dl, ok := ctx.Deadline(); ok {
			budget = time.Until(dl)
		}
		time.Sleep(100 * time.Millisecond)
		return make([]*fp.ShardResult, points), nil
	}
	if _, err := p.race(ctx, fp.WorldShard{Lo: 0, Hi: 8}, points, retryBackoff, batch); err != nil {
		t.Fatal(err)
	}
	if n := p.metrics.shardHedges.Load(); n != 0 {
		t.Errorf("a healthy 53-point batch hedged %d time(s)", n)
	}
	if want := attemptDeadlineFactor * points * 10 * time.Millisecond; budget < want-time.Second || budget > want {
		t.Errorf("53-point attempt deadline = %v, want %v", budget, want)
	}

	fresh := &workerPool{states: states[:1], metrics: newMetrics(), log: testLog(t), latency: &latencyWindow{}}
	quick := func(context.Context, *workerState) ([]*fp.ShardResult, error) {
		time.Sleep(10 * time.Millisecond)
		return make([]*fp.ShardResult, points), nil
	}
	for range minWarmSamples {
		if _, err := fresh.race(ctx, fp.WorldShard{Lo: 0, Hi: 8}, points, retryBackoff, quick); err != nil {
			t.Fatal(err)
		}
	}
	if hedge, _, warm := fresh.latency.timings(1); !warm || hedge != minHedgeDelay {
		t.Errorf("after 53-point batches of 10ms, a 1-point hedge delay = %v (warm %v), want the %v floor", hedge, warm, minHedgeDelay)
	}
}

// TestDoubleHangFallsBackLocally: with both workers hung and a warm latency
// window, the primary and the hedge each give up at the derived attempt
// deadline (1s here) and the shard is evaluated locally well inside the
// request's 5s budget — a 200 bit-identical to single-node, not a 504.
func TestDoubleHangFallsBackLocally(t *testing.T) {
	_, local := newTestServer(t, nil)
	scnLocal := registerScenario(t, local.URL)
	one := []map[string]any{testPoints[0]}
	want := evaluatePoints(t, local.URL, scnLocal.ID, evaluateRequest{Points: one, Worlds: 64})

	var urls []string
	for i := 0; i < 2; i++ {
		_, worker := newTestServer(t, func(c *Config) { c.WorkerMode = true })
		proxy := protocoltest.New(worker.URL)
		t.Cleanup(proxy.Close)
		proxy.SetFault(protocoltest.Hang)
		urls = append(urls, proxy.URL())
	}
	coordSrv, coord := newTestServer(t, func(c *Config) { c.Workers = urls })
	warmWindow(coordSrv.shardLatency, time.Millisecond)
	scn := registerScenario(t, coord.URL)

	start := time.Now()
	var got fp.BatchResult
	code := call(t, "POST", coord.URL+"/scenarios/"+scn.ID+"/evaluate?timeout=5s",
		evaluateRequest{Points: one, Worlds: 64}, &got)
	elapsed := time.Since(start)
	if code != http.StatusOK {
		t.Fatalf("evaluate with both workers hung = %d, want 200", code)
	}
	if elapsed >= 3*time.Second {
		t.Errorf("evaluate took %v, want under 3s", elapsed)
	}
	if !reflect.DeepEqual(want.Points[0].Summaries, got.Points[0].Summaries) {
		t.Errorf("local fallback diverged:\nlocal:    %+v\nfallback: %+v",
			want.Points[0].Summaries, got.Points[0].Summaries)
	}
	if n := coordSrv.metrics.shardWorkerFailures.Load(); n == 0 {
		t.Error("no shard fell back locally")
	}
}

// waitFor polls cond until it holds or the deadline lapses.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}
