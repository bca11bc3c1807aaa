package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	fp "fuzzyprophet"
	"fuzzyprophet/internal/server/protocoltest"
	"fuzzyprophet/internal/sqlparser"
)

// newWorkerServer starts a shard worker (WorkerMode).
func newWorkerServer(t *testing.T) *httptest.Server {
	t.Helper()
	_, ts := newTestServer(t, func(c *Config) { c.WorkerMode = true })
	return ts
}

// postShard sends one JSON shard request and, on a 200, decodes the
// response frame.
func postShard(t *testing.T, base string, req shardRequest) (int, *shardResponse) {
	t.Helper()
	resp, err := http.Post(base+"/shard/render", "application/json", bytes.NewReader(mustMarshal(t, req)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil
	}
	if ct := resp.Header.Get("Content-Type"); ct != shardFrameContentType {
		t.Errorf("shard answer Content-Type = %q, want %q", ct, shardFrameContentType)
	}
	res, err := decodeShardFrame(raw)
	if err != nil {
		t.Fatalf("decoding shard frame: %v", err)
	}
	return resp.StatusCode, res
}

func TestShardWorkerEndpoint(t *testing.T) {
	ts := newWorkerServer(t)

	code, res := postShard(t, ts.URL, shardRequest{
		Proto:  fp.ShardProtocolVersion,
		SQL:    testScenario,
		Points: []map[string]any{{"current": 3, "purchase1": 8, "feature": 4}},
		Worlds: 100,
		Lo:     25,
		Hi:     75,
	})
	if code != http.StatusOK {
		t.Fatalf("shard render = %d", code)
	}
	if len(res.Points) != 1 {
		t.Fatalf("%d results for one point", len(res.Points))
	}
	if res.Points[0].Rows != 50 {
		t.Errorf("rows = %d, want 50", res.Points[0].Rows)
	}
	for _, col := range []string{"demand", "capacity", "overload"} {
		if len(res.Points[0].Columns[col]) != 50 {
			t.Errorf("column %s has %d rows, want 50", col, len(res.Points[0].Columns[col]))
		}
	}
	if n := len(res.Points[0].Sketches); n != 0 {
		t.Errorf("a vector answer carries %d sketches, want none", n)
	}

	// Bad ranges are rejected.
	for _, bad := range []shardRequest{
		{SQL: testScenario, Worlds: 100, Lo: -1, Hi: 10},
		{SQL: testScenario, Worlds: 100, Lo: 10, Hi: 101},
		{SQL: testScenario, Worlds: 100, Lo: 10, Hi: 10},
		{SQL: testScenario, Worlds: 0, Lo: 0, Hi: 1},
		{Worlds: 100, Lo: 0, Hi: 10},
	} {
		bad.Proto = fp.ShardProtocolVersion
		bad.Points = []map[string]any{{"current": 0, "purchase1": 0, "feature": 4}}
		if code, _ := postShard(t, ts.URL, bad); code != http.StatusBadRequest {
			t.Errorf("bad shard request %+v = %d, want 400", bad, code)
		}
	}

	// A wrong fingerprint (coordinator/worker drift) is rejected.
	code, _ = postShard(t, ts.URL, shardRequest{
		Proto:       fp.ShardProtocolVersion,
		SQL:         testScenario,
		Fingerprint: "deadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeef",
		Points:      []map[string]any{{"current": 0, "purchase1": 0, "feature": 4}},
		Worlds:      100,
		Lo:          0,
		Hi:          10,
	})
	if code != http.StatusBadRequest {
		t.Errorf("fingerprint mismatch = %d, want 400", code)
	}

	// Worker mode serves only the shard surface.
	if code := call(t, "POST", ts.URL+"/scenarios", registerRequest{SQL: testScenario}, nil); code != http.StatusNotFound {
		t.Errorf("worker-mode /scenarios = %d, want 404", code)
	}
	if code := call(t, "GET", ts.URL+"/healthz", nil, nil); code != http.StatusOK {
		t.Errorf("worker-mode /healthz = %d", code)
	}
}

// TestShardWorkerRejectsOtherProtocols: a worker answers any protocol
// version but its own — older, newer or missing — with a JSON
// 400 unsupported_protocol, so a mixed fleet fails loudly instead of
// mis-decoding frames.
func TestShardWorkerRejectsOtherProtocols(t *testing.T) {
	ts := newWorkerServer(t)
	for _, proto := range []int{0, fp.ShardProtocolVersion - 1, fp.ShardProtocolVersion + 1} {
		var body struct{ Error, Code string }
		code := call(t, "POST", ts.URL+"/shard/render", shardRequest{
			Proto:  proto,
			SQL:    testScenario,
			Points: []map[string]any{{"current": 3, "purchase1": 8, "feature": 4}},
			Worlds: 100,
			Lo:     0,
			Hi:     50,
		}, &body)
		if code != http.StatusBadRequest || body.Code != codeUnsupportedProtocol {
			t.Errorf("proto %d = %d %+v, want 400 %s", proto, code, body, codeUnsupportedProtocol)
		}
	}
}

// renderGraph registers the test scenario, opens a session and renders.
func renderGraph(t *testing.T, base string) fp.Graph {
	t.Helper()
	scn := registerScenario(t, base)
	sess := openSession(t, base, scn.ID, openSessionRequest{Worlds: 80})
	var rr renderResponse
	if code := call(t, "GET", base+"/sessions/"+sess.ID+"/render", nil, &rr); code != http.StatusOK {
		t.Fatalf("render = %d", code)
	}
	return *rr.Graph
}

func assertSameGraph(t *testing.T, want, got fp.Graph) {
	t.Helper()
	if len(got.Series) != len(want.Series) {
		t.Fatalf("series count %d, want %d", len(got.Series), len(want.Series))
	}
	for i := range want.Series {
		w, g := want.Series[i], got.Series[i]
		if w.Name != g.Name || len(w.Y) != len(g.Y) {
			t.Fatalf("series %d shape mismatch", i)
		}
		for j := range w.Y {
			if w.Y[j] != g.Y[j] {
				t.Fatalf("series %s x=%g: fanned-out %v != local %v (bit-identity violated)",
					w.Name, want.X[j], g.Y[j], w.Y[j])
			}
			if w.CI95[j] != g.CI95[j] {
				t.Fatalf("series %s x=%g: CI95 %v != %v", w.Name, want.X[j], g.CI95[j], w.CI95[j])
			}
		}
	}
}

// TestCoordinatorFanout: a session render fanned out across two HTTP shard
// workers is bit-identical to the same render evaluated locally.
func TestCoordinatorFanout(t *testing.T) {
	w1 := newWorkerServer(t)
	w2 := newWorkerServer(t)
	_, local := newTestServer(t, nil)
	coordSrv, coord := newTestServer(t, func(c *Config) { c.Workers = []string{w1.URL, w2.URL} })

	want := renderGraph(t, local.URL)
	got := renderGraph(t, coord.URL)
	assertSameGraph(t, want, got)

	if n := coordSrv.metrics.shardFanouts.Load(); n == 0 {
		t.Error("no shard fan-outs recorded")
	}
	if n := coordSrv.metrics.shardWorkerFailures.Load(); n != 0 {
		t.Errorf("%d worker failures on healthy workers", n)
	}
}

// TestCoordinatorRetry: with one dead worker in the pool, shards retry on
// the live one and the render still matches the local render bit for bit.
func TestCoordinatorRetry(t *testing.T) {
	live := newWorkerServer(t)
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "worker on fire", http.StatusInternalServerError)
	}))
	t.Cleanup(dead.Close)

	_, local := newTestServer(t, nil)
	coordSrv, coord := newTestServer(t, func(c *Config) { c.Workers = []string{dead.URL, live.URL} })

	want := renderGraph(t, local.URL)
	got := renderGraph(t, coord.URL)
	assertSameGraph(t, want, got)

	if n := coordSrv.metrics.shardRetries.Load(); n == 0 {
		t.Error("no shard retries recorded despite a dead worker")
	}
	if n := coordSrv.metrics.shardWorkerFailures.Load(); n != 0 {
		t.Errorf("%d shards failed every worker; the live worker should have covered them", n)
	}
}

// TestCoordinatorLocalFallback: when every worker is unreachable, each
// shard falls back to local evaluation — the render succeeds and stays
// bit-identical.
func TestCoordinatorLocalFallback(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "gone", http.StatusBadGateway)
	}))
	t.Cleanup(dead.Close)

	_, local := newTestServer(t, nil)
	coordSrv, coord := newTestServer(t, func(c *Config) { c.Workers = []string{dead.URL} })

	want := renderGraph(t, local.URL)
	got := renderGraph(t, coord.URL)
	assertSameGraph(t, want, got)

	if n := coordSrv.metrics.shardWorkerFailures.Load(); n == 0 {
		t.Error("no worker failures recorded despite all workers dead")
	}
}

// TestCoordinatorBatchEvaluate: batch evaluation also fans out, with
// summaries identical to the local path.
func TestCoordinatorBatchEvaluate(t *testing.T) {
	worker := newWorkerServer(t)
	_, local := newTestServer(t, nil)
	_, coord := newTestServer(t, func(c *Config) { c.Workers = []string{worker.URL} })

	points := []map[string]any{
		{"current": 2, "purchase1": 0, "feature": 4},
		{"current": 5, "purchase1": 8, "feature": 8},
	}
	run := func(base string) fp.BatchResult {
		scn := registerScenario(t, base)
		var res fp.BatchResult
		if code := call(t, "POST", base+"/scenarios/"+scn.ID+"/evaluate",
			evaluateRequest{Points: points, Worlds: 64}, &res); code != http.StatusOK {
			t.Fatalf("evaluate = %d", code)
		}
		return res
	}
	want, got := run(local.URL), run(coord.URL)
	if len(got.Points) != len(want.Points) {
		t.Fatalf("%d points, want %d", len(got.Points), len(want.Points))
	}
	for i := range want.Points {
		for col, ws := range want.Points[i].Summaries {
			gs := got.Points[i].Summaries[col]
			if ws.Mean != gs.Mean || ws.StdDev != gs.StdDev || ws.N != gs.N {
				t.Errorf("point %d column %s: fanned-out mean/stddev %v/%v != local %v/%v",
					i, col, gs.Mean, gs.StdDev, ws.Mean, ws.StdDev)
			}
		}
	}
}

// TestFleetSendsFixedRanges: a coordinator sends shard i of every batch to
// worker i as the equal split, so a worker sees one world range for the
// whole sweep — the range its series chains and pooled evaluators are keyed
// by — and one request per batch, carrying the batch's points in order. No
// shard is duplicated onto the other worker: the 4 shards below leave the
// latency window cold (under 16 samples) for every shard's start, and a
// cold window never hedges.
func TestFleetSendsFixedRanges(t *testing.T) {
	const worlds = 400
	var proxies []*protocoltest.Proxy
	var urls []string
	for i := 0; i < 2; i++ {
		proxy := protocoltest.New(newWorkerServer(t).URL)
		t.Cleanup(proxy.Close)
		proxies = append(proxies, proxy)
		urls = append(urls, proxy.URL())
	}
	_, coord := newTestServer(t, func(c *Config) {
		c.Workers = urls
	})

	scn := registerScenario(t, coord.URL)
	var weeks []map[string]any
	for w := 5; w < 9; w++ {
		weeks = append(weeks, map[string]any{"current": w, "purchase1": 8, "feature": 4})
	}
	for run := 0; run < 2; run++ {
		evaluatePoints(t, coord.URL, scn.ID, evaluateRequest{Points: weeks, Worlds: worlds, SketchOnly: true})
	}

	for i, proxy := range proxies {
		want := [2]int{i * worlds / 2, (i + 1) * worlds / 2}
		ex := proxy.ShardExchanges()
		if len(ex) != 2 {
			t.Errorf("worker %d saw %d shard requests, want 2 (one per batch)", i, len(ex))
		}
		for j, e := range ex {
			var req shardRequest
			if err := json.Unmarshal(e.RequestBody, &req); err != nil {
				t.Fatalf("worker %d request %d: %v", i, j, err)
			}
			if got := [2]int{req.Lo, req.Hi}; got != want {
				t.Errorf("worker %d request %d asks for [%d,%d), want [%d,%d)",
					i, j, got[0], got[1], want[0], want[1])
			}
			if len(req.Points) != len(weeks) {
				t.Fatalf("worker %d request %d carries %d points, want %d", i, j, len(req.Points), len(weeks))
			}
			for k, pt := range req.Points {
				if pt["current"] != float64(weeks[k]["current"].(int)) {
					t.Errorf("worker %d request %d point %d is week %v, want %v", i, j, k, pt["current"], weeks[k]["current"])
				}
			}
		}
	}
}

// TestFleetReregistrationWithNewTables: re-registering serverfleet with the
// same SQL and different side-table rows reaches the fleet. The scenario
// fingerprint covers the tables, so the worker compiles the new
// registration instead of resolving the old one from its scenario cache,
// and the fleet render equals a single-node render of the new rows.
func TestFleetReregistrationWithNewTables(t *testing.T) {
	_, worker := newTestServer(t, func(c *Config) {
		c.System = newExampleSystem(t)
		c.WorkerMode = true
	})
	_, coord := newTestServer(t, func(c *Config) {
		c.System = newExampleSystem(t)
		c.Workers = []string{worker.URL}
	})
	_, local := newTestServer(t, func(c *Config) { c.System = newExampleSystem(t) })
	sql := sqlparser.ExampleScenarios()["serverfleet"]
	render := func(base string, regions tableDef) (scenarioJSON, fp.Graph) {
		t.Helper()
		var scn scenarioJSON
		req := registerRequest{SQL: sql, ID: "serverfleet", Tables: []tableDef{regions}}
		if code := call(t, "POST", base+"/scenarios", req, &scn); code != http.StatusCreated {
			t.Fatalf("register = %d", code)
		}
		sess := openSession(t, base, scn.ID, openSessionRequest{Worlds: 48})
		var rr renderResponse
		if code := call(t, "GET", base+"/sessions/"+sess.ID+"/render", nil, &rr); code != http.StatusOK {
			t.Fatalf("render = %d", code)
		}
		return scn, *rr.Graph
	}

	before, _ := render(coord.URL, regionsTableDef)
	bigger := tableDef{Name: regionsTableDef.Name, Columns: regionsTableDef.Columns}
	for _, row := range regionsTableDef.Rows {
		bigger.Rows = append(bigger.Rows, []any{row[0], row[1], 2 * row[2].(float64)})
	}
	after, got := render(coord.URL, bigger)
	if after.Fingerprint == before.Fingerprint {
		t.Fatal("new side-table rows kept the scenario fingerprint")
	}
	_, want := render(local.URL, bigger)
	assertSameGraph(t, want, got)
}

// overflowScenario's demand overflows to +Inf in every world, so its
// sketches carry ±Inf extremes and NaN moments.
const overflowScenario = `
DECLARE PARAMETER @current AS RANGE 0 TO 12 STEP BY 1;
DECLARE PARAMETER @feature AS SET (4, 8);
SELECT DemandModel(@current, @feature) * 1e308 * 10 AS demand INTO results;
GRAPH OVER @current EXPECT demand;
`

// TestNonFiniteValuesCrossTheShardHop: non-finite statistics travel the
// shard hop as bits. A sketch-only evaluate of an overflowing scenario
// through a worker costs no failed attempt and no breaker cool-down, the
// worker's sketches and vectors arrive bit-equal to an in-process
// evaluation of the same range, and /evaluate answers the same
// 500 {code:"encode"} single-node does — never a 200 with an empty body.
func TestNonFiniteValuesCrossTheShardHop(t *testing.T) {
	worker := newWorkerServer(t)
	coordSrv, coord := newTestServer(t, func(c *Config) { c.Workers = []string{worker.URL} })
	_, local := newTestServer(t, nil)

	point := map[string]any{"current": 3, "feature": 4}
	const worlds = 64
	var scn scenarioJSON
	for _, base := range []string{local.URL, coord.URL} {
		if code := call(t, "POST", base+"/scenarios", registerRequest{SQL: overflowScenario}, &scn); code != http.StatusCreated {
			t.Fatalf("register = %d", code)
		}
		var body struct{ Error, Code string }
		code := call(t, "POST", base+"/scenarios/"+scn.ID+"/evaluate",
			evaluateRequest{Points: []map[string]any{point}, Worlds: worlds, SketchOnly: true}, &body)
		if code != http.StatusInternalServerError || body.Code != codeEncode {
			t.Errorf("%s evaluate = %d %+v, want 500 code %q", base, code, body, codeEncode)
		}
	}
	if n := coordSrv.metrics.shardFanouts.Load(); n == 0 {
		t.Error("no shard fan-outs recorded")
	}
	if n := coordSrv.metrics.shardWorkerFailures.Load(); n != 0 {
		t.Errorf("%d shards fell back locally", n)
	}
	if n := coordSrv.metrics.shardCooldowns.Load(); n != 0 {
		t.Errorf("the worker's breaker opened %d time(s)", n)
	}

	entry, ok := coordSrv.registry.Get(scn.ID)
	if !ok {
		t.Fatal("scenario not registered on the coordinator")
	}
	inproc, err := coordSrv.newShardWorkerFor(entry.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	for _, sketchOnly := range []bool{true, false} {
		req := fp.ShardRequest{Points: []map[string]any{point}, Worlds: worlds, Shard: fp.WorldShard{Lo: 0, Hi: worlds}, SketchOnly: sketchOnly}
		got, err := coordSrv.newWorkerPool(entry).EvaluateShard(context.Background(), req)
		if err != nil {
			t.Fatalf("sketch_only=%v: shard over the wire: %v", sketchOnly, err)
		}
		want, err := inproc.EvaluateShard(context.Background(), req.Points, worlds, 0, req.Shard, sketchOnly)
		if err != nil {
			t.Fatal(err)
		}
		max := want[0].Sketches["demand"].Max
		if !sketchOnly {
			max = slices.Max(want[0].Columns["demand"])
		}
		if !math.IsInf(max, 1) {
			t.Fatalf("demand max = %v, want +Inf (scenario no longer overflows)", max)
		}
		if d := diffShardResult(want[0], got[0]); d != "" {
			t.Errorf("sketch_only=%v: wire result differs from in-process: %s", sketchOnly, d)
		}
	}
}

// TestShardAnswerShapeOverHTTP: through the coordinator's workerPool, a
// vector-mode answer arrives with the shard's vectors and no sketch — the
// frame decoder builds a Sketches map only for a column flagged
// frameSketch, so a nil map means no column carried one — and a
// sketch-only answer with one sketch per column and no vector. Each
// arrives bit-equal to the in-process ShardWorker's answer.
func TestShardAnswerShapeOverHTTP(t *testing.T) {
	worker := newWorkerServer(t)
	coordSrv, coord := newTestServer(t, func(c *Config) { c.Workers = []string{worker.URL} })
	scn := registerScenario(t, coord.URL)
	entry, ok := coordSrv.registry.Get(scn.ID)
	if !ok {
		t.Fatal("scenario not registered on the coordinator")
	}
	inproc, err := coordSrv.newShardWorkerFor(entry.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	const worlds = 90
	columns := len(entry.Scenario.OutputColumns())
	for _, sketchOnly := range []bool{false, true} {
		req := fp.ShardRequest{Points: testPoints, Worlds: worlds, Shard: fp.WorldShard{Lo: 30, Hi: worlds}, SketchOnly: sketchOnly}
		got, err := coordSrv.newWorkerPool(entry).EvaluateShard(context.Background(), req)
		if err != nil {
			t.Fatalf("sketch_only=%v: %v", sketchOnly, err)
		}
		want, err := inproc.EvaluateShard(context.Background(), req.Points, worlds, 0, req.Shard, sketchOnly)
		if err != nil {
			t.Fatal(err)
		}
		for i, res := range got {
			vectors, sketches := len(res.Columns), len(res.Sketches)
			if sketchOnly && (res.Columns != nil || sketches != columns) ||
				!sketchOnly && (res.Sketches != nil || vectors != columns) {
				t.Errorf("sketch_only=%v, point %d: %d vectors and %d sketches for %d columns", sketchOnly, i, vectors, sketches, columns)
			}
			if res.Rows != 60 {
				t.Errorf("sketch_only=%v, point %d: %d rows, want 60", sketchOnly, i, res.Rows)
			}
			if d := diffShardResult(want[i], res); d != "" {
				t.Errorf("sketch_only=%v, point %d: wire result differs from in-process: %s", sketchOnly, i, d)
			}
		}
	}
}
