package server

import (
	"bytes"
	"context"
	"net/http"
	"reflect"
	"testing"
	"time"

	fp "fuzzyprophet"
	"fuzzyprophet/internal/rng"
	"fuzzyprophet/internal/server/protocoltest"
	"fuzzyprophet/internal/sqlparser"
)

// evaluatePoints runs a batch evaluation against base for an already
// registered scenario.
func evaluatePoints(t *testing.T, base, scnID string, req evaluateRequest) fp.BatchResult {
	t.Helper()
	var res fp.BatchResult
	if code := call(t, "POST", base+"/scenarios/"+scnID+"/evaluate", req, &res); code != http.StatusOK {
		t.Fatalf("evaluate = %d", code)
	}
	return res
}

var testPoints = []map[string]any{
	{"current": 2, "purchase1": 0, "feature": 4},
	{"current": 5, "purchase1": 8, "feature": 8},
	{"current": 3, "purchase1": 16, "feature": 6},
}

// TestSteadyStateShardRequestsCarryNoPayload is the wire contract's core
// assertion: after first contact, every shard request to a warm worker
// carries only the fingerprint and point bindings — no script, no side
// tables — verified by inspecting the actual bytes through the proxy.
func TestSteadyStateShardRequestsCarryNoPayload(t *testing.T) {
	_, worker := newTestServer(t, func(c *Config) { c.WorkerMode = true })
	proxy := protocoltest.New(worker.URL)
	t.Cleanup(proxy.Close)
	coordSrv, coord := newTestServer(t, func(c *Config) { c.Workers = []string{proxy.URL()} })

	scn := registerScenario(t, coord.URL)
	for _, pt := range testPoints {
		evaluatePoints(t, coord.URL, scn.ID, evaluateRequest{Points: []map[string]any{pt}, Worlds: 64})
	}

	ex := proxy.ShardExchanges()
	if len(ex) < len(testPoints) {
		t.Fatalf("proxy saw %d shard exchanges, want >= %d", len(ex), len(testPoints))
	}
	if !ex[0].HasSQLPayload() {
		t.Error("first contact did not carry the full scenario payload")
	}
	for i, e := range ex[1:] {
		if e.HasSQLPayload() {
			t.Errorf("steady-state exchange %d carries a script payload: %s", i+1, e.RequestBody)
		}
		if bytes.Contains(e.RequestBody, []byte(`"tables"`)) {
			t.Errorf("steady-state exchange %d carries side tables", i+1)
		}
		if e.Status != http.StatusOK {
			t.Errorf("steady-state exchange %d = %d", i+1, e.Status)
		}
		if e.RequestBytes >= ex[0].RequestBytes {
			t.Errorf("slim request (%dB) not smaller than full (%dB)", e.RequestBytes, ex[0].RequestBytes)
		}
	}
	if n := coordSrv.metrics.shardSlimRequests.Load(); n < int64(len(testPoints)-1) {
		t.Errorf("slim request counter = %d, want >= %d", n, len(testPoints)-1)
	}
	if n := coordSrv.metrics.shardFullRequests.Load(); n < 1 {
		t.Errorf("full request counter = %d, want >= 1", n)
	}
}

// TestCacheMissResend: flushing the worker's scenario cache between
// renders makes the next fingerprint-only request answer 409, upon which
// the coordinator re-sends the full payload exactly once and the render
// succeeds; steady state then resumes fingerprint-only.
func TestCacheMissResend(t *testing.T) {
	workerSrv, worker := newTestServer(t, func(c *Config) { c.WorkerMode = true })
	proxy := protocoltest.New(worker.URL)
	t.Cleanup(proxy.Close)
	coordSrv, coord := newTestServer(t, func(c *Config) { c.Workers = []string{proxy.URL()} })

	scn := registerScenario(t, coord.URL)
	one := []map[string]any{testPoints[0]}
	evaluatePoints(t, coord.URL, scn.ID, evaluateRequest{Points: one, Worlds: 64})

	// The worker forgets every scenario (restart / LRU eviction stand-in).
	workerSrv.shardCache.flush()
	proxy.Reset()
	evaluatePoints(t, coord.URL, scn.ID, evaluateRequest{Points: one, Worlds: 64})

	ex := proxy.ShardExchanges()
	if len(ex) != 2 {
		t.Fatalf("recovery took %d exchanges, want 2 (slim 409 + full 200): %+v", len(ex), ex)
	}
	if ex[0].HasSQLPayload() || ex[0].Status != http.StatusConflict {
		t.Errorf("first recovery exchange = payload %v status %d, want slim 409", ex[0].HasSQLPayload(), ex[0].Status)
	}
	if !ex[1].HasSQLPayload() || ex[1].Status != http.StatusOK {
		t.Errorf("second recovery exchange = payload %v status %d, want full 200", ex[1].HasSQLPayload(), ex[1].Status)
	}
	if n := coordSrv.metrics.shardCacheMissResends.Load(); n != 1 {
		t.Errorf("cache-miss re-send counter = %d, want 1", n)
	}
	if n := workerSrv.metrics.shardCacheMisses.Load(); n != 1 {
		t.Errorf("worker cache-miss counter = %d, want 1", n)
	}

	// Steady state resumed: the next render is slim again.
	proxy.Reset()
	evaluatePoints(t, coord.URL, scn.ID, evaluateRequest{Points: one, Worlds: 64})
	ex = proxy.ShardExchanges()
	if len(ex) != 1 || ex[0].HasSQLPayload() || ex[0].Status != http.StatusOK {
		t.Errorf("post-recovery exchanges = %+v, want one slim 200", ex)
	}
}

// TestCacheMissStorm: a multi-point batch right after the worker lost its
// whole cache (a cache-miss storm) recovers per shard and stays
// bit-identical to the local evaluation.
func TestCacheMissStorm(t *testing.T) {
	workerSrv, worker := newTestServer(t, func(c *Config) { c.WorkerMode = true })
	proxy := protocoltest.New(worker.URL)
	t.Cleanup(proxy.Close)
	_, coord := newTestServer(t, func(c *Config) { c.Workers = []string{proxy.URL()} })
	_, local := newTestServer(t, nil)

	scnLocal := registerScenario(t, local.URL)
	want := evaluatePoints(t, local.URL, scnLocal.ID, evaluateRequest{Points: testPoints, Worlds: 64})

	scn := registerScenario(t, coord.URL)
	evaluatePoints(t, coord.URL, scn.ID, evaluateRequest{Points: testPoints[:1], Worlds: 64})
	workerSrv.shardCache.flush()
	got := evaluatePoints(t, coord.URL, scn.ID, evaluateRequest{Points: testPoints, Worlds: 64})

	for i := range want.Points {
		if !reflect.DeepEqual(want.Points[i].Summaries, got.Points[i].Summaries) {
			t.Errorf("point %d summaries diverged after cache-miss storm:\nlocal: %+v\nfanned: %+v",
				i, want.Points[i].Summaries, got.Points[i].Summaries)
		}
	}
}

// TestSlim400LeavesWorkerWarm: a 400 to a fingerprint-only request — here
// a bad world range — is the request's fault. It costs exactly one POST,
// never counts against the worker's breaker, and the worker stays warm: the
// next shard to it is still fingerprint-only.
func TestSlim400LeavesWorkerWarm(t *testing.T) {
	_, worker := newTestServer(t, func(c *Config) { c.WorkerMode = true })
	proxy := protocoltest.New(worker.URL)
	t.Cleanup(proxy.Close)
	coordSrv, coord := newTestServer(t, func(c *Config) { c.Workers = []string{proxy.URL()} })

	scn := registerScenario(t, coord.URL)
	one := []map[string]any{testPoints[0]}
	// Cold contact is full-payload and warms the worker.
	evaluatePoints(t, coord.URL, scn.ID, evaluateRequest{Points: one, Worlds: 64})

	entry, ok := coordSrv.registry.Get(scn.ID)
	if !ok {
		t.Fatalf("scenario %s not registered", scn.ID)
	}
	proxy.Reset()
	_, err := coordSrv.newWorkerPool(entry).EvaluateShard(context.Background(), fp.ShardRequest{
		Points: []map[string]any{testPoints[0]},
		Worlds: 64,
		Shard:  fp.WorldShard{Lo: 40, Hi: 8},
	})
	if err == nil {
		t.Fatal("inverted shard range evaluated without error")
	}
	ex := proxy.ShardExchanges()
	if len(ex) != 1 || ex[0].HasSQLPayload() || ex[0].Status != http.StatusBadRequest {
		t.Fatalf("bad-range shard exchanges = %+v, want exactly one slim 400", ex)
	}
	if n := coordSrv.metrics.shardCooldowns.Load(); n != 0 {
		t.Errorf("a 400 opened the worker's breaker %d time(s)", n)
	}
	if st := coordSrv.workerStates[0].state(time.Now()); st != breakerClosed {
		t.Errorf("a 400 counted against the worker's breaker (state = %d)", st)
	}

	proxy.Reset()
	evaluatePoints(t, coord.URL, scn.ID, evaluateRequest{Points: one, Worlds: 64})
	ex = proxy.ShardExchanges()
	if len(ex) != 1 || ex[0].HasSQLPayload() || ex[0].Status != http.StatusOK {
		t.Errorf("exchanges after the 400 = %+v, want one slim 200", ex)
	}
	if n := coordSrv.metrics.shardFullRequests.Load(); n != 1 {
		t.Errorf("full request counter = %d, want 1 (first contact only)", n)
	}
}

// TestFlappingWorkerCooldown: a worker that fails a shard request enters
// the unhealthy cool-down and is not offered another shard until it
// expires — a flapping worker never serves (or fails) two consecutive
// shards.
func TestFlappingWorkerCooldown(t *testing.T) {
	_, good := newTestServer(t, func(c *Config) { c.WorkerMode = true })
	_, flappy := newTestServer(t, func(c *Config) { c.WorkerMode = true })
	proxy := protocoltest.New(flappy.URL)
	t.Cleanup(proxy.Close)
	proxy.SetFault(protocoltest.Drop)

	// The breaker's first open window (5s, jittered to at least 4.5s)
	// outlasts the three evaluations below.
	coordSrv, coord := newTestServer(t, func(c *Config) {
		c.Workers = []string{proxy.URL(), good.URL}
	})
	scn := registerScenario(t, coord.URL)
	for _, pt := range testPoints {
		evaluatePoints(t, coord.URL, scn.ID, evaluateRequest{Points: []map[string]any{pt}, Worlds: 64})
	}

	if ex := proxy.ShardExchanges(); len(ex) != 1 {
		t.Errorf("flapping worker saw %d shard requests during the cool-down, want exactly 1", len(ex))
	}
	if n := coordSrv.metrics.shardCooldowns.Load(); n != 1 {
		t.Errorf("cooldown counter = %d, want 1", n)
	}
	if n := coordSrv.metrics.shardWorkerFailures.Load(); n != 0 {
		t.Errorf("%d shards fell back locally; the healthy worker should have covered them", n)
	}
}

// ---- fault matrix over the five bundled example scenarios ----

// newExampleSystem mirrors benchfix.Registry through the public API: demo
// models plus the quickstart's OrderVolume stand-in.
func newExampleSystem(t *testing.T) *fp.System {
	t.Helper()
	sys, err := fp.New(fp.WithDemoModels())
	if err != nil {
		t.Fatal(err)
	}
	err = sys.RegisterVG("OrderVolume", 2, func(seed uint64, args []float64) (float64, error) {
		src := rng.New(seed)
		return float64(src.Poisson(1800+40*args[0]+2*args[1])) * (1 + 0.05*src.Norm()), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// regionsTableDef is the serverfleet example's dimension table in wire
// form (mirrors benchfix.RegionsTable).
var regionsTableDef = tableDef{
	Name:    "regions",
	Columns: []string{"region", "share", "local_capacity"},
	Rows: [][]any{
		{"us-east", 0.40, 21000.0},
		{"us-west", 0.25, 16500.0},
		{"europe", 0.20, 14000.0},
		{"asia", 0.15, 11500.0},
	},
}

func registerExample(t *testing.T, base, name, sql string) scenarioJSON {
	t.Helper()
	req := registerRequest{SQL: sql, ID: name}
	if name == "serverfleet" {
		req.Tables = []tableDef{regionsTableDef}
	}
	var scn scenarioJSON
	if code := call(t, "POST", base+"/scenarios", req, &scn); code != http.StatusCreated {
		t.Fatalf("register %s = %d", name, code)
	}
	return scn
}

// examplePoints derives two parameter points (first and last value of
// every parameter) from a registered scenario's declared space.
func examplePoints(scn scenarioJSON) []map[string]any {
	lo := map[string]any{}
	hi := map[string]any{}
	for _, p := range scn.Params {
		lo[p.Name] = p.Values[0]
		hi[p.Name] = p.Values[len(p.Values)-1]
	}
	return []map[string]any{lo, hi}
}

// TestFaultMatrixBitIdentical runs every bundled example scenario through
// a two-worker fan-out where one worker is hit by each fault in turn —
// dropped connections (a worker killed mid-render), truncated and
// corrupted responses, duplicated requests — and asserts the batch result
// is bit-identical to the single-node evaluation every time: per-shard
// retry and local fallback protect correctness, not just availability.
func TestFaultMatrixBitIdentical(t *testing.T) {
	faults := []protocoltest.Fault{
		protocoltest.Drop,
		protocoltest.Truncate,
		protocoltest.Corrupt,
		protocoltest.Duplicate,
	}
	for name, sql := range sqlparser.ExampleScenarios() {
		t.Run(name, func(t *testing.T) {
			_, local := newTestServer(t, func(c *Config) { c.System = newExampleSystem(t) })
			scnLocal := registerExample(t, local.URL, name, sql)
			points := examplePoints(scnLocal)
			want := evaluatePoints(t, local.URL, scnLocal.ID, evaluateRequest{Points: points, Worlds: 48})

			_, workerB := newTestServer(t, func(c *Config) {
				c.System = newExampleSystem(t)
				c.WorkerMode = true
			})
			_, workerA := newTestServer(t, func(c *Config) {
				c.System = newExampleSystem(t)
				c.WorkerMode = true
			})
			proxy := protocoltest.New(workerA.URL)
			t.Cleanup(proxy.Close)

			for _, fault := range faults {
				t.Run(fault.String(), func(t *testing.T) {
					coordSrv, coord := newTestServer(t, func(c *Config) {
						c.System = newExampleSystem(t)
						c.Workers = []string{proxy.URL(), workerB.URL}
					})
					proxy.Reset()
					proxy.SetFaultWindow(fault, 1)
					scn := registerExample(t, coord.URL, name, sql)
					got := evaluatePoints(t, coord.URL, scn.ID, evaluateRequest{Points: points, Worlds: 48})

					if len(got.Points) != len(want.Points) {
						t.Fatalf("%d points, want %d", len(got.Points), len(want.Points))
					}
					for i := range want.Points {
						if !reflect.DeepEqual(want.Points[i].Summaries, got.Points[i].Summaries) {
							t.Errorf("point %d diverged under %s:\nlocal:  %+v\nfanned: %+v",
								i, fault, want.Points[i].Summaries, got.Points[i].Summaries)
						}
					}
					if n := coordSrv.metrics.renderErrors.Load(); n != 0 {
						t.Errorf("%d render errors under %s", n, fault)
					}
				})
			}
		})
	}
}

// TestSketchOnlyEvaluate: a sketch_only batch over workers returns
// summaries whose exact statistics (count, moments) match the full-vector
// evaluation, while the shard responses are at least 10x smaller than the
// sample vectors they replace and every request to the warm worker is slim.
func TestSketchOnlyEvaluate(t *testing.T) {
	_, worker := newTestServer(t, func(c *Config) { c.WorkerMode = true })
	proxy := protocoltest.New(worker.URL)
	t.Cleanup(proxy.Close)
	_, coord := newTestServer(t, func(c *Config) { c.Workers = []string{proxy.URL()} })
	_, local := newTestServer(t, nil)

	const worlds = 20000
	one := []map[string]any{testPoints[0]}
	scnLocal := registerScenario(t, local.URL)
	want := evaluatePoints(t, local.URL, scnLocal.ID, evaluateRequest{Points: one, Worlds: worlds})

	scn := registerScenario(t, coord.URL)
	full := evaluatePoints(t, coord.URL, scn.ID, evaluateRequest{Points: one, Worlds: worlds})
	fullEx := proxy.ShardExchanges()
	proxy.Reset()
	sketch := evaluatePoints(t, coord.URL, scn.ID, evaluateRequest{Points: one, Worlds: worlds, SketchOnly: true})
	sketchEx := proxy.ShardExchanges()

	for col, ws := range want.Points[0].Summaries {
		fs, ok := full.Points[0].Summaries[col]
		if !ok {
			t.Fatalf("column %q missing from full fan-out", col)
		}
		ss, ok := sketch.Points[0].Summaries[col]
		if !ok {
			t.Fatalf("column %q missing from sketch-only result", col)
		}
		if fs.N != ws.N || ss.N != ws.N {
			t.Errorf("column %s: N full/sketch = %d/%d, want %d", col, fs.N, ss.N, ws.N)
		}
		// Moments are exact under sketch merging (Welford combination),
		// modulo float re-association across shards.
		if !closeRel(ss.Mean, ws.Mean, 1e-9) || !closeRel(ss.StdDev, ws.StdDev, 1e-9) {
			t.Errorf("column %s: sketch mean/stddev %g/%g != exact %g/%g",
				col, ss.Mean, ss.StdDev, ws.Mean, ws.StdDev)
		}
		if ss.Min != ws.Min || ss.Max != ws.Max {
			t.Errorf("column %s: sketch min/max %g/%g != exact %g/%g", col, ss.Min, ss.Max, ws.Min, ws.Max)
		}
	}

	// Response payloads: sketches are O(compression), vectors O(worlds).
	var fullBytes, sketchBytes int
	for _, e := range fullEx {
		fullBytes += e.ResponseBytes
	}
	for i, e := range sketchEx {
		if e.HasSQLPayload() {
			t.Errorf("sketch-only exchange %d to a warm worker carries a script payload (%dB)", i, e.RequestBytes)
		}
		sketchBytes += e.ResponseBytes
	}
	if sketchBytes == 0 || fullBytes == 0 {
		t.Fatalf("missing exchanges: full %dB sketch %dB", fullBytes, sketchBytes)
	}
	if sketchBytes*10 > fullBytes {
		t.Errorf("sketch-only responses (%dB) less than 10x smaller than full (%dB) at %d worlds",
			sketchBytes, fullBytes, worlds)
	}
}

func closeRel(a, b, tol float64) bool {
	if a == b {
		return true
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if m < 0 {
		m = -m
	}
	if bb := b; bb < 0 {
		bb = -bb
		if bb > m {
			m = bb
		}
	} else if bb > m {
		m = bb
	}
	return d <= tol*m
}
