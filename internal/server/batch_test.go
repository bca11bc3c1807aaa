package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"

	fp "fuzzyprophet"
	"fuzzyprophet/internal/obs"
	"fuzzyprophet/internal/server/protocoltest"
)

// inprocFleet is a ShardEvaluator over in-process shard workers, one per
// shard index, counting the calls each worker receives. The worker at index
// failing (when >= 0) fails every call, so its range falls back locally.
type inprocFleet struct {
	workers []*fp.ShardWorker
	failing int

	mu    sync.Mutex
	calls []int
}

func newInprocFleet(t *testing.T, scn *fp.Scenario, workers, failing int) *inprocFleet {
	t.Helper()
	f := &inprocFleet{failing: failing, calls: make([]int, workers)}
	for range workers {
		w, err := scn.NewShardWorker()
		if err != nil {
			t.Fatal(err)
		}
		f.workers = append(f.workers, w)
	}
	return f
}

func (f *inprocFleet) EvaluateShard(ctx context.Context, req fp.ShardRequest) ([]*fp.ShardResult, error) {
	i := req.Shard.Index
	f.mu.Lock()
	f.calls[i]++
	f.mu.Unlock()
	if i == f.failing {
		return nil, errors.New("worker down")
	}
	return f.workers[i].EvaluateShard(ctx, req.Points, req.Worlds, req.Seed, req.Shard, req.SketchOnly)
}

// gridPoints returns the first n points of testScenario's space with the
// week innermost, the order a sweep visits them.
func gridPoints(n int) []map[string]any {
	var pts []map[string]any
	for _, feature := range []int{4, 8} {
		for purchase := 0; purchase <= 16; purchase += 8 {
			for week := 0; week <= 12; week++ {
				pts = append(pts, map[string]any{"current": week, "purchase1": purchase, "feature": feature})
			}
		}
	}
	return pts[:n]
}

// diffSummaries returns the first difference between two points' summaries,
// comparing every float by its bits; "" when they are identical.
func diffSummaries(want, got map[string]fp.ColumnSummary) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d columns, want %d", len(got), len(want))
	}
	for col, w := range want {
		g, ok := got[col]
		if !ok {
			return fmt.Sprintf("column %q missing", col)
		}
		if g.N != w.N || g.Note != w.Note {
			return fmt.Sprintf("column %q: N %d note %q, want %d %q", col, g.N, g.Note, w.N, w.Note)
		}
		for _, f := range []struct {
			name string
			w, g float64
		}{
			{"mean", w.Mean, g.Mean}, {"stddev", w.StdDev, g.StdDev}, {"min", w.Min, g.Min},
			{"max", w.Max, g.Max}, {"median", w.Median, g.Median}, {"p95", w.P95, g.P95}, {"ci95", w.CI95, g.CI95},
		} {
			if math.Float64bits(f.w) != math.Float64bits(f.g) {
				return fmt.Sprintf("column %q %s = %v, want %v", col, f.name, f.g, f.w)
			}
		}
	}
	return ""
}

// TestBatchFanOutBitIdentical: EvaluateBatch over 1, 4 and 53 points, full
// and sketch-only, through 1, 2 and 3 shard workers — healthy, and with one
// worker failing so its range falls back locally — answers every point
// bit-equal to the single-node evaluation (sketch-only: to the same split
// over healthy workers) and to the same batch sent one point per request,
// while each worker is asked exactly once per batch.
func TestBatchFanOutBitIdentical(t *testing.T) {
	sys, err := fp.New(fp.WithDemoModels())
	if err != nil {
		t.Fatal(err)
	}
	scn, err := sys.Compile(testScenario)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, n := range []int{1, 4, 53} {
		points := gridPoints(n)
		for _, sketchOnly := range []bool{false, true} {
			for workers := 1; workers <= 3; workers++ {
				opts := []fp.EvalOption{fp.WithWorlds(64), fp.WithoutReuse()}
				if sketchOnly {
					opts = append(opts, fp.WithSketchOnly())
				}
				ref := opts
				if sketchOnly {
					// A sketch-only point is the range-ordered merge of its
					// ranges' sketches, so its reference is the same split
					// over healthy in-process workers.
					ref = append(opts, fp.WithShardEvaluator(newInprocFleet(t, scn, workers, -1), workers))
				}
				want, err := scn.EvaluateBatch(ctx, points, ref...)
				if err != nil {
					t.Fatal(err)
				}
				for _, failing := range []int{-1, workers - 1} {
					name := fmt.Sprintf("points=%d sketch_only=%v workers=%d failing=%d", n, sketchOnly, workers, failing)
					batch := newInprocFleet(t, scn, workers, failing)
					got, err := scn.EvaluateBatch(ctx, points, append(opts, fp.WithShardEvaluator(batch, workers))...)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					perPoint := newInprocFleet(t, scn, workers, failing)
					for i := range want.Points {
						if d := diffSummaries(want.Points[i].Summaries, got.Points[i].Summaries); d != "" {
							t.Fatalf("%s: point %d differs from single-node: %s", name, i, d)
						}
						one, err := scn.EvaluateBatch(ctx, points[i:i+1], append(opts, fp.WithShardEvaluator(perPoint, workers))...)
						if err != nil {
							t.Fatal(err)
						}
						if d := diffSummaries(one.Points[0].Summaries, got.Points[i].Summaries); d != "" {
							t.Fatalf("%s: point %d differs from its one-point request: %s", name, i, d)
						}
					}
					for w := range workers {
						if batch.calls[w] != 1 || perPoint.calls[w] != n {
							t.Errorf("%s: worker %d asked %d times per batch and %d times point by point, want 1 and %d",
								name, w, batch.calls[w], perPoint.calls[w], n)
						}
					}
				}
			}
		}
	}
}

// TestBatchOneExchangePerWorker: a 4-point /evaluate on a two-worker fleet
// crosses the wire once per worker — 2 exchanges, where one request per
// point made 8 — each carrying the four points in order, traces one
// fan-out for the batch, and answers bit-equal to single-node. After one
// worker forgets the scenario, a 53-point batch recovers with one 409
// re-send on that worker (a slim 409, then a full 200) and stays
// bit-equal.
func TestBatchOneExchangePerWorker(t *testing.T) {
	const worlds = 64
	var proxies []*protocoltest.Proxy
	var urls []string
	var workerSrvs []*Server
	for range 2 {
		srv, worker := newTestServer(t, func(c *Config) { c.WorkerMode = true })
		proxy := protocoltest.New(worker.URL)
		t.Cleanup(proxy.Close)
		workerSrvs = append(workerSrvs, srv)
		proxies = append(proxies, proxy)
		urls = append(urls, proxy.URL())
	}
	_, coord := newTestServer(t, func(c *Config) { c.Workers = urls })
	scn := registerScenario(t, coord.URL)

	sys, err := fp.New(fp.WithDemoModels())
	if err != nil {
		t.Fatal(err)
	}
	local, err := sys.Compile(testScenario)
	if err != nil {
		t.Fatal(err)
	}
	check := func(points []map[string]any, got fp.BatchResult) {
		t.Helper()
		want, err := local.EvaluateBatch(context.Background(), points, fp.WithWorlds(worlds), fp.WithoutReuse())
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Points) != len(points) {
			t.Fatalf("%d points answered, want %d", len(got.Points), len(points))
		}
		for i := range want.Points {
			if d := diffSummaries(want.Points[i].Summaries, got.Points[i].Summaries); d != "" {
				t.Fatalf("%d-point batch, point %d differs from single-node: %s", len(points), i, d)
			}
		}
	}

	points := gridPoints(4)
	var traced struct {
		fp.BatchResult
		Trace *obs.Node `json:"trace"`
	}
	if code := call(t, "POST", coord.URL+"/scenarios/"+scn.ID+"/evaluate?trace=1",
		evaluateRequest{Points: points, Worlds: worlds}, &traced); code != http.StatusOK {
		t.Fatalf("evaluate = %d", code)
	}
	check(points, traced.BatchResult)
	// One fan-out for the batch beside its four point spans; each worker's
	// grafted tree serves the four points.
	spans := map[string][]*obs.Node{}
	traced.Trace.Visit(func(_ int, n *obs.Node) { spans[n.Name] = append(spans[n.Name], n) })
	if f := spans["shard-fanout"]; len(f) != 1 || f[0].Attrs["points"] != float64(len(points)) {
		t.Errorf("shard-fanout spans %+v, want one with points = %d", f, len(points))
	}
	if n := len(spans["point"]); n != len(points) {
		t.Errorf("%d point spans, want %d", n, len(points))
	}
	if ws := spans["worker-shard"]; len(ws) != 2 || ws[0].Attrs["points"] != float64(len(points)) || ws[1].Attrs["points"] != float64(len(points)) {
		t.Errorf("worker-shard spans %+v, want two with points = %d", ws, len(points))
	}
	for i, proxy := range proxies {
		ex := proxy.ShardExchanges()
		if len(ex) != 1 || ex[0].Status != http.StatusOK {
			t.Fatalf("worker %d: %d exchanges %+v for a 4-point batch, want one 200", i, len(ex), ex)
		}
		var req shardRequest
		if err := json.Unmarshal(ex[0].RequestBody, &req); err != nil {
			t.Fatal(err)
		}
		if len(req.Points) != len(points) {
			t.Fatalf("worker %d: request carries %d points, want %d", i, len(req.Points), len(points))
		}
		for k, pt := range req.Points {
			if pt["current"] != float64(points[k]["current"].(int)) {
				t.Errorf("worker %d: point %d is week %v, want %v", i, k, pt["current"], points[k]["current"])
			}
		}
		proxy.Reset()
	}

	workerSrvs[0].shardCache.flush()
	points = gridPoints(53)
	check(points, evaluatePoints(t, coord.URL, scn.ID, evaluateRequest{Points: points, Worlds: worlds}))
	ex := proxies[0].ShardExchanges()
	if len(ex) != 2 || ex[0].HasSQLPayload() || ex[0].Status != http.StatusConflict ||
		!ex[1].HasSQLPayload() || ex[1].Status != http.StatusOK {
		t.Errorf("re-sent worker's exchanges = %+v, want a slim 409 then a full 200", ex)
	}
	if ex := proxies[1].ShardExchanges(); len(ex) != 1 || ex[0].HasSQLPayload() || ex[0].Status != http.StatusOK {
		t.Errorf("warm worker's exchanges = %+v, want one slim 200", ex)
	}
}

// TestSessionRenderOneExchangePerWorker is TestBatchOneExchangePerWorker
// for sessions: one GET /render of a 53-week sweep on a two-worker fleet
// crosses the wire once per worker, each request carrying all 53 points in
// axis order, and every series value is bit-equal to a single-node render.
func TestSessionRenderOneExchangePerWorker(t *testing.T) {
	const worlds = 64
	yearScenario := strings.Replace(testScenario, "RANGE 0 TO 12", "RANGE 0 TO 52", 1)
	render := func(base string) fp.Graph {
		t.Helper()
		var scn scenarioJSON
		if code := call(t, "POST", base+"/scenarios", registerRequest{SQL: yearScenario}, &scn); code != http.StatusCreated {
			t.Fatalf("register = %d", code)
		}
		sess := openSession(t, base, scn.ID, openSessionRequest{Worlds: worlds})
		var rr renderResponse
		if code := call(t, "GET", base+"/sessions/"+sess.ID+"/render", nil, &rr); code != http.StatusOK {
			t.Fatalf("render = %d", code)
		}
		return *rr.Graph
	}
	var proxies []*protocoltest.Proxy
	var urls []string
	for range 2 {
		_, worker := newTestServer(t, func(c *Config) { c.WorkerMode = true })
		proxy := protocoltest.New(worker.URL)
		t.Cleanup(proxy.Close)
		proxies = append(proxies, proxy)
		urls = append(urls, proxy.URL())
	}
	_, coord := newTestServer(t, func(c *Config) { c.Workers = urls })
	_, local := newTestServer(t, nil)

	got := render(coord.URL)
	want := render(local.URL)
	if len(got.X) != 53 || got.Stats.Degraded {
		t.Fatalf("fleet frame has %d points (degraded %v), want 53", len(got.X), got.Stats.Degraded)
	}
	for i, w := range want.Series {
		g := got.Series[i]
		for j := range w.Y {
			if math.Float64bits(g.Y[j]) != math.Float64bits(w.Y[j]) || math.Float64bits(g.CI95[j]) != math.Float64bits(w.CI95[j]) {
				t.Fatalf("series %s week %d: fleet %v ± %v, single-node %v ± %v", w.Name, j, g.Y[j], g.CI95[j], w.Y[j], w.CI95[j])
			}
		}
	}
	for i, proxy := range proxies {
		ex := proxy.ShardExchanges()
		if len(ex) != 1 || ex[0].Status != http.StatusOK {
			t.Fatalf("worker %d: %d exchanges for one render, want one 200", i, len(ex))
		}
		var req shardRequest
		if err := json.Unmarshal(ex[0].RequestBody, &req); err != nil {
			t.Fatal(err)
		}
		if len(req.Points) != 53 {
			t.Fatalf("worker %d: request carries %d points, want 53", i, len(req.Points))
		}
		for k, pt := range req.Points {
			if pt["current"] != float64(k) {
				t.Fatalf("worker %d: point %d is week %v, want %d", i, k, pt["current"], k)
			}
		}
	}
}
