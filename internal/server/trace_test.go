package server

import (
	"bytes"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"fuzzyprophet/internal/obs"
)

// openTestSession registers the test scenario and opens a session.
func openTestSession(t *testing.T, base string, worlds int) string {
	t.Helper()
	scn := registerScenario(t, base)
	sess := openSession(t, base, scn.ID, openSessionRequest{Worlds: worlds})
	return sess.ID
}

// TestTracedShardedRenderStitchesWorkerTrees: a ?trace=1 render on a
// coordinator with two shard workers returns ONE span tree containing the
// coordinator's own stages AND both workers' shard subtrees, grafted under
// the fan-out spans — the cross-process stitching acceptance test.
func TestTracedShardedRenderStitchesWorkerTrees(t *testing.T) {
	w1srv, w1 := newTestServer(t, func(c *Config) { c.WorkerMode = true })
	w2srv, w2 := newTestServer(t, func(c *Config) { c.WorkerMode = true })
	_, coord := newTestServer(t, func(c *Config) { c.Workers = []string{w1.URL, w2.URL} })

	const worlds = 80
	id := openTestSession(t, coord.URL, worlds)
	var rr renderResponse
	if code := call(t, "GET", coord.URL+"/sessions/"+id+"/render?trace=1", nil, &rr); code != http.StatusOK {
		t.Fatalf("render = %d", code)
	}
	if rr.Coalesced {
		t.Fatal("first render reported coalesced")
	}
	if rr.RenderID == "" {
		t.Error("no render_id in traced response")
	}
	if rr.Trace == nil {
		t.Fatal("no trace in ?trace=1 response")
	}

	// Coordinator-side stages must be present in the one returned tree.
	seen := map[string]int{}
	rr.Trace.Visit(func(_ int, n *obs.Node) { seen[n.Name]++ })
	for _, stage := range []string{"point", "shard-fanout", "shard", "sketch-merge"} {
		if seen[stage] == 0 {
			t.Errorf("stitched tree lacks coordinator span %q; got %v", stage, seen)
		}
	}

	// Both workers' subtrees must be grafted in. A session render evaluates
	// every axis point and fans each point's worlds out in two shards, so
	// the stitched tree carries one worker-shard root per (point, shard) —
	// each recorded in the WORKER process with its own simulate and
	// plan-execute stages.
	var workerRoots []*obs.Node
	rr.Trace.Visit(func(_ int, n *obs.Node) {
		if n.Name == "worker-shard" {
			workerRoots = append(workerRoots, n)
		}
	})
	if want := 2 * seen["point"]; seen["point"] == 0 || len(workerRoots) != want {
		t.Fatalf("stitched tree has %d worker-shard subtrees over %d points, want %d", len(workerRoots), seen["point"], want)
	}
	// Every point splits its worlds equally, so each point contributes one
	// worker subtree starting at 0 and one starting at worlds/2.
	los := map[any]int{}
	for _, wn := range workerRoots {
		los[wn.Attrs["lo"]]++
		sub := map[string]int{}
		wn.Visit(func(_ int, n *obs.Node) { sub[n.Name]++ })
		if sub["simulate"] == 0 || sub["plan-execute"] == 0 {
			t.Errorf("worker subtree (lo=%v) lacks worker-side stages; got %v", wn.Attrs["lo"], sub)
		}
	}
	if points := seen["point"]; len(los) != 2 || los[float64(0)] != points || los[float64(worlds/2)] != points {
		t.Errorf("worker subtree lo counts %v, want lo ∈ {0, %d} once per point (%d)", los, worlds/2, points)
	}
	// Both worker processes served shards of this render.
	for i, wsrv := range []*Server{w1srv, w2srv} {
		if wsrv.metrics.shardRendersServed.Load() == 0 {
			t.Errorf("worker %d served no shards", i+1)
		}
	}

	// Without ?trace=1 the response stays clean.
	var plain renderResponse
	if code := call(t, "GET", coord.URL+"/sessions/"+id+"/render", nil, &plain); code != http.StatusOK {
		t.Fatalf("untraced render = %d", code)
	}
	if plain.Trace != nil || plain.RenderID != "" {
		t.Error("untraced render response carries trace fields")
	}
}

// syncWriter serializes slog output from request goroutines.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// TestSlowRenderRingAndLog: with a threshold every render exceeds, the
// render is logged with its render ID and retained at /debug/traces.
func TestSlowRenderRingAndLog(t *testing.T) {
	logw := &syncWriter{}
	srv, ts := newTestServer(t, func(c *Config) {
		c.SlowRenderThreshold = time.Nanosecond
		c.Log = slog.New(slog.NewTextHandler(logw, nil))
	})

	id := openTestSession(t, ts.URL, 60)
	var rr renderResponse
	if code := call(t, "GET", ts.URL+"/sessions/"+id+"/render?trace=1", nil, &rr); code != http.StatusOK {
		t.Fatalf("render = %d", code)
	}

	var got struct {
		ThresholdMS float64       `json:"threshold_ms"`
		Traces      []traceRecord `json:"traces"`
	}
	if code := call(t, "GET", ts.URL+"/debug/traces", nil, &got); code != http.StatusOK {
		t.Fatalf("/debug/traces = %d", code)
	}
	if len(got.Traces) == 0 {
		t.Fatal("no slow-render traces retained")
	}
	rec := got.Traces[0]
	if rec.RenderID != rr.RenderID {
		t.Errorf("retained render_id %q != response render_id %q", rec.RenderID, rr.RenderID)
	}
	if rec.Tree == nil || rec.Kind != "render" || rec.Session != id {
		t.Errorf("bad trace record: %+v", rec)
	}

	logged := logw.String()
	if !strings.Contains(logged, "slow render") || !strings.Contains(logged, rr.RenderID) {
		t.Errorf("slow-render log line missing or lacks render ID:\n%s", logged)
	}

	// The ring is newest-first and bounded, and untraced renders fill it.
	for i := 0; i < 40; i++ {
		bumpVersion(t, srv, id)
		call(t, "GET", ts.URL+"/sessions/"+id+"/render", nil, nil)
	}
	if code := call(t, "GET", ts.URL+"/debug/traces", nil, &got); code != http.StatusOK {
		t.Fatalf("/debug/traces = %d", code)
	}
	if len(got.Traces) != 32 {
		t.Errorf("ring retained %d traces, want 32", len(got.Traces))
	}
	if newest := got.Traces[0]; newest.RenderID == rr.RenderID || newest.Tree == nil {
		t.Errorf("newest record is not an untraced render's: %+v", newest)
	}
}

// stageCounts reads every stage histogram's observation count.
func stageCounts(srv *Server) map[string]int64 {
	out := make(map[string]int64, len(stageNames))
	for _, name := range stageNames {
		h := srv.metrics.stageSeconds[name]
		for i := range h.counts {
			out[name] += h.counts[i].Load()
		}
	}
	return out
}

// stageDelta is after − before, per stage.
func stageDelta(before, after map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(after))
	for name, n := range after {
		out[name] = n - before[name]
	}
	return out
}

// treeStages counts the stage-named spans of a tree, times mult. With own
// set it skips grafted worker subtrees: the spans one process ran.
func treeStages(tree *obs.Node, own bool, mult int64) map[string]int64 {
	out := make(map[string]int64, len(stageNames))
	for _, name := range stageNames {
		out[name] = 0
	}
	var walk func(n *obs.Node)
	walk = func(n *obs.Node) {
		if own && n.Name == "worker-shard" {
			return
		}
		if _, ok := out[n.Name]; ok {
			out[n.Name] += mult
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(tree)
	return out
}

// bumpVersion makes the session's next render a real one at unchanged
// slider positions, as a PUT of the same values would.
func bumpVersion(t *testing.T, srv *Server, id string) {
	t.Helper()
	sess, ok := srv.sessions.Get(id)
	if !ok {
		t.Fatalf("no session %q", id)
	}
	sess.mu.Lock()
	sess.paramVersion++
	sess.mu.Unlock()
}

// TestStageCountParity: on a memo-warm single-node revisit, an untraced
// render and a ?trace=1 render of the same slider positions feed the
// stage histograms identically, and each adds exactly the stage spans of
// the returned tree.
func TestStageCountParity(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	id := openTestSession(t, ts.URL, 60)
	render := func(query string) *renderResponse {
		bumpVersion(t, srv, id)
		var rr renderResponse
		if code := call(t, "GET", ts.URL+"/sessions/"+id+"/render"+query, nil, &rr); code != http.StatusOK || rr.Coalesced {
			t.Fatalf("render%s = %d (coalesced %v)", query, code, rr.Coalesced)
		}
		return &rr
	}
	for i := 0; i < 4; i++ { // the fourth render on is a memo hit
		render("")
	}
	before := stageCounts(srv)
	render("")
	mid := stageCounts(srv)
	rr := render("?trace=1")
	after := stageCounts(srv)

	untraced, traced := stageDelta(before, mid), stageDelta(mid, after)
	want := treeStages(rr.Trace, true, 1)
	for _, name := range stageNames {
		if untraced[name] != want[name] || traced[name] != want[name] {
			t.Errorf("stage %s: untraced render added %d, traced %d, tree has %d", name, untraced[name], traced[name], want[name])
		}
	}
	if want["simulate"] == 0 {
		t.Fatalf("traced tree has no simulate span: %+v", rr.Trace)
	}
}

// TestFleetStagesCountedPerProcess: every process counts the stage spans
// it ran, once. A coordinator does not count the worker subtrees grafted
// into a ?trace=1 render; each worker counts its own shards, traced or
// not.
func TestFleetStagesCountedPerProcess(t *testing.T) {
	w1srv, w1 := newTestServer(t, func(c *Config) { c.WorkerMode = true })
	w2srv, w2 := newTestServer(t, func(c *Config) { c.WorkerMode = true })
	coordSrv, coord := newTestServer(t, func(c *Config) { c.Workers = []string{w1.URL, w2.URL} })
	// A 10 s latency estimate keeps hedges off, so each worker serves
	// exactly its own range of every point.
	warmWindow(coordSrv.shardLatency, 10*time.Second)

	const worlds = 80
	id := openTestSession(t, coord.URL, worlds)
	srvs := []*Server{coordSrv, w1srv, w2srv}
	before := make([]map[string]int64, len(srvs))
	for i, s := range srvs {
		before[i] = stageCounts(s)
	}
	// Remote ranges bypass reuse, so both renders run the same spans.
	var rr renderResponse
	if code := call(t, "GET", coord.URL+"/sessions/"+id+"/render?trace=1", nil, &rr); code != http.StatusOK || rr.Trace == nil {
		t.Fatalf("traced render = %d (trace %v)", code, rr.Trace != nil)
	}
	bumpVersion(t, coordSrv, id)
	if code := call(t, "GET", coord.URL+"/sessions/"+id+"/render", nil, nil); code != http.StatusOK {
		t.Fatalf("untraced render = %d", code)
	}

	// Each worker's subtrees are the ones over its range: worker i serves
	// range i, which starts at i×worlds/2.
	workerTrees := make([]*obs.Node, 2)
	for i := range workerTrees {
		workerTrees[i] = &obs.Node{Name: "worker"}
	}
	rr.Trace.Visit(func(_ int, n *obs.Node) {
		if n.Name == "worker-shard" {
			i := 0
			if n.Attrs["lo"] == float64(worlds/2) {
				i = 1
			}
			workerTrees[i].Children = append(workerTrees[i].Children, n)
		}
	})
	wants := []map[string]int64{
		treeStages(rr.Trace, true, 2),
		treeStages(workerTrees[0], false, 2),
		treeStages(workerTrees[1], false, 2),
	}
	for i, s := range srvs {
		got := stageDelta(before[i], stageCounts(s))
		for _, name := range stageNames {
			if got[name] != wants[i][name] {
				t.Errorf("server %d (0 = coordinator) stage %s: counted %d, its spans over both renders %d", i, name, got[name], wants[i][name])
			}
		}
	}
	if wants[1]["simulate"] == 0 || wants[2]["simulate"] == 0 {
		t.Fatalf("a worker subtree has no simulate span: %v", wants)
	}
}

// TestWorkerSlowRingKeepsShardTraces: the coordinator fetches no worker
// trees for an untraced render, so each worker keeps its own slow shards,
// under the coordinator's render ID, in its /debug/traces.
func TestWorkerSlowRingKeepsShardTraces(t *testing.T) {
	slow := func(c *Config) { c.SlowRenderThreshold = time.Nanosecond }
	_, w1 := newTestServer(t, func(c *Config) { slow(c); c.WorkerMode = true })
	_, w2 := newTestServer(t, func(c *Config) { slow(c); c.WorkerMode = true })
	_, coord := newTestServer(t, func(c *Config) { slow(c); c.Workers = []string{w1.URL, w2.URL} })

	id := openTestSession(t, coord.URL, 80)
	if code := call(t, "GET", coord.URL+"/sessions/"+id+"/render", nil, nil); code != http.StatusOK {
		t.Fatalf("render = %d", code)
	}
	type ring struct {
		Traces []traceRecord `json:"traces"`
	}
	var cr ring
	if code := call(t, "GET", coord.URL+"/debug/traces", nil, &cr); code != http.StatusOK || len(cr.Traces) != 1 {
		t.Fatalf("coordinator /debug/traces = %d with %d records, want 1", code, len(cr.Traces))
	}
	renderID := cr.Traces[0].RenderID
	if renderID == "" || cr.Traces[0].Kind != "render" {
		t.Fatalf("coordinator record = %+v", cr.Traces[0])
	}
	for i, w := range []string{w1.URL, w2.URL} {
		var wr ring
		if code := call(t, "GET", w+"/debug/traces", nil, &wr); code != http.StatusOK || len(wr.Traces) == 0 {
			t.Fatalf("worker %d /debug/traces = %d with %d records", i+1, code, len(wr.Traces))
		}
		for _, rec := range wr.Traces {
			if rec.Kind != "shard" || rec.RenderID != renderID || rec.Tree == nil || rec.Tree.Name != "worker-shard" {
				t.Fatalf("worker %d record: kind %q render_id %q (want shard, %q), tree %v", i+1, rec.Kind, rec.RenderID, renderID, rec.Tree != nil)
			}
			stages := treeStages(rec.Tree, false, 1)
			if stages["simulate"] == 0 || stages["plan-execute"] == 0 {
				t.Errorf("worker %d record lacks worker-side stages: %v", i+1, stages)
			}
		}
	}
}

// TestUntracedRenderAllocs: an untraced memo-hit render records its spans
// but builds no span tree. Building, walking and dropping a tree on every
// render, with one heap object per span and per attribute slice, cost 676
// allocations per render here (686 under -race); the bound is 80 % of
// that.
func TestUntracedRenderAllocs(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	id := openTestSession(t, ts.URL, 60)
	render := func() {
		bumpVersion(t, srv, id)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", "/sessions/"+id+"/render", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("render = %d: %s", rec.Code, rec.Body)
		}
	}
	for i := 0; i < 4; i++ { // the fourth render on is a memo hit
		render()
	}
	const parentAllocs = 676
	if allocs := testing.AllocsPerRun(50, render); allocs > 0.8*parentAllocs {
		t.Fatalf("an untraced memo-hit render allocates %v times, want <= %v", allocs, 0.8*parentAllocs)
	}
}
