package server

import (
	"bytes"
	"log/slog"
	"net/http"
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
	_, ts := newTestServer(t, func(c *Config) {
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

	// The ring is newest-first and bounded.
	for i := 0; i < 40; i++ {
		call(t, "GET", ts.URL+"/sessions/"+id+"/render", nil, nil)
	}
	if code := call(t, "GET", ts.URL+"/debug/traces", nil, &got); code != http.StatusOK {
		t.Fatalf("/debug/traces = %d", code)
	}
	if len(got.Traces) > 32 {
		t.Errorf("ring retained %d traces, want <= 32", len(got.Traces))
	}
}
