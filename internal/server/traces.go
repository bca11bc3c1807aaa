// Slow-render trace retention: every non-coalesced render, batch
// evaluation and served shard records its spans (feeding the per-stage
// latency histograms straight from the raw spans); a span tree is built
// only for a ?trace=1 request or a request slower than
// Config.SlowRenderThreshold. Slow ones keep their tree in a fixed-size
// ring served by GET /debug/traces, newest first — a flight recorder for
// "why was that slider move slow" without re-running anything. Each
// process keeps its own ring: a worker retains its slow shards under the
// coordinator's render ID.
package server

import (
	"net/http"
	"sync"
	"time"

	"fuzzyprophet/internal/obs"
)

// traceRecord is one retained slow render.
type traceRecord struct {
	// RenderID correlates this record with the slow-render log line and
	// the X-FP-Render-ID header seen by shard workers.
	RenderID string `json:"render_id"`
	// Kind is "render", "render-stream", "evaluate" or, on a shard worker,
	// "shard".
	Kind     string    `json:"kind"`
	Scenario string    `json:"scenario,omitempty"`
	Session  string    `json:"session,omitempty"`
	At       time.Time `json:"at"`
	// DurationMS is the end-to-end duration in milliseconds.
	DurationMS float64   `json:"duration_ms"`
	Tree       *obs.Node `json:"tree"`
}

// traceRing retains the last 32 slow-render traces.
type traceRing struct {
	mu   sync.Mutex
	buf  [32]traceRecord
	next int // index of the slot the next add overwrites
	n    int // live records (≤ len(buf))
}

func (r *traceRing) add(rec traceRecord) {
	r.mu.Lock()
	r.buf[r.next] = rec
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// snapshot returns the retained records, newest first.
func (r *traceRing) snapshot() []traceRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]traceRecord, 0, r.n)
	for i := 1; i <= r.n; i++ {
		out = append(out, r.buf[(r.next-i+len(r.buf))%len(r.buf)])
	}
	return out
}

// handleTraces serves the retained slow-render traces.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	s.json(w, http.StatusOK, map[string]any{
		"threshold_ms": float64(s.cfg.SlowRenderThreshold) / float64(time.Millisecond),
		"traces":       s.traces.snapshot(),
	})
}

// observeTrace is the post-render common path: feed the per-stage latency
// histograms from the spans this process recorded, and retain + log the
// trace when the render was slow. It builds the span tree only for an
// exported trace (?trace=1) or a slow render, and returns it only for an
// exported one (nil otherwise).
func (s *Server) observeTrace(kind, scenario, session string, tr *obs.Trace, dur time.Duration) *obs.Node {
	tr.End()
	tr.Walk(s.metrics.observeStage)
	exported := tr.Root().Exported()
	slow := s.cfg.SlowRenderThreshold > 0 && dur >= s.cfg.SlowRenderThreshold
	if !exported && !slow {
		return nil
	}
	tree := tr.Tree()
	if slow {
		s.traces.add(traceRecord{
			RenderID:   tr.ID(),
			Kind:       kind,
			Scenario:   scenario,
			Session:    session,
			At:         time.Now(),
			DurationMS: float64(dur) / float64(time.Millisecond),
			Tree:       tree,
		})
		s.cfg.Log.Warn("slow render",
			"render_id", tr.ID(),
			"kind", kind,
			"scenario", scenario,
			"session", session,
			"duration_ms", float64(dur)/float64(time.Millisecond),
			"threshold_ms", float64(s.cfg.SlowRenderThreshold)/float64(time.Millisecond))
	}
	if !exported {
		return nil
	}
	return tree
}
