package server

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"fuzzyprophet/internal/buildinfo"
)

// renderBuckets are the render-latency histogram bounds in seconds.
var renderBuckets = []float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// stageBuckets bound the per-stage histograms: stages run one to three
// orders of magnitude faster than whole renders, so the grid extends down
// to 100µs.
var stageBuckets = []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5}

// histogram is a fixed-bucket latency histogram, lock-free: observe does
// one atomic increment into the NON-cumulative bucket the value falls in
// (binary search, no bucket loop) plus a CAS-loop float add for the sum.
// Cumulation happens once, at scrape time, where it belongs. The count is
// derived from the buckets in the same pass, so a concurrent scrape always
// sees bucket-monotone output with count == the +Inf bucket.
type histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1; last slot is the +Inf overflow
	sumBits atomic.Uint64  // float64 bits of the value sum
}

func newHistogram(bounds []float64) *histogram {
	return &histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

func (h *histogram) observe(seconds float64) {
	// First bound >= seconds is the le bucket; misses land in overflow.
	h.counts[sort.SearchFloat64s(h.bounds, seconds)].Add(1)
	for {
		old := h.sumBits.Load()
		upd := math.Float64bits(math.Float64frombits(old) + seconds)
		if h.sumBits.CompareAndSwap(old, upd) {
			return
		}
	}
}

// write emits the histogram in Prometheus text format (cumulative buckets).
func (h *histogram) write(w io.Writer, name, labels string) {
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		if labels != "" {
			fmt.Fprintf(w, "%s_bucket{%s,le=\"%g\"} %d\n", name, labels, b, cum)
		} else {
			fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, b, cum)
		}
	}
	cum += h.counts[len(h.bounds)].Load()
	sum := math.Float64frombits(h.sumBits.Load())
	if labels != "" {
		fmt.Fprintf(w, "%s_bucket{%s,le=\"+Inf\"} %d\n", name, labels, cum)
		fmt.Fprintf(w, "%s_sum{%s} %g\n", name, labels, sum)
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, cum)
	} else {
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
		fmt.Fprintf(w, "%s_sum %g\n", name, sum)
		fmt.Fprintf(w, "%s_count %d\n", name, cum)
	}
}

// metrics aggregates service-level counters for the /metrics endpoint.
type metrics struct {
	start time.Time

	requests         atomic.Int64
	rendersTotal     atomic.Int64
	rendersCoalesced atomic.Int64
	renderErrors     atomic.Int64
	evaluatesTotal   atomic.Int64
	pointsEvaluated  atomic.Int64

	// Shard fan-out (coordinator side) and shard renders (worker side).
	shardRendersServed  atomic.Int64
	shardFanouts        atomic.Int64
	shardRetries        atomic.Int64
	shardWorkerFailures atomic.Int64
	shardHedges         atomic.Int64
	shardHedgeWins      atomic.Int64

	// Resilience layer: panic isolation, deadline budgets, admission
	// control and degraded responses.
	panics            atomic.Int64
	deadlinesExceeded atomic.Int64
	clientDisconnects atomic.Int64
	rendersShed       atomic.Int64
	degradedRenders   atomic.Int64

	// Wire protocol v4: slim (fingerprint-only) vs full-payload requests,
	// and cache-miss re-sends (coordinator side), plus the worker-side
	// miss count and sketch-only renders, and raw wire
	// bytes both ways.
	shardSlimRequests     atomic.Int64
	shardFullRequests     atomic.Int64
	shardCacheMissResends atomic.Int64
	shardCooldowns        atomic.Int64
	shardCacheMisses      atomic.Int64
	shardSketchOnlyServed atomic.Int64
	shardRequestBytes     atomic.Int64
	shardResponseBytes    atomic.Int64

	renderLatency *histogram
	// stageSeconds is one histogram per pipeline stage name, fed from the
	// spans this process recorded for every render, evaluation and served
	// shard (never from grafted worker subtrees: each process counts the
	// spans it ran). The stage set is fixed at construction,
	// bounding label cardinality no matter what spans a trace carries.
	stageSeconds map[string]*histogram
}

// stageNames is the known stage-span vocabulary exported as
// fpserver_stage_seconds{stage=...}. Operator-level spans (op:*) and
// per-point/shard grouping spans are deliberately excluded.
var stageNames = []string{
	"simulate", "worlds-materialize", "plan-execute",
	"shard-fanout", "sketch-merge", "spill-demote", "spill-promote",
}

func newMetrics() *metrics {
	m := &metrics{
		start:         time.Now(),
		renderLatency: newHistogram(renderBuckets),
		stageSeconds:  make(map[string]*histogram, len(stageNames)),
	}
	for _, name := range stageNames {
		m.stageSeconds[name] = newHistogram(stageBuckets)
	}
	return m
}

// observeStage feeds one span's duration into its stage histogram when
// the name is a known stage, truncated to whole microseconds as in the
// span tree. The map is never written after construction, so concurrent
// renders observe without locking.
func (m *metrics) observeStage(name string, d time.Duration) {
	if h, ok := m.stageSeconds[name]; ok {
		h.observe(float64(d.Microseconds()) / 1e6)
	}
}

// writeTo renders the Prometheus exposition for the server's state at now.
func (m *metrics) writeTo(w io.Writer, s *Server, now time.Time) {
	gauge := func(name, help string, v any) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, v)
	}
	counter := func(name, help string, v any) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %v\n", name, help, name, name, v)
	}

	fmt.Fprintf(w, "# HELP fpserver_build_info Build identity (value is always 1; identity lives in the labels).\n# TYPE fpserver_build_info gauge\n")
	fmt.Fprintf(w, "fpserver_build_info{version=%q,go_version=%q} 1\n",
		buildinfo.Version, buildinfo.GoVersion())
	gauge("fpserver_uptime_seconds", "Seconds since the server started.",
		int64(now.Sub(m.start).Seconds()))
	counter("fpserver_requests_total", "HTTP requests served.", m.requests.Load())

	// Scenario registry.
	gauge("fpserver_scenarios_registered", "Currently registered scenarios.", s.registry.Len())
	counter("fpserver_scenarios_registrations_total", "Scenario registrations ever made.", s.registry.Registered())
	gauge("fpserver_scenarios_retired_live", "Replaced scenario entries still pinned by sessions.", s.registry.RetiredLive())

	// Session manager.
	gauge("fpserver_sessions_open", "Currently open sessions.", s.sessions.Len())
	counter("fpserver_sessions_opened_total", "Sessions ever opened.", s.sessions.Opened())
	counter("fpserver_sessions_evicted_total", "Sessions evicted by the idle TTL.", s.sessions.Evicted())
	counter("fpserver_sessions_closed_total", "Sessions closed (explicitly or at shutdown).", s.sessions.Closed())

	// Renders and evaluation.
	counter("fpserver_renders_total", "Graph renders simulated.", m.rendersTotal.Load())
	counter("fpserver_renders_coalesced_total", "Render requests served by single-flight coalescing.", m.rendersCoalesced.Load())
	counter("fpserver_render_errors_total", "Renders that failed.", m.renderErrors.Load())
	counter("fpserver_evaluate_batches_total", "Batch evaluation requests.", m.evaluatesTotal.Load())
	counter("fpserver_evaluate_points_total", "Parameter points evaluated in batches.", m.pointsEvaluated.Load())

	// World sharding.
	counter("fpserver_shard_renders_total", "Shard-render requests served (worker role).", m.shardRendersServed.Load())
	counter("fpserver_shard_fanouts_total", "Shard evaluations fanned out to workers (coordinator role).", m.shardFanouts.Load())
	counter("fpserver_shard_retries_total", "Shard requests retried on another worker after a failure.", m.shardRetries.Load())
	counter("fpserver_shard_worker_failures_total", "Shards every worker failed (evaluated locally instead).", m.shardWorkerFailures.Load())
	counter("fpserver_shard_hedges_total", "Duplicate shard requests launched after the hedge delay.", m.shardHedges.Load())
	counter("fpserver_shard_hedge_wins_total", "Shards whose hedged duplicate finished first.", m.shardHedgeWins.Load())

	// Resilience layer.
	counter("fpserver_panics_total", "Panics recovered in handlers or evaluation goroutines.", m.panics.Load())
	counter("fpserver_deadline_exceeded_total", "Requests that exhausted their server-side deadline budget.", m.deadlinesExceeded.Load())
	counter("fpserver_client_disconnects_total", "Requests abandoned by the client before completion (499).", m.clientDisconnects.Load())
	counter("fpserver_renders_shed_total", "Renders shed by admission control (429).", m.rendersShed.Load())
	counter("fpserver_degraded_renders_total", "Responses served degraded (partial worlds) under the deadline budget.", m.degradedRenders.Load())
	inflight, queued := s.gate.stats()
	gauge("fpserver_renders_inflight", "Renders currently admitted and running.", inflight)
	gauge("fpserver_render_queue_depth", "Renders queued for an admission slot.", queued)
	if len(s.workerStates) > 0 {
		fmt.Fprintf(w, "# HELP fpserver_breaker_state Per-worker circuit breaker state (0 closed, 1 half-open, 2 open).\n# TYPE fpserver_breaker_state gauge\n")
		for _, ws := range s.workerStates {
			fmt.Fprintf(w, "fpserver_breaker_state{worker=%q} %d\n", ws.url, ws.state(now))
		}
	}

	// Wire protocol v4.
	counter("fpserver_shard_slim_requests_total", "Fingerprint-only shard requests sent (steady state, no script payload).", m.shardSlimRequests.Load())
	counter("fpserver_shard_full_requests_total", "Full-payload shard requests sent (first contact or cache-miss re-send).", m.shardFullRequests.Load())
	counter("fpserver_shard_cache_miss_resends_total", "Full re-sends after a worker answered 409 scenario_not_cached.", m.shardCacheMissResends.Load())
	counter("fpserver_shard_worker_cooldowns_total", "Worker circuit breakers opened (or re-opened) after a transport error or 5xx.", m.shardCooldowns.Load())
	counter("fpserver_shard_scenario_cache_misses_total", "Fingerprint-only requests answered 409 because the scenario was not cached (worker role).", m.shardCacheMisses.Load())
	counter("fpserver_shard_sketch_only_renders_total", "Shard renders answered with merged sketches instead of sample vectors (worker role).", m.shardSketchOnlyServed.Load())
	counter("fpserver_shard_request_bytes_total", "Bytes of shard request bodies sent to workers.", m.shardRequestBytes.Load())
	counter("fpserver_shard_response_bytes_total", "Bytes of shard response bodies received from workers.", m.shardResponseBytes.Load())
	fmt.Fprintf(w, "# HELP fpserver_render_seconds Render latency histogram.\n# TYPE fpserver_render_seconds histogram\n")
	m.renderLatency.write(w, "fpserver_render_seconds", "")

	// Per-stage timing from render span trees, one series per known stage.
	fmt.Fprintf(w, "# HELP fpserver_stage_seconds Render pipeline stage latency, from span traces.\n# TYPE fpserver_stage_seconds histogram\n")
	for _, name := range stageNames {
		m.stageSeconds[name].write(w, "fpserver_stage_seconds", fmt.Sprintf("stage=%q", name))
	}

	// Reuse cache, aggregated across registered scenarios and broken out
	// per scenario ID (low-cardinality: one series per registered ID).
	entries := s.registry.List()
	var hits, misses, evicted, inserted, bytes int64
	var demoted, promoted, spillErrors, spillBytes, quarantined int64
	var entriesTotal, spillEntries int
	outcomes := map[string]int{}
	for _, e := range entries {
		st := e.Cache.StoreStats()
		hits += st.Hits
		misses += st.Misses
		evicted += st.Evicted
		inserted += st.Inserted
		bytes += st.UsedBytes
		entriesTotal += st.Entries
		demoted += st.Demoted
		promoted += st.Promoted
		spillErrors += st.SpillErrors
		spillBytes += st.SpillBytes
		spillEntries += st.SpillEntries
		quarantined += st.Quarantined
		for k, v := range e.Cache.Counts() {
			outcomes[k] += v
		}
	}
	// Gauges, not counters: these sum over the currently registered
	// caches, so deleting or re-registering a scenario can shrink them — a
	// counter-typed series would trip Prometheus's reset detection.
	gauge("fpserver_reuse_store_hits", "Exact basis-store hits across registered caches.", hits)
	gauge("fpserver_reuse_store_misses", "Basis-store misses across registered caches.", misses)
	gauge("fpserver_reuse_store_evictions", "Basis entries evicted by the LRU budget.", evicted)
	gauge("fpserver_reuse_store_insertions", "Basis entries inserted.", inserted)
	gauge("fpserver_reuse_store_bytes", "Bytes held by basis stores.", bytes)
	gauge("fpserver_reuse_store_entries", "Entries held by basis stores.", entriesTotal)
	hitRate := 0.0
	if total := hits + misses; total > 0 {
		hitRate = float64(hits) / float64(total)
	}
	gauge("fpserver_reuse_hit_rate", "Exact-hit fraction of basis-store lookups.", fmt.Sprintf("%.6f", hitRate))

	// Out-of-core spill tier (all zero without -spill-dir).
	gauge("fpserver_spill_demotions", "Bases demoted to spill-tier column files on eviction.", demoted)
	gauge("fpserver_spill_promotions", "Bases read back from the spill tier into RAM, CRC-checked.", promoted)
	gauge("fpserver_spill_errors", "Demotions that failed to write (degraded to plain evictions).", spillErrors)
	gauge("fpserver_spill_bytes", "Bytes held by spill tiers on disk.", spillBytes)
	gauge("fpserver_spill_entries", "Bases resident in spill tiers.", spillEntries)
	gauge("fpserver_spill_quarantined", "Spill files quarantined after failing CRC or size checks.", quarantined)
	fmt.Fprintf(w, "# HELP fpserver_reuse_outcomes Point evaluations by reuse outcome, across registered caches.\n# TYPE fpserver_reuse_outcomes gauge\n")
	kinds := make([]string, 0, len(outcomes))
	for k := range outcomes {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(w, "fpserver_reuse_outcomes{kind=%q} %d\n", k, outcomes[k])
	}

	// Snapshot persistence.
	if s.snapshots != nil {
		counter("fpserver_snapshot_saves_total", "Reuse snapshots written.", s.snapshots.Saves())
		counter("fpserver_snapshot_loads_total", "Reuse snapshots restored at registration.", s.snapshots.Loads())
		counter("fpserver_snapshot_errors_total", "Snapshot save/load failures.", s.snapshots.Errors())
		if last := s.snapshots.LastSave(); !last.IsZero() {
			gauge("fpserver_snapshot_last_save_timestamp_seconds", "Unix time of the last successful snapshot.", last.Unix())
		}
	}
}
