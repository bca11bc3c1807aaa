package main

import (
	"math"
	"sort"
)

// metricDef names one reported number. Bound is the share of the baseline's
// median by which an end-to-end metric may get worse before -check calls it
// a regression; per-layer metrics have no bound.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd are the metrics every workload reports from the untraced run;
// BENCHMARK.json lists exactly these (bench_test.go holds the two in step).
var endToEnd = []metricDef{
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p90_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"server_cpu_s_per_op", "s", "lower", 0.25},
	{"server_rss_peak_mb", "MB", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// endToEndExtra are reported beside them but cannot be in BENCHMARK.json:
// latency_p99_ms is null below 1 000 ops and failed_share is 0 on a healthy
// run (its bound is absolute: any rise above the baseline is a regression).
var endToEndExtra = []metricDef{
	{"latency_p99_ms", "ms", "lower", 0.25},
	{"failed_share", "ratio", "lower", 0},
}

// tracedLayer are the per-layer metrics a traced run measures, in print order.
var tracedLayer = []metricDef{
	{"server.http_overhead_ms_per_op", "ms", "lower", 0},
	{"server.response_bytes_per_op", "B", "lower", 0},
	{"online.render_self_ms_per_op", "ms", "lower", 0},
	{"mc.simulate_ms_per_op", "ms", "lower", 0},
	{"mc.materialize_ms_per_op", "ms", "lower", 0},
	{"mc.point_self_ms_per_op", "ms", "lower", 0},
	{"mc.reuse.computed_per_op", "count", "lower", 0},
	{"mc.reuse.identity_per_op", "count", "higher", 0},
	{"mc.reuse.affine_per_op", "count", "higher", 0},
	{"mc.reuse.cached_per_op", "count", "higher", 0},
	{"mc.reuse.useful_ratio", "ratio", "higher", 0},
	{"sqlengine.plan_execute_ms_per_op", "ms", "lower", 0},
	{"sqlengine.op_bind_ms_per_op", "ms", "lower", 0},
	{"sqlengine.op_project_ms_per_op", "ms", "lower", 0},
	{"sqlengine.rows_out_per_op", "count", "lower", 0},
	{"storage.hits_per_op", "count", "higher", 0},
	{"storage.misses_per_op", "count", "lower", 0},
	{"storage.evictions_per_op", "count", "lower", 0},
	{"storage.resident_bytes", "B", "lower", 0},
	{"storage.spill_promotions_per_op", "count", "lower", 0},
	{"storage.spill_demotions_per_op", "count", "lower", 0},
	{"storage.spill_promote_ms_per_op", "ms", "lower", 0},
	{"storage.spill_demote_ms_per_op", "ms", "lower", 0},
	{"colstore.spill_bytes", "B", "lower", 0},
	{"server.shard.fanout_ms_per_op", "ms", "lower", 0},
	{"server.shard.wire_ms_per_op", "ms", "lower", 0},
	{"server.shard.worker_ms_per_op", "ms", "lower", 0},
	{"aggregate.sketch_merge_ms_per_op", "ms", "lower", 0},
	{"server.shard.request_bytes_per_op", "B", "lower", 0},
	{"server.shard.response_bytes_per_op", "B", "lower", 0},
	{"server.shard.hedges_per_op", "count", "lower", 0},
	{"server.shard.retries_per_op", "count", "lower", 0},
	{"server.shard.full_resends", "count", "lower", 0},
	{"server.shed_total", "count", "lower", 0},
	{"server.deadline_exceeded_total", "count", "lower", 0},
	{"obs.trace_overhead_pct", "%", "lower", 0},
	{"bench.traced_latency_mean_ms", "ms", "lower", 0},
	{"bench.unattributed_ms_per_op", "ms", "lower", 0},
	{"bench.machine_speed", "ratio", "higher", 0},
}

// probeLayer are the per-layer metrics bench/layerprobe measures by direct
// calls; they do not depend on the workload.
var probeLayer = []metricDef{
	{"scenario.compile_us", "us", "lower", 0},
	{"rng.derive_ns", "ns", "lower", 0},
	{"vg.invoke_ns.DemandModel", "ns", "lower", 0},
	{"vg.invoke_ns.CapacityModel", "ns", "lower", 0},
	{"vg.allocs_per_invoke.CapacityModel", "count", "lower", 0},
	{"core.find_mapping_us", "us", "lower", 0},
	{"core.apply_us", "us", "lower", 0},
	{"storage.get_ns", "ns", "lower", 0},
	{"storage.put_us", "us", "lower", 0},
	{"sqlengine.plan_exec_us.capacityplanning", "us", "lower", 0},
	{"sqlengine.plan_exec_us.serverfleet", "us", "lower", 0},
	{"aggregate.column_stats_us_per_kvalue", "us", "lower", 0},
	{"viz.graph_json_us", "us", "lower", 0},
	{"optimize.sweep_points_per_s", "1/s", "higher", 0},
}

// perLayer is every per-layer metric: what BENCHMARK.json lists and a run
// with --trace 1 prints.
var perLayer = append(append([]metricDef(nil), tracedLayer...), probeLayer...)

// missing marks a metric that could not be measured: a /metrics series or a
// probe that no longer exists, or a percentile without enough samples. It
// is written as null.
var missing = math.NaN()

// percentile is the nearest-rank p-th percentile of sorted (ascending).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return missing
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// enoughBeyond reports whether at least ten of n samples lie beyond the
// p-th percentile — the rule for which percentile may be reported.
func enoughBeyond(n int, p float64) bool {
	return float64(n)*(1-p) >= 10-1e-9
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return missing
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return missing
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartileSpread is the distance between the first and third quartile of xs
// as a share of their median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives. Fewer than two values have no spread.
func quartileSpread(xs []float64) float64 {
	m := len(xs)
	med := median(xs)
	if m < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := i * (m + 1) / 4
		j = min(max(j, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return math.Abs((q(3) - q(1)) / med)
}
