package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	fp "fuzzyprophet"
)

func TestPercentileAndTenBeyondRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, tc := range []struct{ p, want float64 }{{0.50, 50}, {0.90, 90}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing should be missing")
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want bool
	}{{100, 0.90, true}, {99, 0.90, false}, {1000, 0.99, true}, {999, 0.99, false}, {20, 0.50, true}} {
		if got := enoughBeyond(tc.n, tc.p); got != tc.want {
			t.Errorf("enoughBeyond(%d, %v) = %v, want %v", tc.n, tc.p, got, tc.want)
		}
	}
}

// The quartiles must be the ones Python's statistics.quantiles(xs, n=4)
// gives, because that is what the spread rule is stated in.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	ten := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := quartileSpread(ten), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if got, want := quartileSpread([]float64{4, 1, 2}), 1.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of three runs = %v, want %v", got, want)
	}
	if quartileSpread([]float64{7}) != 0 {
		t.Error("one run has no spread")
	}
}

func span(name string, start, dur int64, children ...*node) *node {
	return &node{Name: name, StartUS: start, DurUS: dur, Children: children}
}

func TestAttributeSelfTime(t *testing.T) {
	// Sequential children with a gap, one of them sticking out of its parent.
	tree := span("op", 0, 100,
		span("http GET /x", 10, 80,
			span("render", 20, 60,
				span("point", 20, 20, span("simulate", 22, 10)),
				span("point", 50, 40), // ends 10 after render does: clipped
			)))
	rows := map[string]float64{}
	attribute(tree, rows)
	want := map[string]float64{
		"server.http_overhead_ms_per_op": 20 + 20, // op self + http self
		"online.render_self_ms_per_op":   10,      // 40..50
		"mc.point_self_ms_per_op":        10 + 30,
		"mc.simulate_ms_per_op":          10,
	}
	checkRows(t, rows, want, 100)
}

func TestAttributeOverlappingChildren(t *testing.T) {
	// Two shards in parallel, each carrying a worker subtree, and two notes
	// recorded after the fact that overlap each other.
	tree := span("op", 0, 1000,
		span("evaluate", 0, 1000,
			span("point", 0, 1000,
				span("shard-fanout", 0, 900,
					span("shard", 0, 900, span("worker-shard", 100, 700,
						span("shard", 100, 650, span("simulate", 100, 600)),
						span("sketch-merge", 750, 50))),
					span("shard", 100, 500, span("worker-shard", 150, 400, span("simulate", 150, 400))),
				),
				span("plan-execute", 900, 100,
					span("op:project", 960, 40),
					span("op:bind", 990, 10)),
			)))
	rows := map[string]float64{}
	attribute(tree, rows)
	want := map[string]float64{
		// 0..100 first shard's wire; 100..150 second's; 600..900: back in the
		// first: worker tail 700..750 self, merge 750..800, wire 800..900.
		"server.shard.wire_ms_per_op":      100 + 50 + 50 + 100,
		"mc.simulate_ms_per_op":            400 + 100, // second's 150..550, first's 600..700
		"server.shard.worker_ms_per_op":    50,        // the worker's own shard span, 700..750
		"aggregate.sketch_merge_ms_per_op": 50,
		"sqlengine.plan_execute_ms_per_op": 60,
		"sqlengine.op_project_ms_per_op":   30,
		"sqlengine.op_bind_ms_per_op":      10,
	}
	checkRows(t, rows, want, 1000)
}

func TestAttributeUnknownSpanIsUnattributed(t *testing.T) {
	rows := map[string]float64{}
	attribute(span("op", 0, 10, span("brand-new-stage", 2, 5, span("simulate", 3, 2))), rows)
	checkRows(t, rows, map[string]float64{
		"server.http_overhead_ms_per_op": 5, unattributedRow: 3, "mc.simulate_ms_per_op": 2,
	}, 10)
}

func checkRows(t *testing.T, got, want map[string]float64, total float64) {
	t.Helper()
	var sum float64
	for row, v := range got {
		sum += v
		if v != 0 && want[row] != v {
			t.Errorf("row %s = %v, want %v", row, v, want[row])
		}
	}
	for row, v := range want {
		if got[row] != v {
			t.Errorf("row %s = %v, want %v", row, got[row], v)
		}
	}
	if sum != total {
		t.Errorf("rows sum to %v, want the op's %v", sum, total)
	}
}

func TestPlaceInsideCentresForeignClock(t *testing.T) {
	parent := span("shard", 1000, 100)
	sub := span("worker-shard", 0, 60, span("simulate", 5, 50))
	placeInside(parent, sub)
	if sub.StartUS != 1020 || sub.Children[0].StartUS != 1025 {
		t.Errorf("subtree placed at %d (child %d), want 1020 (1025)", sub.StartUS, sub.Children[0].StartUS)
	}
}

func TestMetricsDeltaWithMissingSeries(t *testing.T) {
	before := parseMetrics(strings.NewReader(`# HELP fpserver_renders_total renders
# TYPE fpserver_renders_total counter
fpserver_renders_total 3
fpserver_stage_seconds_sum{stage="simulate"} 1.25
fpserver_reuse_store_hits 10
garbage line without a number x
`))
	after := parseMetrics(strings.NewReader(`fpserver_renders_total 13
fpserver_stage_seconds_sum{stage="simulate"} 2.5
`))
	if got := delta(before, after, "fpserver_renders_total"); got != 10 {
		t.Errorf("delta = %v, want 10", got)
	}
	if got := delta(before, after, `fpserver_stage_seconds_sum{stage="simulate"}`); got != 1.25 {
		t.Errorf("labelled delta = %v, want 1.25", got)
	}
	// A series that has disappeared is missing, never an error.
	if got := delta(before, after, "fpserver_reuse_store_hits"); !math.IsNaN(got) {
		t.Errorf("delta of a vanished series = %v, want missing", got)
	}
	if got := gauge(after, "fpserver_spill_bytes"); !math.IsNaN(got) {
		t.Errorf("gauge of an absent series = %v, want missing", got)
	}
	if got := delta(scrape{}, scrape{}, "anything"); !math.IsNaN(got) {
		t.Errorf("delta over failed scrapes = %v, want missing", got)
	}
}

func TestMissingIsNullInJSON(t *testing.T) {
	m := &measured{Unit: "ms"}
	m.add(missing)
	m.add(4)
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"unit":"ms","median":4,"runs":[null,4]}`; string(data) != want {
		t.Errorf("got %s, want %s", data, want)
	}
	var back measured
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if vs := back.values(); len(vs) != 1 || vs[0] != 4 {
		t.Errorf("values after round trip = %v, want [4]", vs)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	for _, tc := range []struct {
		name       string
		def        metricDef
		base, cand []float64
		want       verdict
	}{
		{"within bound", lower, []float64{10, 10.1, 9.9}, []float64{10.5, 10.6, 10.4}, ok},
		{"beyond bound", lower, []float64{10, 10.1, 9.9}, []float64{11.5, 11.6, 11.4}, regressed},
		{"better is never a regression", lower, []float64{10, 10.1, 9.9}, []float64{5, 5.1, 4.9}, ok},
		{"spread wider than the bound", lower, []float64{8, 10, 12}, []float64{10, 10.1, 9.9}, unresolved},
		{"higher is better: drop", higher, []float64{100, 101, 99}, []float64{85, 86, 84}, regressed},
		{"higher is better: rise", higher, []float64{100, 101, 99}, []float64{130, 131, 129}, ok},
		{"setup_s is judged by its median alone", metricDef{Name: "setup_s", Better: "lower", Bound: 0.25}, []float64{0.8, 1, 1.4}, []float64{1, 1.01, 0.99}, ok},
		{"failed_share is absolute", metricDef{Name: "failed_share", Better: "lower"}, []float64{0}, []float64{0.001}, regressed},
		{"failed_share unchanged", metricDef{Name: "failed_share", Better: "lower"}, []float64{0}, []float64{0}, ok},
	} {
		if got, _, _ := judge(tc.def, tc.base, tc.cand); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareReportsRegression(t *testing.T) {
	file := func(p50 float64) *resultFile {
		return &resultFile{Workloads: map[string]*workloadResult{"join_revisit": {EndToEnd: map[string]*measured{
			"latency_p50_ms": {Unit: "ms", Median: num(p50), Runs: []num{num(p50)}},
			"latency_p99_ms": {Unit: "ms", Median: num(missing), Runs: []num{num(missing)}},
		}}}}
	}
	var out strings.Builder
	if compare(&out, file(10), file(10.5)) {
		t.Errorf("5%% worse reported as regression:\n%s", out.String())
	}
	if strings.Contains(out.String(), "latency_p99_ms") {
		t.Errorf("a null metric got a row:\n%s", out.String())
	}
	if !compare(&out, file(10), file(20)) {
		t.Errorf("100%% worse not reported:\n%s", out.String())
	}
}

func TestProcParsers(t *testing.T) {
	stat := "4242 (fp server) x) S 1 4242 4242 0 -1 4194560 1 0 0 0 150 25 0 0 20 0 7 0 100 1 2 3"
	if ticks, err := parseStatTicks(stat); err != nil || ticks != 175 {
		t.Errorf("parseStatTicks = %d, %v; want 175", ticks, err)
	}
	if _, err := parseStatTicks("garbage"); err == nil {
		t.Error("malformed stat line accepted")
	}
	if kb, err := parseVmHWM("Name:\tfpserver\nVmHWM:\t   21504 kB\nVmRSS:\t 100 kB\n"); err != nil || kb != 21504 {
		t.Errorf("parseVmHWM = %d, %v; want 21504", kb, err)
	}
}

func TestCheckSummary(t *testing.T) {
	samples := make([]float64, 400)
	for i := range samples {
		samples[i] = float64(i)
	}
	good := fp.ColumnSummary{N: 400, Mean: 199.5, StdDev: math.Sqrt(13366.666666666666), Median: 202, P95: 377}
	if err := checkSummary(good, samples); err != nil {
		t.Errorf("summary within tolerance rejected: %v", err)
	}
	for name, bad := range map[string]fp.ColumnSummary{
		"mean":   {N: 400, Mean: 199.5001, StdDev: good.StdDev, Median: 200, P95: 380},
		"median": {N: 400, Mean: 199.5, StdDev: good.StdDev, Median: 215, P95: 380},
		"p95":    {N: 400, Mean: 199.5, StdDev: good.StdDev, Median: 200, P95: 399},
	} {
		if err := checkSummary(bad, samples); err == nil {
			t.Errorf("wrong %s accepted", name)
		}
	}
}

// BENCHMARK.json is the contract other tooling reads; the tables in
// metrics.go and workloads.go are what the harness prints. They must agree.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var file struct {
		Paths      []string
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
		RunSeconds int      `json:"run_seconds"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Paths) != 1 || file.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", file.Paths)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(file.Workloads), len(workloads))
	}
	for i, w := range file.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q (%q), harness has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the harness", len(got), kind, len(want))
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s metric %d is %+v, harness has %+v", kind, i, m, d)
			}
			if bounded && (m.Bound == nil || *m.Bound != d.Bound) {
				t.Errorf("%s: bound differs from the harness's %v", m.Name, d.Bound)
			}
			if !bounded && m.Bound != nil {
				t.Errorf("%s: per-layer metrics have no bound", m.Name)
			}
		}
	}
	same("end-to-end", file.EndToEnd, endToEnd, true)
	same("per-layer", file.PerLayer, perLayer, false)
}

// TestSmoke runs every workload for three ops, traced, against real
// fpserver processes built from the tree, at sizes small enough to finish
// in seconds, and checks what a full run relies on: answers verified, and
// the per-layer rows of the traced ops adding up to their latency.
func TestSmoke(t *testing.T) {
	ctx := context.Background()
	co, err := findCheckout()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := co.goBuild(ctx, co.root, "./cmd/fpserver", "fpserver-test")
	if err != nil {
		t.Fatal(err)
	}
	e := env{fpserver: bin, tmp: t.TempDir()}
	small := sizes{worlds: 24, coldWorlds: 8, sweepPoints: 2, rounds: 1, maxOps: 3}
	for i := range workloads {
		spec := &workloads[i]
		t.Run(spec.name, func(t *testing.T) {
			res, err := runWorkload(ctx, e, spec, small, 7, 60, true)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted != 3 || res.Failed != 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d failures=%v", res.Correct, res.Attempted, res.Failed, res.Failures)
			}
			sum := res.Metrics[unattributedRow]
			seen := map[string]bool{}
			for _, row := range spanRows {
				if !seen[row] {
					sum += res.Metrics[row]
					seen[row] = true
				}
			}
			// Span times are whole microseconds; the op's latency is not.
			if mean := res.Metrics["bench.traced_latency_mean_ms"]; math.Abs(sum-mean) > 0.002 {
				t.Errorf("rows sum to %.4f ms, traced ops took %.4f ms", sum, mean)
			}
			if res.Metrics[unattributedRow] != 0 {
				t.Errorf("%.4f ms unattributed: a span name the harness does not know", res.Metrics[unattributedRow])
			}
			for _, d := range tracedLayer {
				if _, ok := res.Metrics[d.Name]; !ok {
					t.Errorf("traced run did not report %s", d.Name)
				}
			}
			busy := "mc.simulate_ms_per_op"
			if spec.topo == fleet {
				busy = "server.shard.wire_ms_per_op"
			}
			if res.Metrics[busy] <= 0 {
				t.Errorf("%s = %v, want > 0", busy, res.Metrics[busy])
			}
			if len(res.trees) != 1 || res.trees[0].Name != "op" {
				t.Errorf("kept %d span trees, want the one traced op", len(res.trees))
			}
		})
	}
}

// Times are scaled to reference machine speed when a round is merged into
// the run; counts, bytes and memory are not.
func TestMergeScalesTimesOnly(t *testing.T) {
	tl := newTally()
	r := &tally{
		okMS: []float64{10, 20}, tracedMS: []float64{20}, untracedMS: []float64{10},
		attempted: 2, measured: 4, cpu: 2, rss: []float64{50}, setups: []float64{1}, bytes: 1000,
		reuse:  map[string]int{"cached": 106},
		rows:   map[string]float64{"mc.simulate_ms_per_op": 8000},
		series: map[string]float64{"storage.hits_per_op": 212},
	}
	tl.merge(r, 0.5) // the machine was half as fast as the reference
	// Two more rounds, one of them hit by a bad minute: the medians ignore it.
	tl.merge(&tally{okMS: []float64{10, 20}, measured: 4, cpu: 2, rss: []float64{50}, setups: []float64{1}}, 0.5)
	tl.merge(&tally{okMS: []float64{40, 90}, measured: 9, cpu: 5, rss: []float64{70}, setups: []float64{3}}, 0.5)
	e2e := tl.endToEndMetrics()
	for name, want := range map[string]float64{
		"latency_p50_ms": 5, "latency_p90_ms": 10, "ops_per_s": 1, "server_cpu_s_per_op": 0.5,
		"server_rss_peak_mb": 50, "setup_s": 0.5, "bench.machine_speed": 0.5,
	} {
		if got := e2e[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	layer := tl.perLayerMetrics()
	for name, want := range map[string]float64{
		"mc.simulate_ms_per_op": 4, "mc.reuse.cached_per_op": 106.0 / 6, "storage.hits_per_op": 212.0 / 6,
		"server.response_bytes_per_op": 1000.0 / 6, "bench.traced_latency_mean_ms": 10,
	} {
		if got := layer[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestMachineKnowsABadMinute(t *testing.T) {
	m := loadMachine(filepath.Join(t.TempDir(), "machine.json"), true)
	if !m.calm(referenceProbe) || m.calm(2*referenceProbe) {
		t.Error("without history the reference VM's probe time is the usual one")
	}
	for i := range 100 { // 75 good minutes at 10-11 ms, 25 bad ones at 15 ms
		p := 10e6 + float64(i%4)*0.3e6
		if i%4 == 3 {
			p = 15e6
		}
		m.Probes = append(m.Probes, p)
	}
	if got := m.usual(); got < 10e6 || got > 10.6e6 {
		t.Errorf("usual probe = %v, want one of the good ones", got)
	}
	if !m.calm(11*time.Millisecond) || m.calm(13*time.Millisecond) {
		t.Error("11 ms should be calm and 13 ms a bad minute against a usual ~10.3 ms")
	}
	if !m.spend(30) || m.spend(30) {
		t.Error("a run may spend 30 s of its 40 s, not 60 s")
	}
	if err := m.save(); err != nil {
		t.Fatal(err)
	}
	again := loadMachine(m.path, true)
	if again.Waited != 30 || len(again.Probes) != 100 {
		t.Errorf("reloaded waited=%v probes=%d, want 30 and 100", again.Waited, len(again.Probes))
	}
	again.Waited = checkoutWaitBudget - 1
	if again.spend(5) {
		t.Error("the checkout's budget must hold across runs")
	}
}
