package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"sort"
	"time"
)

// env is where a run finds what it needs on disk.
type env struct {
	fpserver string // the fpserver binary built from this tree
	tmp      string // scratch directory inside the checkout
}

// runResult is one run of one workload: either the untraced run, whose
// metrics are the end-to-end ones, or the traced run with the per-layer ones.
type runResult struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"` // the first few, verbatim
	Correct   bool               `json:"correct"`
	Metrics   map[string]float64 `json:"-"`

	trees []*node // span trees of the first traced ops, for trace-<workload>.json
}

// traceFileOps is how many span trees of a traced run are written out; the
// per-layer rows are computed over all of them.
const traceFileOps = 20

// maxConsecutiveFailures ends a round whose server is evidently gone,
// before fast-failing ops fill the window.
const maxConsecutiveFailures = 20

// seriesKind says how a /metrics series becomes a per-layer metric.
type seriesKind int

const (
	perOp seriesKind = iota // growth over the window ÷ ops
	total                   // growth over the window
	level                   // value at the end of the window
)

var scraped = []struct {
	metric, series string
	kind           seriesKind
}{
	{"storage.hits_per_op", "fpserver_reuse_store_hits", perOp},
	{"storage.misses_per_op", "fpserver_reuse_store_misses", perOp},
	{"storage.evictions_per_op", "fpserver_reuse_store_evictions", perOp},
	{"storage.spill_promotions_per_op", "fpserver_spill_promotions", perOp},
	{"storage.spill_demotions_per_op", "fpserver_spill_demotions", perOp},
	{"server.shard.request_bytes_per_op", "fpserver_shard_request_bytes_total", perOp},
	{"server.shard.response_bytes_per_op", "fpserver_shard_response_bytes_total", perOp},
	{"server.shard.hedges_per_op", "fpserver_shard_hedges_total", perOp},
	{"server.shard.retries_per_op", "fpserver_shard_retries_total", perOp},
	{"server.shard.full_resends", "fpserver_shard_cache_miss_resends_total", total},
	{"server.shed_total", "fpserver_renders_shed_total", total},
	{"server.deadline_exceeded_total", "fpserver_deadline_exceeded_total", total},
	{"storage.resident_bytes", "fpserver_reuse_store_bytes", level},
	{"colstore.spill_bytes", "fpserver_spill_bytes", level},
}

// tally is what a round, or a whole run, measured. A round's tally holds
// times as measured; merging it into the run's multiplies them by the speed
// the machine had around that round, so every time in a run's tally is at
// reference machine speed (see speed.go).
type tally struct {
	okMS, tracedMS []float64 // latencies of OK ops: all of them, and the traced ones
	untracedMS     []float64 // OK untraced ops of a traced run, for the overhead figure
	attempted      int
	failed         int
	failures       []string
	measured       float64   // seconds the ops took
	cpu            float64   // server CPU seconds over those
	rss, setups    []float64 // MB and seconds, one per round
	speeds         []float64 // machine speed, one per round merged
	p50s, p90s     []float64 // each merged round's latency percentiles, ms
	rates, cpuPer  []float64 // each merged round's OK ops per second and CPU seconds per OK op
	bytes          int
	reuse          map[string]int
	rows           map[string]float64 // self time by row, microseconds, traced ops
	rowsOut        float64            // rows out of plan-execute spans, traced ops
	series         map[string]float64 // by metric name; missing once a scrape lacked the series
	trees          []*node
}

func newTally() *tally {
	return &tally{reuse: map[string]int{}, rows: map[string]float64{}, series: map[string]float64{}}
}

func (t *tally) add(rec opRecord) {
	t.attempted++
	if rec.failure != "" {
		t.failed++
		t.failures = append(t.failures, rec.failure)
		return
	}
	ms := float64(rec.latency) / float64(time.Millisecond)
	t.okMS = append(t.okMS, ms)
	t.bytes += rec.bytes
	for k, v := range rec.reuse {
		t.reuse[k] += v
	}
	if rec.tree == nil {
		t.untracedMS = append(t.untracedMS, ms)
		return
	}
	t.tracedMS = append(t.tracedMS, ms)
	attribute(rec.tree, t.rows)
	t.rowsOut += sumAttr(rec.tree, "plan-execute", "rows_out")
	if len(t.trees) < traceFileOps {
		t.trees = append(t.trees, rec.tree)
	}
}

func scaled(xs []float64, by float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * by
	}
	return out
}

// merge adds a round to the run, its times multiplied by speed.
func (t *tally) merge(r *tally, speed float64) {
	if ok := scaled(r.okMS, speed); len(ok) > 0 {
		sort.Float64s(ok) // the pooled latencies are only ever read as a distribution
		t.p50s = append(t.p50s, percentile(ok, 0.50))
		t.p90s = append(t.p90s, percentile(ok, 0.90))
		t.rates = append(t.rates, float64(len(ok))/(r.measured*speed))
		t.cpuPer = append(t.cpuPer, r.cpu*speed/float64(len(ok)))
		t.okMS = append(t.okMS, ok...)
	}
	t.tracedMS = append(t.tracedMS, scaled(r.tracedMS, speed)...)
	t.untracedMS = append(t.untracedMS, scaled(r.untracedMS, speed)...)
	t.attempted += r.attempted
	t.failed += r.failed
	t.failures = append(t.failures, r.failures...)
	t.measured += r.measured * speed
	t.cpu += r.cpu * speed
	t.rss = append(t.rss, r.rss...)
	t.setups = append(t.setups, scaled(r.setups, speed)...)
	t.speeds = append(t.speeds, speed)
	t.bytes += r.bytes
	for k, v := range r.reuse {
		t.reuse[k] += v
	}
	for row, us := range r.rows {
		t.rows[row] += us * speed
	}
	t.rowsOut += r.rowsOut
	for _, s := range scraped {
		if s.kind == level {
			t.series[s.metric] = r.series[s.metric]
		} else {
			t.series[s.metric] += r.series[s.metric]
		}
	}
	if room := traceFileOps - len(t.trees); room > 0 {
		t.trees = append(t.trees, r.trees[:min(room, len(r.trees))]...)
	}
}

// runWorkload runs spec for about seconds of measured time, split over
// sz.rounds rounds of fresh servers, and checks the answers. With traced
// set, every second op asks the server for its span tree.
func runWorkload(ctx context.Context, e env, spec *workloadSpec, sz sizes, seed uint64, seconds float64, traced bool) (*runResult, error) {
	t := newTally()
	window := time.Duration(seconds / float64(sz.rounds) * float64(time.Second))
	var first *answerLog
	m := loadMachine(filepath.Join(e.tmp, "machine.json"), sz.patient)
	speedProbe() // discarded: after an idle spell the cores take a quarter of a second to come up to speed
	probe := m.calmProbe(ctx)
	for i := 0; i < sz.rounds; {
		rng := rand.New(rand.NewPCG(seed, uint64(i)))
		start := time.Now()
		r, log, err := runRound(ctx, e, spec, sz, rng, window, traced)
		if err != nil {
			return nil, fmt.Errorf("%s round %d: %w", spec.name, i, err)
		}
		before := probe
		probe = m.probe()
		if !m.calm(probe) && m.spend(time.Since(start).Seconds()) {
			logf("%s round %d ended at machine speed %.2f: measured again", spec.name, i, machineSpeed(probe))
			probe = m.calmProbe(ctx)
			continue
		}
		// The machine's speed during the round: the probes before and after it.
		t.merge(r, machineSpeed((before+probe)/2))
		if i == 0 {
			first = log
		}
		i++
	}
	if err := m.save(); err != nil {
		return nil, err
	}
	res := &runResult{
		Workload: spec.name, Traced: traced,
		Attempted: t.attempted, Failed: t.failed, Failures: t.failures[:min(len(t.failures), 5)],
		trees: t.trees,
	}
	if err := first.replay(ctx, spec.scenario); err != nil {
		res.Failures = append(res.Failures, "replay: "+err.Error())
	}
	res.Correct = len(res.Failures) == 0
	logf("%s: machine speed %.3f by round %.3f", spec.name, median(t.speeds), t.speeds)
	if traced {
		res.Metrics = t.perLayerMetrics()
	} else {
		res.Metrics = t.endToEndMetrics()
	}
	return res, nil
}

// runRound is one round: fresh servers, set-up, then ops until the window
// closes.
func runRound(ctx context.Context, e env, spec *workloadSpec, sz sizes, rng *rand.Rand, window time.Duration, traced bool) (_ *tally, _ *answerLog, err error) {
	r := newTally()
	setupStart := time.Now()
	cl, err := startCluster(ctx, e.fpserver, spec.topo, sz.worlds, e.tmp)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		cl.stop()
		if err != nil {
			err = fmt.Errorf("%w\nserver log:\n%s", err, cl.logs())
		}
	}()
	c := newClient(cl.baseURL())
	defer c.close()
	_, err = c.roundTrip(ctx, "POST", "/scenarios", map[string]any{
		"id": spec.scenario.id, "sql": spec.scenario.sql, "tables": spec.scenario.tables,
	}, nil)
	if err != nil {
		return nil, nil, err
	}
	inst := spec.new(rng, sz)
	if err := inst.setup(ctx, c); err != nil {
		return nil, nil, err
	}
	r.setups = []float64{time.Since(setupStart).Seconds()}

	var before scrape
	if traced {
		before = scrapeMetrics(ctx, cl.baseURL())
	}
	cpu0, err := cl.cpuSeconds()
	if err != nil {
		return nil, nil, err
	}
	streak := 0
	start := time.Now()
	for (sz.maxOps == 0 || r.attempted < sz.maxOps) && (spec.untilDone || time.Since(start) < window) {
		rec, err := inst.next(ctx, c, traced && r.attempted%2 == 1)
		if errors.Is(err, errDone) {
			break
		}
		r.add(rec)
		if rec.failure == "" {
			streak = 0
		} else if streak++; streak >= maxConsecutiveFailures {
			return nil, nil, fmt.Errorf("%d ops in a row failed, last: %s", streak, rec.failure)
		}
	}
	r.measured = time.Since(start).Seconds()
	cpu1, err := cl.cpuSeconds()
	if err != nil {
		return nil, nil, err
	}
	rss, err := cl.rssPeakMB()
	if err != nil {
		return nil, nil, err
	}
	r.cpu, r.rss = cpu1-cpu0, []float64{rss}
	if traced {
		after := scrapeMetrics(ctx, cl.baseURL())
		for _, s := range scraped {
			if s.kind == level {
				r.series[s.metric] = gauge(after, s.series)
			} else {
				r.series[s.metric] = delta(before, after, s.series)
			}
		}
	}
	return r, inst.checks(), nil
}

// endToEndMetrics reports the run. Latency percentiles, throughput and CPU
// per op are the median over the rounds of each round's own figure, not
// figures over the pooled ops: a round that met a bad minute of the machine
// (its tail suffers far more than its median, and more than the speed probe
// can tell) is then outvoted by the other two. A run's 100 or more ops put
// ten samples beyond its 90th percentile; p99 needs 1 000 pooled ops.
func (t *tally) endToEndMetrics() map[string]float64 {
	m := map[string]float64{
		"latency_p50_ms":      median(t.p50s),
		"latency_p90_ms":      median(t.p90s),
		"latency_p99_ms":      missing,
		"ops_per_s":           median(t.rates),
		"server_cpu_s_per_op": median(t.cpuPer),
		"server_rss_peak_mb":  median(t.rss),
		"setup_s":             median(t.setups),
		"failed_share":        float64(t.failed) / float64(t.attempted),
		"bench.machine_speed": median(t.speeds),
	}
	if enoughBeyond(len(t.okMS), 0.99) {
		sort.Float64s(t.okMS)
		m["latency_p99_ms"] = percentile(t.okMS, 0.99)
	}
	return m
}

func (t *tally) perLayerMetrics() map[string]float64 {
	ok, tracedOps := float64(len(t.okMS)), float64(len(t.tracedMS))
	m := map[string]float64{}
	for _, row := range spanRows {
		m[row] = t.rows[row] / 1000 / tracedOps
	}
	m[unattributedRow] = t.rows[unattributedRow] / 1000 / tracedOps
	m["bench.machine_speed"] = median(t.speeds)
	m["bench.traced_latency_mean_ms"] = mean(t.tracedMS)
	m["obs.trace_overhead_pct"] = 100 * (median(t.tracedMS)/median(t.untracedMS) - 1)
	m["server.response_bytes_per_op"] = float64(t.bytes) / ok
	m["sqlengine.rows_out_per_op"] = t.rowsOut / tracedOps

	outcomes := 0
	for _, kind := range [...]string{"computed", "identity", "affine", "cached"} {
		m["mc.reuse."+kind+"_per_op"] = float64(t.reuse[kind]) / ok
		outcomes += t.reuse[kind]
	}
	m["mc.reuse.useful_ratio"] = 0 // no outcomes at all (a fleet sweep bypasses reuse): nothing was reused
	if outcomes > 0 {
		m["mc.reuse.useful_ratio"] = float64(outcomes-t.reuse["computed"]) / float64(outcomes)
	}

	for _, s := range scraped {
		m[s.metric] = t.series[s.metric]
		if s.kind == perOp {
			m[s.metric] /= ok
		}
	}
	return m
}
