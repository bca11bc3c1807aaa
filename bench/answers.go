package main

import (
	"context"
	"fmt"
	"math"
	"sort"

	fp "fuzzyprophet"
)

// Every answer is checked for its shape as it arrives (checkGraph,
// checkBatch), every revisit against the bits its combination gave the
// first time, and the first answers of a run against an in-process replay
// through the public fuzzyprophet API (answerLog.replay).

// checkGraph is the shape check on one render: all 53 weeks, every series
// complete and finite, not a degraded partial frame.
func checkGraph(r *renderResponse) error {
	g := r.Graph
	switch {
	case r.Degraded:
		return fmt.Errorf("degraded render")
	case g == nil:
		return fmt.Errorf("render without a graph")
	case len(g.X) != graphPoints || g.Stats.Points != graphPoints:
		return fmt.Errorf("graph has %d points (stats say %d), want %d", len(g.X), g.Stats.Points, graphPoints)
	case len(g.Series) == 0:
		return fmt.Errorf("graph without series")
	}
	for _, s := range g.Series {
		if len(s.Y) != graphPoints {
			return fmt.Errorf("series %q has %d values, want %d", s.Name, len(s.Y), graphPoints)
		}
		for _, y := range s.Y {
			if math.IsNaN(y) || math.IsInf(y, 0) {
				return fmt.Errorf("series %q holds a non-finite value", s.Name)
			}
		}
	}
	return nil
}

// checkBatch is the shape check on one sweep answer.
func checkBatch(r *evaluateResponse, points, worlds int) error {
	if r.Degraded {
		return fmt.Errorf("degraded evaluation")
	}
	if len(r.Points) != points {
		return fmt.Errorf("evaluation has %d points, want %d", len(r.Points), points)
	}
	for _, p := range r.Points {
		if p.Degraded || len(p.Summaries) == 0 {
			return fmt.Errorf("point %v is degraded or empty", p.Point)
		}
		for col, s := range p.Summaries {
			if s.N != int64(worlds) {
				return fmt.Errorf("point %v column %s summarises %d worlds, want %d", p.Point, col, s.N, worlds)
			}
			for _, v := range [...]float64{s.Mean, s.StdDev, s.Median, s.P95} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return fmt.Errorf("point %v column %s holds a non-finite value", p.Point, col)
				}
			}
		}
	}
	return nil
}

// seriesBits is one series' values as raw bits, for bit-equality.
type seriesBits []uint64

func bitsOf(g *fp.Graph) []seriesBits {
	out := make([]seriesBits, len(g.Series))
	for i, s := range g.Series {
		for _, y := range s.Y {
			out[i] = append(out[i], math.Float64bits(y))
		}
	}
	return out
}

func sameBits(a, b []seriesBits) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// replayDepth is how many of a round's first answers are replayed. The
// first render of a session simulates everything, the next two exercise
// fingerprint reuse.
const replayDepth = 3

type loggedRender struct {
	seed   uint64 // 0: the shared-cache session; otherwise a private session of its own
	worlds int
	params map[string]any
	graph  *fp.Graph
}

type loggedBatch struct {
	worlds int
	points []map[string]any
	got    []fp.BatchPoint
}

// answerLog keeps the first answers of a round, set-up included, in order.
type answerLog struct {
	renders []loggedRender
	batches []loggedBatch
}

func (l *answerLog) addRender(seed uint64, worlds int, params map[string]any, g *fp.Graph) {
	if len(l.renders) < replayDepth {
		l.renders = append(l.renders, loggedRender{seed, worlds, params, g})
	}
}

func (l *answerLog) addBatch(worlds int, points []map[string]any, got []fp.BatchPoint) {
	if len(l.batches) == 0 {
		l.batches = append(l.batches, loggedBatch{worlds, points, got})
	}
}

// replay re-computes the logged answers in this process and compares.
// Single-node renders must match bit for bit: the server adds transport,
// not arithmetic. Sketch-only sweep answers are merged from shards whose
// sizes follow worker speed, so their moments match within 1e-9 relative
// and their quantiles within the repo's pinned 0.02 rank tolerance.
func (l *answerLog) replay(ctx context.Context, def scenarioDef) error {
	sys, err := fp.New(fp.WithDemoModels())
	if err != nil {
		return err
	}
	scn, err := sys.Compile(def.sql)
	if err != nil {
		return err
	}
	for _, t := range def.tables {
		if err := scn.AddTable(t.Name, t.Columns, t.Rows); err != nil {
			return err
		}
	}
	var shared *fp.Session
	for i, r := range l.renders {
		sess := shared
		if sess == nil || r.seed != 0 {
			opts := []fp.EvalOption{fp.WithWorlds(r.worlds)}
			if r.seed != 0 {
				opts = append(opts, fp.WithSeedBase(r.seed))
			}
			if sess, err = scn.OpenSession(opts...); err != nil {
				return err
			}
			if r.seed == 0 {
				shared = sess
			}
		}
		for name, v := range r.params {
			if err := sess.SetParam(name, v); err != nil {
				return err
			}
		}
		want, err := sess.Render(ctx)
		if err != nil {
			return err
		}
		if !sameBits(bitsOf(r.graph), bitsOf(want)) {
			return fmt.Errorf("answer %d (params %v, seed %d) differs from the in-process render", i, r.params, r.seed)
		}
	}
	for _, b := range l.batches {
		for i, pt := range b.points {
			exact, err := scn.EvaluateShard(ctx, pt, b.worlds, 0, fp.WorldShard{Lo: 0, Hi: b.worlds})
			if err != nil {
				return err
			}
			for col, got := range b.got[i].Summaries {
				if err := checkSummary(got, exact.Columns[col]); err != nil {
					return fmt.Errorf("point %v column %s: %w", pt, col, err)
				}
			}
		}
	}
	return nil
}

const (
	momentTolerance = 1e-9 // relative
	rankTolerance   = 0.02 // internal/mc's sketchQuantileRankTolerance
)

// checkSummary compares a sketch-derived summary with the exact samples.
func checkSummary(got fp.ColumnSummary, samples []float64) error {
	if len(samples) == 0 {
		return fmt.Errorf("no reference samples")
	}
	n := float64(len(samples))
	mu := mean(samples)
	ss := 0.0
	for _, x := range samples {
		ss += (x - mu) * (x - mu)
	}
	if !closeRel(got.Mean, mu) {
		return fmt.Errorf("mean %v, want %v", got.Mean, mu)
	}
	if want := ss / (n - 1); !closeRel(got.StdDev*got.StdDev, want) {
		return fmt.Errorf("variance %v, want %v", got.StdDev*got.StdDev, want)
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	for _, q := range [...]struct {
		q float64
		v float64
	}{{0.5, got.Median}, {0.95, got.P95}} {
		lo := float64(sort.SearchFloat64s(sorted, q.v)) / n
		hi := float64(sort.Search(len(sorted), func(i int) bool { return sorted[i] > q.v })) / n
		if hi < q.q-rankTolerance || lo > q.q+rankTolerance {
			return fmt.Errorf("q%.2f = %v has rank [%.3f, %.3f]", q.q, q.v, lo, hi)
		}
	}
	return nil
}

func closeRel(a, b float64) bool {
	return math.Abs(a-b) <= momentTolerance*math.Max(math.Abs(a), math.Abs(b))
}
