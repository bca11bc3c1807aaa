// Package online implements Fuzzy Prophet's online mode (paper §3.2): an
// interactive session where the user adjusts parameter "sliders" and sees a
// live graph of the scenario's per-X-value statistics.
//
// The session is the one owner of its exploration state: the slider
// positions (Pins), the explored pin combinations behind the exploration
// map, and the cumulative render counters. It keeps the fingerprint-reuse
// engine warm across adjustments, so after the first render "only portions
// of the graph changed by the adjustment are re-rendered (implying that
// only a small portion of the output statistics is recomputed)" — the
// RenderStats returned with each graph quantify exactly that claim.
//
// A Session keeps one render state for its life: an evaluator that reads
// the GRAPH columns, plus the buffers of the pins snapshot and the sweep's
// points. The first render builds it; every later render, each pass of a
// progressive render included, checks it out under the session lock and
// reconfigures the evaluator to its world count, so the memo batch
// buffers, the ordinal vector, the pooled range environments and the
// series chains carry from one slider move to the next, and a revisit
// allocates little beyond its answer. A render that fails (an error, a
// recovered panic, a cancellation) or is degraded drops the state instead
// of checking it in; the next render builds a fresh one.
//
// A Session is safe for concurrent use: slider state is mutex-guarded and
// every render works from a snapshot of the pins taken at its start, over
// the shared (lock-protected) reuse engine. A render that finds the state
// checked out by another builds its own, and at check-in one of the two is
// kept. SetParam from one goroutine never races a Render in another; the
// render simply reflects whichever pins it snapshotted. The points a render
// evaluates alias its state's sweep buffers, so an mc.PointResult.Point
// from a session render is valid only until that state's next render; the
// session hands none out.
//
// A progressive render (RenderProgressive) runs all its doubling passes on
// the session's state, reconfigured to each pass's world count, so each
// world's series chain is simulated once per progressive render, not once
// per pass. TimeToFirstAccurateGuess does the same on an evaluator of its
// own, which aggregates every column.
//
// Two scenario-level caches make repeat renders cheap: the fingerprint
// reuse engine skips re-simulating unchanged worlds, and the scenario's
// compiled execution plan (scenario.Plan) is shared by every render — a
// slider move re-executes the plan's vectorized operators over pooled
// column buffers, so the per-point SQL cost is parse-free and
// allocation-free after the first frame.
package online

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"

	"fuzzyprophet/internal/aggregate"
	"fuzzyprophet/internal/core"
	"fuzzyprophet/internal/guide"
	"fuzzyprophet/internal/mc"
	"fuzzyprophet/internal/scenario"
	"fuzzyprophet/internal/value"
	"fuzzyprophet/internal/viz"
)

// Session is one interactive exploration of a scenario's graph.
type Session struct {
	scn  *scenario.Scenario
	opts mc.Options // effective (defaults applied); Reuse is shared
	axis string
	// series holds each GRAPH item's series with no values: a frame's
	// series are copies, Style cloned.
	series []Series

	mu   sync.Mutex
	pins guide.Point
	// state is the render state between renders; nil while a render has it
	// checked out, or before the first render.
	state *renderState
	// explored records the pin combinations that have been rendered, keyed
	// by core.PointKey of the pins. It feeds the exploration map the
	// paper's GUI shows next to the chart.
	explored map[string]bool
	// stats accumulates per-session render totals for monitoring.
	stats SessionStats
}

// SessionStats are cumulative per-session counters: how many renders the
// session served and the wall-clock time they cost. A metrics endpoint can
// derive mean render latency from them.
type SessionStats struct {
	// Renders counts completed Render/RenderProgressive passes.
	Renders int64
	// RenderElapsed is the summed wall-clock time of those passes.
	RenderElapsed time.Duration
	// PointsRendered is the total X positions evaluated across renders.
	PointsRendered int64
}

// Stats returns a snapshot of the session's cumulative counters.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// NewSession opens a session over a compiled scenario that declares a GRAPH
// statement. Slider positions start at each parameter's first declared
// value. Pass an mc.Options with a Reuse engine to enable fingerprint reuse
// (strongly recommended; it is the point of the system).
func NewSession(scn *scenario.Scenario, opts mc.Options) (*Session, error) {
	if scn.Graph == nil {
		return nil, fmt.Errorf("online: scenario has no GRAPH statement")
	}
	s := &Session{
		scn:      scn,
		opts:     opts.WithDefaults(),
		axis:     scn.Graph.Over,
		pins:     guide.Point{},
		explored: map[string]bool{},
	}
	for _, item := range scn.Graph.Items {
		s.series = append(s.series, Series{
			Name:       item.Agg + " " + item.Column,
			Agg:        item.Agg,
			Column:     item.Column,
			Style:      item.Style,
			SecondAxis: slices.Contains(item.Style, "y2"),
		})
	}
	for _, def := range scn.Space.Params {
		if def.Name != s.axis {
			s.pins[def.Name] = def.Values[0]
		}
	}
	return s, nil
}

// Axis returns the graph's X-axis parameter name.
func (s *Session) Axis() string { return s.axis }

// SetParam moves one slider: SetParams with one move.
func (s *Session) SetParam(name string, v value.Value) error {
	return s.SetParams(guide.Point{name: v})
}

// SetParams moves several sliders at once, all or none: every name must be
// a slider (a declared parameter other than the axis) and every value must
// belong to its parameter's declared space, or no slider moves. Names are
// checked in sorted order, so the error reported names the first bad one.
func (s *Session) SetParams(moves guide.Point) error {
	for _, name := range slices.Sorted(maps.Keys(moves)) {
		if name == s.axis {
			return fmt.Errorf("online: @%s is the graph axis, not a slider", name)
		}
		if s.scn.Space.Index(name) < 0 {
			return fmt.Errorf("online: unknown parameter @%s", name)
		}
		if v := moves[name]; s.scn.Space.IndexOfValue(name, v) < 0 {
			return fmt.Errorf("online: value %s is outside @%s's declared space", v.SQLLiteral(), name)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	maps.Copy(s.pins, moves)
	return nil
}

// Pins returns a copy of the current slider positions: every parameter
// but the axis, set or not. Renders work from such a snapshot, so
// concurrent SetParam calls never race them.
func (s *Session) Pins() guide.Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	return maps.Clone(s.pins)
}

// RenderStats quantifies one render: how much of the graph had to be
// recomputed versus served from the reuse machinery.
type RenderStats struct {
	// Points is the number of X-axis positions rendered.
	Points int `json:"points"`
	// Recomputed counts positions where at least one VG site required
	// fresh Monte Carlo simulation.
	Recomputed int `json:"recomputed"`
	// Remapped counts positions fully served by fingerprint mappings
	// (identity or affine; no fresh simulation, only fingerprint probes).
	Remapped int `json:"remapped"`
	// Unchanged counts positions where every site was an exact cache hit.
	Unchanged int `json:"unchanged"`
	// Elapsed is the wall-clock render time.
	Elapsed time.Duration `json:"elapsed_ns"`
	// Degraded marks a frame cut short by the context deadline under
	// mc.Options.AllowDegraded. A local render (one world range per point)
	// is cut to a shorter frame: the points evaluated before the deadline,
	// each over every requested world. A fleet render returns the per-point
	// harvest: each point keeps the world ranges that completed, so its
	// summary may cover fewer worlds, and the frame ends at the first point
	// with no completed range. Degraded frames are honest but
	// lower-confidence; callers should re-render rather than cache them.
	Degraded bool `json:"degraded,omitempty"`
	// WorldsCompleted is the smallest world count backing any rendered
	// point of a degraded frame (the requested world budget when only the
	// sweep, not the per-point budget, was cut). Zero when Degraded is
	// false.
	WorldsCompleted int `json:"worlds_completed,omitempty"`
}

// RecomputedFraction is the fraction of X positions that needed fresh
// simulation.
func (r RenderStats) RecomputedFraction() float64 {
	if r.Points == 0 {
		return 0
	}
	return float64(r.Recomputed) / float64(r.Points)
}

// Series is one rendered series (one GRAPH item), its values in X order.
type Series struct {
	// Name is "AGG column", e.g. "EXPECT overload".
	Name string `json:"name"`
	// Agg and Column identify the aggregate and source column.
	Agg    string `json:"agg"`
	Column string `json:"column"`
	// Style carries the scenario's style words: a copy, so a caller may
	// change it without touching the scenario.
	Style []string `json:"style,omitempty"`
	// SecondAxis places the series on the right-hand (y2) scale, from the
	// "y2" style word in the scenario's GRAPH clause.
	SecondAxis bool `json:"second_axis,omitempty"`
	// Y holds one value per Graph.X position.
	Y []float64 `json:"y"`
	// CI95 holds the 95% confidence half-width of each Y.
	CI95 []float64 `json:"ci95,omitempty"`
}

// Graph is one rendered frame of the online interface (Figure 3). It
// marshals to the JSON shape cmd/fpserver's render endpoint serves: the
// axis, X values, per-series Y vectors with CI95 bands, and reuse stats.
type Graph struct {
	// Axis is the X-axis parameter name.
	Axis string `json:"axis"`
	// X holds the axis values in order.
	X []float64 `json:"x"`
	// Series holds one entry per GRAPH item, in scenario order.
	Series []Series `json:"series"`
	// Stats quantifies the render.
	Stats RenderStats `json:"stats"`
}

// renderState is what a render works in, kept by the session from one
// render to the next (see the package doc): the evaluator, which reads only
// the GRAPH columns, the pins snapshot, the sweep's points, and the
// buffers of the pins' exploration key.
type renderState struct {
	ev     *mc.Evaluator
	pins   guide.Point
	points []guide.Point
	names  []string
	key    []byte
}

// checkout takes the session's render state, or builds one when there is
// none: before the first render, or while another render holds it.
func (s *Session) checkout() *renderState {
	s.mu.Lock()
	st := s.state
	s.state = nil
	s.mu.Unlock()
	if st == nil {
		st = &renderState{ev: mc.NewEvaluator(s.scn, s.opts), pins: guide.Point{}}
		columns := make([]string, len(s.series))
		for i, srs := range s.series {
			columns[i] = srs.Column
		}
		st.ev.Reads(columns...)
	}
	return st
}

// checkin hands st back after a render that succeeded in full. When another
// render checked its own state in first, that one is kept and st dropped.
func (s *Session) checkin(st *renderState) {
	s.mu.Lock()
	if s.state == nil {
		s.state = st
	}
	s.mu.Unlock()
}

// Render evaluates the graph at the current slider positions. With a warm
// reuse engine, only X positions genuinely affected by prior adjustments
// cost fresh simulation. The context is checked before every X position;
// a cancelled context aborts the render within one world-batch.
func (s *Session) Render(ctx context.Context) (*Graph, error) {
	st := s.checkout()
	st.ev.Reconfigure(s.opts.Worlds, s.opts.SeedBase, s.opts.SketchOnly)
	g, err := s.renderWith(ctx, st, s.opts.Worlds)
	if err == nil && !g.Stats.Degraded {
		s.checkin(st)
	}
	return g, err
}

// renderWith renders one frame of worlds worlds on st, checked out by the
// caller and configured to that world count, from a snapshot of the current
// pins. Only the lock-protected reuse engine is shared, so concurrent
// renders are safe.
func (s *Session) renderWith(ctx context.Context, st *renderState, worlds int) (*Graph, error) {
	start := time.Now()
	s.mu.Lock()
	clear(st.pins)
	maps.Copy(st.pins, s.pins)
	s.mu.Unlock()
	points, err := s.scn.Space.SweepInto(st.points, s.axis, st.pins)
	if err != nil {
		return nil, err
	}
	st.points = points
	results, err := st.ev.EvaluatePoints(ctx, points)
	if err := st.ev.KeepPrefix(ctx, results, err); err != nil {
		return nil, err
	}
	g := &Graph{Axis: s.axis, Series: slices.Clone(s.series)}
	g.Stats.Degraded = len(results) < len(points)
	// X and every series' Y and CI95 are carved from one slab.
	n := len(results)
	slab := make([]float64, n*(1+2*len(g.Series)))
	carve := func() []float64 {
		v := slab[:0:n]
		slab = slab[n:]
		return v
	}
	g.X = carve()
	for i := range g.Series {
		srs := &g.Series[i]
		srs.Style = slices.Clone(srs.Style)
		srs.Y, srs.CI95 = carve(), carve()
	}
	minWorlds := worlds
	for _, res := range results {
		x, err := res.Point[s.axis].AsFloat()
		if err != nil {
			return nil, fmt.Errorf("online: non-numeric axis value %s", res.Point[s.axis].SQLLiteral())
		}
		if res.Degraded {
			g.Stats.Degraded = true
			minWorlds = min(minWorlds, res.WorldsCompleted)
		}
		g.X = append(g.X, x)
		classify(res, &g.Stats)
		for i := range g.Series {
			srs := &g.Series[i]
			col, ok := res.Sketches[srs.Column]
			if !ok {
				return nil, fmt.Errorf("online: missing column %q", srs.Column)
			}
			y, err := col.Metric(srs.Agg)
			if err != nil {
				return nil, err
			}
			srs.Y = append(srs.Y, y)
			srs.CI95 = append(srs.CI95, col.CI95())
		}
	}
	g.Stats.Points = len(g.X)
	if g.Stats.Degraded {
		g.Stats.WorldsCompleted = minWorlds
	}
	g.Stats.Elapsed = time.Since(start)
	st.names = core.SortedNames(st.names, st.pins)
	st.key = core.AppendPointKey(st.key[:0], st.names, st.pins)
	s.mu.Lock()
	if !s.explored[string(st.key)] {
		s.explored[string(st.key)] = true
	}
	s.stats.Renders++
	s.stats.RenderElapsed += g.Stats.Elapsed
	s.stats.PointsRendered += int64(len(g.X))
	s.mu.Unlock()
	return g, nil
}

// progressive runs pass at doubling world counts: from first (def when
// first <= 0, clamped to the session's world count) up to the session's
// world count, or until pass reports it is done. Every pass runs on ev,
// reconfigured to the pass's world count, so the series chains, the ordinal
// vector and the pooled range environments carry from pass to pass: a
// world's series chain is simulated once per call, not once per pass.
func (s *Session) progressive(ev *mc.Evaluator, first, def int, pass func(worlds int) (done bool, err error)) error {
	if first <= 0 {
		first = def
	}
	maxWorlds := s.opts.Worlds
	worlds := min(first, maxWorlds)
	for {
		ev.Reconfigure(worlds, s.opts.SeedBase, s.opts.SketchOnly)
		done, err := pass(worlds)
		if err != nil || done || worlds >= maxWorlds {
			return err
		}
		worlds = min(2*worlds, maxWorlds)
	}
}

// RenderProgressive delivers the paper's "live, progressively refined view":
// it renders the graph at increasing world counts (starting at startWorlds,
// default 64, doubling up to the session's configured world count),
// invoking frame after each pass with the refined graph and the world
// count used. Every pass's frame equals a fresh Render at its world count.
// Return false from frame to stop early. The final rendered frame is
// returned. The passes run on the session's render state, which is checked
// in afterwards only when no pass failed or was degraded.
func (s *Session) RenderProgressive(ctx context.Context, startWorlds int, frame func(g *Graph, worlds int) bool) (*Graph, error) {
	if frame == nil {
		return nil, fmt.Errorf("online: RenderProgressive needs a frame callback")
	}
	st := s.checkout()
	var last *Graph
	degraded := false
	err := s.progressive(st.ev, startWorlds, 64, func(worlds int) (bool, error) {
		g, err := s.renderWith(ctx, st, worlds)
		if err != nil {
			return true, err
		}
		last = g
		degraded = degraded || g.Stats.Degraded
		return !frame(g, worlds), nil
	})
	if err != nil {
		return nil, err
	}
	if !degraded {
		s.checkin(st)
	}
	return last, nil
}

// ExplorationMap renders the paper's parameter-space grid ("with which
// parameter values have already been explored"): a 2-D slice over two
// slider parameters, every other slider held at its current position, with
// the rendered pin combinations marked computed.
func (s *Session) ExplorationMap(rowParam, colParam string) (*viz.MapGrid, error) {
	if rowParam == s.axis || colParam == s.axis {
		return nil, fmt.Errorf("online: the graph axis @%s cannot be a map dimension", s.axis)
	}
	ri := s.scn.Space.Index(rowParam)
	ci := s.scn.Space.Index(colParam)
	if ri < 0 || ci < 0 || rowParam == colParam {
		return nil, fmt.Errorf("online: exploration map needs two distinct slider parameters")
	}
	rowVals := s.scn.Space.Params[ri].Values
	colVals := s.scn.Space.Params[ci].Values
	rowLabels := make([]string, len(rowVals))
	colLabels := make([]string, len(colVals))
	for i, v := range rowVals {
		rowLabels[i] = v.SQLLiteral()
	}
	for j, v := range colVals {
		colLabels[j] = v.SQLLiteral()
	}
	grid := viz.NewMapGrid(
		fmt.Sprintf("explored parameter space (@%s × @%s)", rowParam, colParam),
		"@"+rowParam, "@"+colParam, rowLabels, colLabels)
	s.mu.Lock()
	defer s.mu.Unlock()
	cell := maps.Clone(s.pins)
	for i, rv := range rowVals {
		for j, cv := range colVals {
			cell[rowParam] = rv
			cell[colParam] = cv
			kind := viz.CellUnexplored
			if s.explored[core.PointKey(cell)] {
				kind = viz.CellComputed
			}
			grid.Set(i, j, kind)
		}
	}
	return grid, nil
}

func classify(res *mc.PointResult, stats *RenderStats) {
	fresh, mapped := false, false
	for _, kind := range res.SiteOutcome {
		switch kind {
		case mc.Computed:
			fresh = true
		case mc.Identity, mc.Affine:
			mapped = true
		}
	}
	switch {
	case fresh:
		stats.Recomputed++
	case mapped:
		stats.Remapped++
	default:
		stats.Unchanged++
	}
}

// TimeToFirstAccurateGuess runs progressively larger world counts at the
// current sliders until every series converges (CI95 within eps relative),
// returning the elapsed time and the world count used (minWorlds, default
// 100, is clamped to the session's world count, as in RenderProgressive,
// and its passes share one evaluator the same way: its own, which folds
// every column the convergence test reads). It measures the paper's "a few
// dozen seconds to generate accurate statistics" claim (experiment E1).
func (s *Session) TimeToFirstAccurateGuess(ctx context.Context, eps float64, minWorlds int) (time.Duration, int, error) {
	start := time.Now()
	points, err := s.scn.Space.Sweep(s.axis, s.Pins())
	if err != nil {
		return 0, 0, err
	}
	used := 0
	ev := mc.NewEvaluator(s.scn, s.opts)
	converged := func(worlds int) (bool, error) {
		used = worlds
		for _, pt := range points {
			// One-point batches: the pass stops at its first unconverged point.
			res, err := ev.EvaluatePoints(ctx, []guide.Point{pt})
			if err != nil {
				return true, err
			}
			if !aggregate.Converged(res[0].Sketches, eps, int64(worlds/2)) {
				return false, nil
			}
		}
		return true, nil
	}
	if err := s.progressive(ev, minWorlds, 100, converged); err != nil {
		return 0, 0, err
	}
	return time.Since(start), used, nil
}

// Chart renders a graph frame as an ASCII chart in the style of Figure 3,
// including each series' 95% confidence band (the ':' shading around a
// line) when the frame carries CI half-widths.
func Chart(g *Graph, height int) (string, error) {
	symbols := []byte{'*', 'c', 'd', '+', 'x', 'o'}
	chart := &viz.LineChart{
		Title: fmt.Sprintf("GRAPH OVER @%s   [recomputed %d/%d weeks, remapped %d, unchanged %d, %v]",
			g.Axis, g.Stats.Recomputed, g.Stats.Points, g.Stats.Remapped, g.Stats.Unchanged, g.Stats.Elapsed.Round(time.Millisecond)),
		XLabel: "@" + g.Axis,
		Height: height,
	}
	for i, series := range g.Series {
		chart.Series = append(chart.Series, viz.Series{
			Name:       series.Name,
			Y:          series.Y,
			CIHalf:     series.CI95,
			Symbol:     symbols[i%len(symbols)],
			SecondAxis: series.SecondAxis,
		})
	}
	return chart.Render()
}
