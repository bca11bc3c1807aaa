// Package online implements Fuzzy Prophet's online mode (paper §3.2): an
// interactive session where the user adjusts parameter "sliders" and sees a
// live graph of the scenario's per-X-value statistics.
//
// The session keeps the fingerprint-reuse engine warm across adjustments,
// so after the first render "only portions of the graph changed by the
// adjustment are re-rendered (implying that only a small portion of the
// output statistics is recomputed)" — the RenderStats returned with each
// graph quantify exactly that claim. The session can also prefetch points
// around the current slider positions, the paper's "values [that] are
// proactively being explored anticipating their future usage".
//
// A Session is safe for concurrent use: slider state is mutex-guarded and
// every render works from a snapshot of the pins taken at its start, with
// its own evaluator over the shared (lock-protected) reuse engine. SetParam
// from one goroutine never races a Render in another; the render simply
// reflects whichever pins it snapshotted.
//
// Two scenario-level caches make repeat renders cheap: the fingerprint
// reuse engine skips re-simulating unchanged worlds, and the scenario's
// compiled execution plan (scenario.Plan) is shared by every render and
// prefetch — a slider move re-executes the plan's vectorized operators
// over pooled column buffers, so the per-point SQL cost is parse-free and
// allocation-free after the first frame.
package online

import (
	"context"
	"fmt"
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

	mu   sync.Mutex
	pins guide.Point
	// explored records pin combinations that have been rendered or
	// prefetched, keyed by core.PointKey of the pins; the value marks how
	// ('R' rendered, 'p' prefetched). It feeds the exploration map the
	// paper's GUI shows next to the chart.
	explored map[string]byte
	// stats accumulates per-session render/prefetch totals for monitoring.
	stats SessionStats
}

// SessionStats are cumulative per-session counters: how many renders the
// session served, the wall-clock simulation time they cost, and how many
// (point, week) evaluations prefetching performed. A metrics endpoint can
// derive mean render latency and prefetch pressure from them.
type SessionStats struct {
	// Renders counts completed Render/RenderProgressive passes.
	Renders int64
	// RenderElapsed is the summed wall-clock time of those passes.
	RenderElapsed time.Duration
	// PointsRendered is the total X positions evaluated across renders.
	PointsRendered int64
	// PrefetchedPoints is the total (point, week) evaluations done by
	// Prefetch calls.
	PrefetchedPoints int64
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
		explored: map[string]byte{},
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

// SetParam moves one slider. The axis parameter cannot be pinned, the value
// must belong to the parameter's declared space.
func (s *Session) SetParam(name string, v value.Value) error {
	if name == s.axis {
		return fmt.Errorf("online: @%s is the graph axis, not a slider", name)
	}
	if s.scn.Space.Index(name) < 0 {
		return fmt.Errorf("online: unknown parameter @%s", name)
	}
	if s.scn.Space.IndexOfValue(name, v) < 0 {
		return fmt.Errorf("online: value %s is outside @%s's declared space", v.SQLLiteral(), name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pins[name] = v
	return nil
}

// snapshotPins copies the current slider positions under the lock; renders
// work from the snapshot so concurrent SetParam calls never race them.
func (s *Session) snapshotPins() guide.Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	return clonePoint(s.pins)
}

// markExplored records how a pin combination was visited. A prefetch never
// downgrades a rendered cell.
func (s *Session) markExplored(key string, how byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if how == 'p' && s.explored[key] == 'R' {
		return
	}
	s.explored[key] = how
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
	SecondAxis bool      `json:"second_axis,omitempty"`
	X          []float64 `json:"x"`
	Y          []float64 `json:"y"`
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

// Render evaluates the graph at the current slider positions. With a warm
// reuse engine, only X positions genuinely affected by prior adjustments
// cost fresh simulation. The context is checked before every X position;
// a cancelled context aborts the render within one world-batch.
func (s *Session) Render(ctx context.Context) (*Graph, error) {
	return s.renderWith(ctx, s.opts)
}

// renderWith renders one frame under the given options, from a snapshot of
// the current pins. Each render evaluates through its own mc.Evaluator (the
// possible-worlds tables are evaluator-local state), told to aggregate only
// the columns the GRAPH clause plots; only the lock-protected reuse engine
// is shared, so concurrent renders are safe.
func (s *Session) renderWith(ctx context.Context, opts mc.Options) (*Graph, error) {
	start := time.Now()
	pins := s.snapshotPins()
	points, err := s.scn.Space.Sweep(s.axis, pins)
	if err != nil {
		return nil, err
	}
	g := &Graph{Axis: s.axis}
	columns := make([]string, len(s.scn.Graph.Items))
	for i, item := range s.scn.Graph.Items {
		columns[i] = item.Column
		g.Series = append(g.Series, Series{
			Name:       item.Agg + " " + item.Column,
			Agg:        item.Agg,
			Column:     item.Column,
			Style:      slices.Clone(item.Style),
			SecondAxis: slices.Contains(item.Style, "y2"),
		})
	}
	ev := mc.NewEvaluator(s.scn, opts)
	ev.Reads(columns...)
	results, err := ev.EvaluatePoints(ctx, points)
	if err := ev.KeepPrefix(ctx, results, err); err != nil {
		return nil, err
	}
	g.Stats.Degraded = len(results) < len(points)
	n := len(results)
	g.X = make([]float64, 0, n)
	for i := range g.Series {
		srs := &g.Series[i]
		srs.X, srs.Y, srs.CI95 = make([]float64, 0, n), make([]float64, 0, n), make([]float64, 0, n)
	}
	minWorlds := opts.Worlds
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
			srs.X = append(srs.X, x)
			srs.Y = append(srs.Y, y)
			srs.CI95 = append(srs.CI95, col.CI95())
		}
	}
	g.Stats.Points = len(g.X)
	if g.Stats.Degraded {
		g.Stats.WorldsCompleted = minWorlds
	}
	g.Stats.Elapsed = time.Since(start)
	s.markExplored(core.PointKey(pins), 'R')
	s.mu.Lock()
	s.stats.Renders++
	s.stats.RenderElapsed += g.Stats.Elapsed
	s.stats.PointsRendered += int64(len(g.X))
	s.mu.Unlock()
	return g, nil
}

// RenderProgressive delivers the paper's "live, progressively refined view":
// it renders the graph at increasing world counts (starting at startWorlds,
// doubling up to the session's configured world count), invoking frame
// after each pass with the refined graph and the world count used. Return
// false from frame to stop early. The final rendered frame is returned.
func (s *Session) RenderProgressive(ctx context.Context, startWorlds int, frame func(g *Graph, worlds int) bool) (*Graph, error) {
	if frame == nil {
		return nil, fmt.Errorf("online: RenderProgressive needs a frame callback")
	}
	maxWorlds := s.opts.Worlds
	worlds := startWorlds
	if worlds <= 0 {
		worlds = 64
	}
	if worlds > maxWorlds {
		worlds = maxWorlds
	}
	var last *Graph
	for {
		opts := s.opts
		opts.Worlds = worlds
		g, err := s.renderWith(ctx, opts)
		if err != nil {
			return nil, err
		}
		last = g
		if !frame(g, worlds) || worlds >= maxWorlds {
			return last, nil
		}
		worlds *= 2
		if worlds > maxWorlds {
			worlds = maxWorlds
		}
	}
}

// ExplorationMap renders the paper's parameter-space grid ("with which
// parameter values have already been explored and which values are
// proactively being explored"): a 2-D slice over two slider parameters,
// every other slider held at its current position.
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
	pins := s.snapshotPins()
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, rv := range rowVals {
		for j, cv := range colVals {
			cell := clonePoint(pins)
			cell[rowParam] = rv
			cell[colParam] = cv
			switch s.explored[core.PointKey(cell)] {
			case 'R':
				grid.Set(i, j, viz.CellComputed)
			case 'p':
				grid.Set(i, j, viz.CellCached)
			default:
				grid.Set(i, j, viz.CellUnexplored)
			}
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

func clonePoint(p guide.Point) guide.Point {
	out := make(guide.Point, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// Prefetch proactively evaluates the graph at slider positions adjacent to
// the current ones (radius index steps along the given axes; nil means all
// sliders), warming the reuse store for the user's likely next adjustments.
// Each neighbour's sweep is one batch. It returns the number of (point,
// week) evaluations performed. The context is checked before every
// evaluated point, so a cancelled prefetch stops promptly, keeping whatever
// it already warmed. The graph axis is not a slider: naming it in axes is
// an error.
func (s *Session) Prefetch(ctx context.Context, axes []string, radius int) (int, error) {
	for _, name := range axes {
		if name == s.axis {
			return 0, fmt.Errorf("online: @%s is the graph axis, not a slider", name)
		}
	}
	focus := s.snapshotPins()
	// Complete the focus with an arbitrary axis value; the axis itself is
	// excluded from the movable dimensions.
	focus[s.axis] = s.scn.Space.Params[s.scn.Space.Index(s.axis)].Values[0]
	movable := axes
	if movable == nil {
		for _, def := range s.scn.Space.Params {
			if def.Name != s.axis {
				movable = append(movable, def.Name)
			}
		}
	}
	strategy, err := guide.NewNeighborhood(s.scn.Space, focus, radius, movable)
	if err != nil {
		return 0, err
	}
	ev := mc.NewEvaluator(s.scn, s.opts)
	ev.Reads() // warming the reuse store reads no aggregate
	evaluated := 0
	for {
		neighbor, ok := strategy.Next()
		if !ok {
			break
		}
		pins := clonePoint(neighbor)
		delete(pins, s.axis)
		sweep, err := s.scn.Space.Sweep(s.axis, pins)
		if err != nil {
			return evaluated, err
		}
		done, err := ev.EvaluatePoints(ctx, sweep)
		evaluated += len(done)
		if err != nil {
			return evaluated, err
		}
		s.markExplored(core.PointKey(pins), 'p')
	}
	s.mu.Lock()
	s.stats.PrefetchedPoints += int64(evaluated)
	s.mu.Unlock()
	return evaluated, nil
}

// TimeToFirstAccurateGuess runs progressively larger world counts at the
// current sliders until every series converges (CI95 within eps relative),
// returning the elapsed time and the world count used (minWorlds is clamped
// to the session's world count, as in RenderProgressive). It measures the
// paper's "a few dozen seconds to generate accurate statistics" claim
// (experiment E1).
func (s *Session) TimeToFirstAccurateGuess(ctx context.Context, eps float64, minWorlds int) (time.Duration, int, error) {
	start := time.Now()
	pins := s.snapshotPins()
	points, err := s.scn.Space.Sweep(s.axis, pins)
	if err != nil {
		return 0, 0, err
	}
	worlds := minWorlds
	if worlds <= 0 {
		worlds = 100
	}
	maxWorlds := s.opts.Worlds
	worlds = min(worlds, maxWorlds)
	for {
		opts := s.opts
		opts.Worlds = worlds
		probe := mc.NewEvaluator(s.scn, opts)
		allConverged := true
		for _, pt := range points {
			// One-point batches: the pass stops at its first unconverged point.
			res, err := probe.EvaluatePoints(ctx, []guide.Point{pt})
			if err != nil {
				return 0, 0, err
			}
			if !aggregate.Converged(res[0].Sketches, eps, int64(worlds/2)) {
				allConverged = false
				break
			}
		}
		if allConverged || worlds >= maxWorlds {
			return time.Since(start), worlds, nil
		}
		worlds *= 2
		if worlds > maxWorlds {
			worlds = maxWorlds
		}
	}
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
