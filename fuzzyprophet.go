package fuzzyprophet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"slices"
	"time"

	"fuzzyprophet/internal/aggregate"
	"fuzzyprophet/internal/guide"
	"fuzzyprophet/internal/mc"
	"fuzzyprophet/internal/models"
	"fuzzyprophet/internal/online"
	"fuzzyprophet/internal/optimize"
	"fuzzyprophet/internal/scenario"
	"fuzzyprophet/internal/sqlengine"
	"fuzzyprophet/internal/sqlparser"
	"fuzzyprophet/internal/value"
	"fuzzyprophet/internal/vg"
)

// System owns a VG-Function registry and compiles scenarios against it.
type System struct {
	registry *vg.Registry
}

// Option configures a System.
type Option func(*System) error

// WithDemoModels registers the paper's demonstration models (DemandModel,
// CapacityModel) and the pricing models (RevenueModel, UnitsModel) used by
// the examples.
func WithDemoModels() Option {
	return func(s *System) error {
		return models.RegisterDefaults(s.registry)
	}
}

// Calibration overrides the demo models' headline constants — the
// simulation characteristics the paper's §3.3 demo invites guests to vary
// ("starting the simulation with a different initial capacity or a
// different user growth"). Zero fields keep the defaults.
type Calibration struct {
	// InitialCapacity is the fleet's week-0 capacity in cores.
	InitialCapacity float64
	// BatchCores is the capacity one hardware purchase adds.
	BatchCores float64
	// DemandBase is the expected demand at week 0.
	DemandBase float64
	// DemandGrowth is the expected weekly demand increase.
	DemandGrowth float64
	// FeatureBoost is the fully-ramped demand added by the feature release.
	FeatureBoost float64
}

// WithCalibratedDemoModels registers the demonstration models with the
// given overrides instead of the default calibration.
func WithCalibratedDemoModels(c Calibration) Option {
	return func(s *System) error {
		dc := models.DefaultDemandConfig()
		cc := models.DefaultCapacityConfig()
		if c.InitialCapacity > 0 {
			cc.Initial = c.InitialCapacity
		}
		if c.BatchCores > 0 {
			cc.BatchCores = c.BatchCores
		}
		if c.DemandBase > 0 {
			dc.Base = c.DemandBase
		}
		if c.DemandGrowth > 0 {
			dc.Growth = c.DemandGrowth
		}
		if c.FeatureBoost > 0 {
			dc.FeatureBoost = c.FeatureBoost
		}
		if err := s.registry.Register(models.NewDemandModel(dc)); err != nil {
			return err
		}
		if err := s.registry.Register(models.NewCapacityModel(cc)); err != nil {
			return err
		}
		rev := models.NewRevenueModel(models.DefaultRevenueConfig())
		if err := s.registry.Register(rev); err != nil {
			return err
		}
		return s.registry.Register(rev.UnitsFunction())
	}
}

// New creates a System with the standard distribution VG-Functions
// (Gaussian, Poisson, Uniform, Exponential, LogNormal, Bernoulli, Binomial,
// Weibull, Gamma) registered.
func New(opts ...Option) (*System, error) {
	s := &System{registry: vg.NewRegistry()}
	if err := vg.RegisterBuiltins(s.registry); err != nil {
		return nil, err
	}
	for _, opt := range opts {
		if err := opt(s); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// VGFunc is a user-supplied black-box stochastic function. It MUST be
// deterministic in (seed, args): the fingerprinting machinery compares
// outputs under fixed seeds, and a nondeterministic function silently
// poisons reuse. Use the seed to initialize your generator; never use
// global randomness or time.
type VGFunc func(seed uint64, args []float64) (float64, error)

// RegisterVG adds a scalar VG-Function callable from scenario SQL.
func (s *System) RegisterVG(name string, arity int, fn VGFunc) error {
	return s.registry.Register(vg.NewFunc(name, arity, func(seed uint64, args []value.Value) (value.Value, error) {
		fs := make([]float64, len(args))
		for i, a := range args {
			f, err := a.AsFloat()
			if err != nil {
				return value.Null, fmt.Errorf("fuzzyprophet: %s argument %d: %w", name, i, err)
			}
			fs[i] = f
		}
		out, err := fn(seed, fs)
		if err != nil {
			return value.Null, err
		}
		return value.Float(out), nil
	}))
}

// VGInvocations returns the total number of VG-Function invocations since
// the system was created (or counters were last reset) — the cost metric
// the paper's reuse machinery optimizes.
func (s *System) VGInvocations() int64 { return s.registry.TotalInvocations() }

// ResetVGInvocations zeroes the invocation counters.
func (s *System) ResetVGInvocations() { s.registry.ResetCounters() }

// CheckDeterminism probes the named VG-Function for seed-determinism, the
// contract fingerprinting depends on. A violation is reported as a
// *DeterminismError.
func (s *System) CheckDeterminism(name string, seed uint64, args []any) error {
	vals, err := toValues(args)
	if err != nil {
		return err
	}
	if err := s.registry.CheckDeterminism(name, seed, vals); err != nil {
		return &DeterminismError{Func: name, err: err}
	}
	return nil
}

// Scenario is a compiled scenario script bound to its system. A Scenario is
// immutable after AddTable calls complete and may be shared freely across
// goroutines; each Evaluate/EvaluateBatch/Optimize call and each Session
// carries its own evaluation state.
type Scenario struct {
	sys *System
	scn *scenario.Scenario
}

// Compile parses and validates a scenario script. Failures are reported as
// a *CompileError; when the lexer or parser rejects the script, the error
// carries the offending line and column.
func (s *System) Compile(src string) (*Scenario, error) {
	scn, err := scenario.Compile(src, s.registry)
	if err != nil {
		var perr *sqlparser.Error
		if errors.As(err, &perr) {
			return nil, &CompileError{Line: perr.Line, Col: perr.Col, Msg: perr.Msg, err: err}
		}
		return nil, &CompileError{Msg: err.Error(), err: err}
	}
	return &Scenario{sys: s, scn: scn}, nil
}

// AddTable attaches a deterministic side table that the scenario query's
// FROM clause may reference (e.g. a dimension table of datacenter regions
// joined against the Monte Carlo worlds). Values may be int/int64/float64/
// string/bool/nil.
func (sc *Scenario) AddTable(name string, cols []string, rows [][]any) error {
	converted := make([][]value.Value, len(rows))
	for i, row := range rows {
		vals, err := toValues(row)
		if err != nil {
			return fmt.Errorf("fuzzyprophet: table %s row %d: %w", name, i, err)
		}
		converted[i] = vals
	}
	t, err := sqlengine.NewTable(name, cols, converted)
	if err != nil {
		return err
	}
	return sc.scn.AddTable(t)
}

// ParamInfo describes one declared parameter.
type ParamInfo struct {
	Name   string
	Values []any
}

// Params returns the declared parameters in declaration order.
func (sc *Scenario) Params() []ParamInfo {
	out := make([]ParamInfo, 0, len(sc.scn.Space.Params))
	for _, def := range sc.scn.Space.Params {
		vals := make([]any, len(def.Values))
		for i, v := range def.Values {
			vals[i] = fromValue(v)
		}
		out = append(out, ParamInfo{Name: def.Name, Values: vals})
	}
	return out
}

// OutputColumns returns the scenario query's output column names.
func (sc *Scenario) OutputColumns() []string {
	return append([]string(nil), sc.scn.OutputCols...)
}

// Fingerprint returns a stable hex identity for the scenario: the SHA-256
// of the canonical printed form of its script, followed by a canonical
// encoding of the side tables added with AddTable when there are any. Two
// scenarios whose scripts differ only in whitespace or comments share a
// fingerprint; two whose tables hold different rows do not, because the
// tables change the query's answers. A scenario without tables has the
// fingerprint of its script alone. The engine keys its compiled-plan cache
// off this identity, so re-compiling identical content (e.g. fpserver
// re-registration) reuses the warmed execution plan transparently.
func (sc *Scenario) Fingerprint() string {
	return sc.scn.Fingerprint()
}

// SpaceSize returns the total number of parameter-space grid points.
func (sc *Scenario) SpaceSize() int { return sc.scn.Space.Size() }

// GeneratedSQL returns the pure TSQL the Query Generator emits for a
// parameter point (diagnostics; the GUI of the paper displays this).
func (sc *Scenario) GeneratedSQL(point map[string]any) (string, error) {
	pt, err := sc.toDeclaredPoint(point)
	if err != nil {
		return "", err
	}
	return sc.scn.GenerateSQL(pt)
}

// ColumnSummary summarizes one output column's distribution at one point.
// The JSON field names are the wire format served by cmd/fpserver.
type ColumnSummary struct {
	N      int64   `json:"n"`
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stddev"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Median float64 `json:"median"`
	P95    float64 `json:"p95"`
	CI95   float64 `json:"ci95"`
	// Note carries a confidence caveat on degraded results — the summary
	// describes only the worlds completed before the deadline cut, so N is
	// smaller and CI95 wider than requested. Empty on full results.
	Note string `json:"note,omitempty"`
}

// Evaluate runs the scenario once at a single parameter point and returns
// per-column distribution summaries. The context is checked per world-batch
// during simulation. For repeated evaluation, call EvaluateBatch or open a
// Session (online) or Optimize (offline) so fingerprint reuse can do its
// job.
func (sc *Scenario) Evaluate(ctx context.Context, point map[string]any, opts ...EvalOption) (map[string]ColumnSummary, error) {
	pt, err := sc.toDeclaredPoint(point)
	if err != nil {
		return nil, err
	}
	mcOpts, err := newEvalConfig(opts).mcOptions()
	if err != nil {
		return nil, err
	}
	res, err := mc.NewEvaluator(sc.scn, mcOpts).EvaluatePoints(ctx, []guide.Point{pt})
	if err != nil {
		return nil, err
	}
	return summarize(res[0]), nil
}

// BatchPoint is one point's outcome within an EvaluateBatch call.
type BatchPoint struct {
	// Point is the evaluated parameter point, as passed in.
	Point map[string]any `json:"point"`
	// Summaries maps each numeric output column to its distribution
	// summary at this point.
	Summaries map[string]ColumnSummary `json:"summaries"`
	// SiteOutcome records, per VG call site, how its samples were obtained
	// ("computed", "cached", "identity", "affine").
	SiteOutcome map[string]string `json:"site_outcome,omitempty"`
	// Degraded marks a partial point: the deadline expired before the full
	// world budget and the summaries cover only WorldsCompleted worlds
	// (WithAllowDegraded). Each summary carries a confidence Note.
	Degraded bool `json:"degraded,omitempty"`
	// WorldsCompleted is the number of worlds behind a degraded point's
	// summaries; zero when Degraded is false.
	WorldsCompleted int `json:"worlds_completed,omitempty"`
}

// BatchResult is the outcome of EvaluateBatch.
type BatchResult struct {
	// Points holds one entry per input point, in input order.
	Points []BatchPoint `json:"points"`
	// ReuseCounts is the reuse engine's per-outcome site tally
	// ("computed", "cached", "identity", "affine") when the batch ends.
	// With a private engine — the default — that is this batch's counts;
	// with WithReuseCache it is the shared engine's lifetime counts, every
	// earlier batch and session on the cache included (ReuseCache.Counts).
	// Empty when reuse is disabled.
	ReuseCounts map[string]int `json:"reuse_counts,omitempty"`
	// Elapsed is the wall-clock duration of the batch.
	Elapsed time.Duration `json:"elapsed_ns"`
	// Degraded is true when any point is degraded or the batch was cut
	// short by the deadline under WithAllowDegraded — Points then holds
	// fewer entries than the input.
	Degraded bool `json:"degraded,omitempty"`
}

// EvaluateBatch evaluates many parameter points through one shared reuse
// engine, so fingerprint remapping amortizes across the batch exactly as
// the paper's offline mode intends: on a correlated grid, most points are
// served by identity/affine mappings of the few actually simulated ones.
// Points evaluate in order; the context is checked before every point (and
// per world-batch inside), so a cancelled batch stops within one
// world-batch and returns the context's error. With WithShardEvaluator,
// each shard is requested once for the whole batch (ShardRequest.Points),
// not once per point.
func (sc *Scenario) EvaluateBatch(ctx context.Context, points []map[string]any, opts ...EvalOption) (*BatchResult, error) {
	start := time.Now()
	mcOpts, err := newEvalConfig(opts).mcOptions()
	if err != nil {
		return nil, err
	}
	// Validate every point up front: a bad key at the end of a large batch
	// must not cost the simulation of everything before it.
	pts := make([]guide.Point, len(points))
	for i, point := range points {
		if pts[i], err = sc.toDeclaredPoint(point); err != nil {
			return nil, err
		}
	}
	ev := mc.NewEvaluator(sc.scn, mcOpts)
	out := &BatchResult{
		Points:      make([]BatchPoint, 0, len(points)),
		ReuseCounts: map[string]int{},
	}
	results, err := ev.EvaluatePoints(ctx, pts)
	if err := ev.KeepPrefix(ctx, results, err); err != nil {
		return nil, err
	}
	out.Degraded = len(results) < len(pts)
	for i, res := range results {
		outcome := make(map[string]string, len(res.SiteOutcome))
		for site, kind := range res.SiteOutcome {
			outcome[site] = kind.String()
		}
		if res.Degraded {
			out.Degraded = true
		}
		out.Points = append(out.Points, BatchPoint{
			Point:           points[i],
			Summaries:       summarize(res),
			SiteOutcome:     outcome,
			Degraded:        res.Degraded,
			WorldsCompleted: res.WorldsCompleted,
		})
	}
	if mcOpts.Reuse != nil {
		for k, v := range mcOpts.Reuse.Counts() {
			out.ReuseCounts[k.String()] = v
		}
	}
	out.Elapsed = time.Since(start)
	return out, nil
}

// summarize reads the point's per-column aggregates into the public summary
// shape. On sketch-only results (WithSketchOnly) moments are exact and
// Median/P95 carry the t-digest tolerance.
func summarize(res *mc.PointResult) map[string]ColumnSummary {
	note := degradedNote(res)
	out := make(map[string]ColumnSummary, len(res.Sketches))
	for col, cs := range res.Sketches {
		out[col] = ColumnSummary{
			N:      cs.Count(),
			Mean:   cs.Expect(),
			StdDev: cs.StdDev(),
			Min:    cs.Moments.Min(),
			Max:    cs.Moments.Max(),
			Median: cs.Median(),
			P95:    cs.P95(),
			CI95:   cs.CI95(),
			Note:   note,
		}
	}
	return out
}

// degradedNote renders the per-column confidence caveat carried by a
// degraded result's summaries; "" for full results.
func degradedNote(res *mc.PointResult) string {
	if !res.Degraded {
		return ""
	}
	return fmt.Sprintf("degraded: estimated from %d of %d worlds (moments exact over the completed worlds; quantiles within the t-digest bound; confidence intervals wider than requested)", res.WorldsCompleted, res.Worlds)
}

// WorldShard is a half-open Monte Carlo world range [Lo, Hi) within a
// render's total world count — the unit of distributed evaluation.
type WorldShard struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// Index is the shard's position within the render's equal split
	// (0-based). Coordinators use it for worker affinity: shard i is routed
	// to worker i first, so a worker sees the same range at every point and
	// keeps its series chains and pooled evaluators warm.
	Index int `json:"index,omitempty"`
}

// ColumnSketch is the serializable mergeable aggregate of one output
// column over one world range: raw Welford moments plus a t-digest
// centroid list. A sketch-only shard answers sketches instead of partial
// sample vectors; merging sketches in shard order reproduces the whole
// range's moments exactly (up to float rounding) and its quantiles within
// the sketch tolerance.
type ColumnSketch = aggregate.ColumnSketch

// ShardResult is a partial render over one world shard at one point, the
// exact input of the coordinator's stitch: Rows, the number of output rows
// the shard produced (its world count for plain scenarios; joins can yield
// more, WHERE fewer), and either Columns, each numeric output column's
// partial sample vector in world order, or — sketch-only — Sketches, one
// mergeable aggregate per column. A result never carries both.
type ShardResult = mc.ShardOutput

// ShardProtocolVersion is the wire protocol version the shard fan-out
// speaks (fpserver's POST /shard/render): JSON requests carrying every
// point of a batch for one world range, fingerprint-only in steady state
// with a cache-miss re-send; JSON error answers; and every 200 answer —
// full vectors or sketch-only — as one binary frame carrying this version,
// one result per point and a trailing CRC-32C. It is the only version: a
// worker answers any other with 400 unsupported_protocol, and a
// coordinator rejects a frame of any other, so a mixed fleet fails those
// shards (which then evaluate locally) instead of mis-decoding them.
const ShardProtocolVersion = 4

// ShardRequest describes one world shard of a batch render for a
// ShardEvaluator: the parameter points, the render's total world count and
// seed base (a worker re-derives every sample from these), the assigned
// world range — the same at every point — and whether a sketch-only
// response suffices.
type ShardRequest struct {
	// Points are the parameter points being rendered, in batch order. An
	// evaluator answers one ShardResult per point, in this order.
	Points []map[string]any
	// Worlds is the render's TOTAL world count (not the shard's).
	Worlds int
	// Seed is the render's seed base (0 means the engine default).
	Seed uint64
	// Shard is the assigned world range.
	Shard WorldShard
	// SketchOnly asks for one sketch per column instead of the per-world
	// sample vectors — O(compression) instead of O(worlds) per column.
	SketchOnly bool
}

// ShardEvaluator evaluates one world shard at every point of a request,
// typically on another machine (fpserver's shard fan-out implements it over
// HTTP), and returns one result per point in point order. Implementations
// must be safe for concurrent calls; an error — or a result count other
// than len(req.Points), or a nil result — makes the caller re-evaluate the
// shard locally at every point.
type ShardEvaluator interface {
	EvaluateShard(ctx context.Context, req ShardRequest) ([]*ShardResult, error)
}

// EvaluateShard evaluates ONLY the worlds in shard (within [0, worlds))
// at one parameter point — the worker half of distributed rendering.
// Because world seeds derive per (site, world) from the seed base, the
// returned partial vectors are bit-identical to the corresponding rows of
// a full local evaluation; a coordinator concatenates shard results in
// world order to reproduce the unsharded render exactly. The shard is
// evaluated as one range, whose simulation already spreads across
// GOMAXPROCS cores; splitting it further made sketch-only answers slower
// and vector answers no faster. Fingerprint
// reuse is not consulted — partial
// vectors are not valid bases. The scenario's query must be shardable
// (non-grouped, no DISTINCT / ORDER BY / LIMIT); others are rejected.
// Zero worlds or seed take the options' values. With WithSketchOnly the
// result carries one sketch per column instead of the vectors. To serve
// many shards of one scenario, keep a ShardWorker instead: this builds a
// fresh one per call.
func (sc *Scenario) EvaluateShard(ctx context.Context, point map[string]any, worlds int, seed uint64, shard WorldShard, opts ...EvalOption) (*ShardResult, error) {
	cfg := newEvalConfig(opts)
	if worlds <= 0 {
		worlds = cfg.worlds
	}
	if seed == 0 {
		seed = cfg.seedBase
	}
	w, err := sc.newShardWorker(cfg)
	if err != nil {
		return nil, err
	}
	res, err := w.EvaluateShard(ctx, []map[string]any{point}, worlds, seed, shard, cfg.sketchOnly)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// Session is an online-mode exploration (paper §3.2): sliders plus a live
// graph with fingerprint reuse across adjustments. A Session is safe for
// concurrent use — slider state is mutex-guarded, and a render works from a
// snapshot of the positions taken when it starts, so SetParam from one
// goroutine never races a Render in another.
type Session struct {
	scn   *scenario.Scenario
	inner *online.Session
	reuse *mc.Reuse
}

// OpenSession starts the online mode. The scenario must declare a GRAPH
// statement.
func (sc *Scenario) OpenSession(opts ...EvalOption) (*Session, error) {
	return sc.openSession(newEvalConfig(opts))
}

func (sc *Scenario) openSession(cfg evalConfig) (*Session, error) {
	mcOpts, err := cfg.mcOptions()
	if err != nil {
		return nil, err
	}
	inner, err := online.NewSession(sc.scn, mcOpts)
	if err != nil {
		return nil, err
	}
	return &Session{scn: sc.scn, inner: inner, reuse: mcOpts.Reuse}, nil
}

// Axis returns the graph's X-axis parameter.
func (s *Session) Axis() string { return s.inner.Axis() }

// SetParam moves a slider to the given value (which must belong to the
// parameter's declared space). An undeclared name is reported as a
// *UnknownParamError. Safe to call concurrently with Render: an in-flight
// render keeps the positions it snapshotted at its start.
func (s *Session) SetParam(name string, val any) error {
	if s.scn.Space.Index(name) < 0 {
		return &UnknownParamError{Name: name}
	}
	v, err := toValue(val)
	if err != nil {
		return err
	}
	return s.inner.SetParam(name, v)
}

// SetParams moves several sliders at once, all or none: when any name is
// not a slider or any value is outside its parameter's declared space, it
// reports an error (an undeclared name as a *UnknownParamError) and no
// slider moves.
func (s *Session) SetParams(params map[string]any) error {
	moves := make(guide.Point, len(params))
	for _, name := range slices.Sorted(maps.Keys(params)) {
		if s.scn.Space.Index(name) < 0 {
			return &UnknownParamError{Name: name}
		}
		v, err := toValue(params[name])
		if err != nil {
			return err
		}
		moves[name] = v
	}
	return s.inner.SetParams(moves)
}

// Params returns the current slider positions: every declared parameter
// but the graph axis, whether or not SetParam moved it, as int64, float64,
// string or bool values.
func (s *Session) Params() map[string]any {
	return fromPoint(s.inner.Pins())
}

// RenderStats quantifies how much of a render was served by reuse. Its
// Degraded flag marks a frame cut by the deadline under WithAllowDegraded:
// a local render is cut to a shorter frame of full points; a render over
// WithShardEvaluator returns the per-point harvest, each point over the
// world ranges that completed, ending at the first point with none (a cut
// that leaves the first point no range is the deadline error).
type RenderStats = online.RenderStats

// Series is one rendered graph series: per-X Y values with CI95 bands.
type Series = online.Series

// Graph is one rendered frame of the online interface (Figure 3). It
// marshals to the JSON shape cmd/fpserver's render endpoint serves: the
// axis, X values, per-series Y vectors with CI95 bands, and reuse stats.
// Every frame is the caller's own: changing it touches no later frame.
type Graph = online.Graph

// Render evaluates the graph at the current slider positions as one batch
// of points. The context is checked before every X position and per
// world-batch inside, so a cancelled render — superseded by a newer slider
// adjustment, say — aborts within milliseconds.
func (s *Session) Render(ctx context.Context) (*Graph, error) {
	return s.inner.Render(ctx)
}

// Ascii renders the last graph as a Figure 3-style text chart, including
// each series' 95% confidence band (shaded with ':') and second-axis
// placement.
func (s *Session) Ascii(g *Graph, height int) (string, error) {
	return online.Chart(g, height)
}

// RenderProgressive renders the graph at doubling world counts from
// startWorlds up to the configured maximum, invoking frame with each
// refined graph — the paper's "live, progressively refined view". Return
// false from frame to stop early; the last frame is returned.
func (s *Session) RenderProgressive(ctx context.Context, startWorlds int, frame func(g *Graph, worlds int) bool) (*Graph, error) {
	return s.inner.RenderProgressive(ctx, startWorlds, frame)
}

// ExplorationMap renders the paper's parameter-space exploration grid over
// two slider parameters: '#' marks rendered positions, '.' unexplored ones
// (other sliders held at their current values).
func (s *Session) ExplorationMap(rowParam, colParam string) (string, error) {
	grid, err := s.inner.ExplorationMap(rowParam, colParam)
	if err != nil {
		return "", err
	}
	return grid.Render(), nil
}

// ExplorationMapJSON is ExplorationMap for machine consumers: the grid
// encoded as JSON with named cell kinds ("computed", "cached",
// "unexplored", ...) instead of ASCII glyphs. fpserver serves this from
// GET /sessions/{id}/map.
func (s *Session) ExplorationMapJSON(rowParam, colParam string) ([]byte, error) {
	grid, err := s.inner.ExplorationMap(rowParam, colParam)
	if err != nil {
		return nil, err
	}
	return json.Marshal(grid)
}

// TimeToFirstAccurateGuess measures how long the session needs to produce
// converged statistics at the current sliders (experiment E1).
func (s *Session) TimeToFirstAccurateGuess(ctx context.Context, eps float64, minWorlds int) (time.Duration, int, error) {
	return s.inner.TimeToFirstAccurateGuess(ctx, eps, minWorlds)
}

// ReuseCounts returns per-outcome point counts ("computed", "cached",
// "identity", "affine") since the session opened.
func (s *Session) ReuseCounts() map[string]int {
	out := map[string]int{}
	if s.reuse == nil {
		return out
	}
	for k, v := range s.reuse.Counts() {
		out[k.String()] = v
	}
	return out
}

// OptimizeRow is one grouped-parameter assignment's outcome.
type OptimizeRow struct {
	Group    map[string]any
	Feasible bool
	Metrics  map[string]float64
}

// OptimizeResult is the offline mode's outcome.
type OptimizeResult struct {
	GroupParams     []string
	FreeParams      []string
	Rows            []OptimizeRow
	Best            []OptimizeRow
	PointsEvaluated int
	GroupsTotal     int
	Elapsed         time.Duration
	ReuseCounts     map[string]int
}

// Progress reports offline-mode progress: done/total points plus the
// reuse outcome of the last point's sites (keyed by site ID).
type Progress func(done, total int, point map[string]any, siteOutcome map[string]string)

// Optimize runs the offline mode (paper §3.3): a full parameter-space
// sweep, the OPTIMIZE constraint per group, and the lexicographic FOR
// goals. The scenario must declare an OPTIMIZE statement. The context is
// checked before every point of the sweep (and per world-batch inside), so
// cancellation aborts in milliseconds, returning the context's error; reuse
// state accumulated before the abort is kept by the engine.
func (sc *Scenario) Optimize(ctx context.Context, progress Progress, opts ...EvalOption) (*OptimizeResult, error) {
	cfg := newEvalConfig(opts)
	mcOpts, err := cfg.mcOptions()
	if err != nil {
		return nil, err
	}
	runOpts := optimize.Options{MC: mcOpts}
	if progress != nil {
		runOpts.Progress = func(done, total int, pt guide.Point, res *mc.PointResult) {
			outcome := make(map[string]string, len(res.SiteOutcome))
			for site, kind := range res.SiteOutcome {
				outcome[site] = kind.String()
			}
			progress(done, total, fromPoint(pt), outcome)
		}
	}
	res, err := optimize.Run(ctx, sc.scn, runOpts)
	if err != nil {
		return nil, err
	}
	out := &OptimizeResult{
		GroupParams:     res.GroupParams,
		FreeParams:      res.FreeParams,
		PointsEvaluated: res.PointsEvaluated,
		GroupsTotal:     res.GroupsTotal,
		Elapsed:         res.Elapsed,
		ReuseCounts:     map[string]int{},
	}
	if mcOpts.Reuse != nil {
		for k, v := range mcOpts.Reuse.Counts() {
			out.ReuseCounts[k.String()] = v
		}
	}
	convert := func(rows []optimize.GroupRow) []OptimizeRow {
		converted := make([]OptimizeRow, len(rows))
		for i, r := range rows {
			converted[i] = OptimizeRow{
				Group:    fromPoint(r.Group),
				Feasible: r.Feasible,
				Metrics:  r.Metrics,
			}
		}
		return converted
	}
	out.Rows = convert(res.Rows)
	out.Best = convert(res.Best)
	return out, nil
}

// toValue converts a native Go value into the engine's value system.
func toValue(v any) (value.Value, error) {
	switch x := v.(type) {
	case nil:
		return value.Null, nil
	case int:
		return value.Int(int64(x)), nil
	case int32:
		return value.Int(int64(x)), nil
	case int64:
		return value.Int(x), nil
	case float32:
		return value.Float(float64(x)), nil
	case float64:
		return value.Float(x), nil
	case string:
		return value.Str(x), nil
	case bool:
		return value.Bool(x), nil
	default:
		return value.Null, fmt.Errorf("fuzzyprophet: unsupported value type %T", v)
	}
}

func toValues(vs []any) ([]value.Value, error) {
	out := make([]value.Value, len(vs))
	for i, v := range vs {
		var err error
		out[i], err = toValue(v)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// toDeclaredPoint converts a point map, reporting keys the scenario does
// not declare as *UnknownParamError.
func (sc *Scenario) toDeclaredPoint(m map[string]any) (guide.Point, error) {
	for k := range m {
		if sc.scn.Space.Index(k) < 0 {
			return nil, &UnknownParamError{Name: k}
		}
	}
	return toPoint(m)
}

func toPoint(m map[string]any) (guide.Point, error) {
	pt := make(guide.Point, len(m))
	for k, v := range m {
		val, err := toValue(v)
		if err != nil {
			return nil, fmt.Errorf("fuzzyprophet: parameter %s: %w", k, err)
		}
		pt[k] = val
	}
	return pt, nil
}

// fromValue converts an engine value to a native Go value (int64, float64,
// string, bool or nil).
func fromValue(v value.Value) any {
	switch v.Kind() {
	case value.KindInt:
		n, _ := v.AsInt()
		return n
	case value.KindFloat:
		f, _ := v.AsFloat()
		return f
	case value.KindString:
		return v.AsString()
	case value.KindBool:
		b, _ := v.AsBool()
		return b
	default:
		return nil
	}
}

func fromPoint(pt guide.Point) map[string]any {
	out := make(map[string]any, len(pt))
	for k, v := range pt {
		out[k] = fromValue(v)
	}
	return out
}
