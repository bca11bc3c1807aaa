package mc

// The range pipeline: every point evaluation — single-node or fleet — is
// "run world ranges, stitch them in world order, aggregate once". In
// process a point is exactly one range, [0, Worlds) or a worker's shard;
// the only split is the fan-out of a Shardable plan to Options.Runner. The
// Monte Carlo loop is embarrassingly parallel across possible worlds, and
// world seeds derive per (site, world), so any executor, in-process or on
// another machine, reproduces exactly the samples the coordinator would
// have computed for a range [lo, hi). One range slices the coordinator's
// site vectors (or, on a shard worker, simulates its own from seeds),
// materializes a range-local worlds table, executes the scenario's
// compiled plan over it and returns its partial output columns in world
// order — or, sketch-only, one mergeable sketch per column (Welford
// moments + t-digest) instead. Concatenating the partial columns in range
// order is bit-identical whatever the split, because the compiled plan is
// row-wise over the worlds-major relation (sqlengine.Plan.Shardable); a
// plan that is not is always evaluated locally. A remote fan-out sends
// each range out once per batch of points, not once per point: the range
// is the same window of worlds at every point. A worker answers its range
// in this same shape; only the coordinator stitches and aggregates.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"fuzzyprophet/internal/aggregate"
	"fuzzyprophet/internal/guide"
	"fuzzyprophet/internal/obs"
	"fuzzyprophet/internal/scenario"
	"fuzzyprophet/internal/sqlengine"
)

// WorldRange is a half-open shard [Lo, Hi) of a render's world range.
type WorldRange struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// Len returns the number of worlds in the range.
func (r WorldRange) Len() int { return r.Hi - r.Lo }

// SplitWorlds splits [0, n) into at most k contiguous, near-equal,
// non-empty ranges covering it in order.
func SplitWorlds(n, k int) []WorldRange {
	if n <= 0 {
		return nil
	}
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	out := make([]WorldRange, 0, k)
	chunk := n / k
	rem := n % k
	lo := 0
	for i := 0; i < k; i++ {
		hi := lo + chunk
		if i < rem {
			hi++
		}
		out = append(out, WorldRange{Lo: lo, Hi: hi})
		lo = hi
	}
	return out
}

// ShardTask describes one shard evaluation: the parameter points, the
// render's total world count and seed base (any worker re-derives the exact
// per-world samples from these), and the assigned world range, which every
// point shares.
type ShardTask struct {
	// Points are evaluated in order over Range, so a worker's series chains
	// stay warm from one point to the next.
	Points   []guide.Point
	Worlds   int
	SeedBase uint64
	Range    WorldRange
	// Index is the shard's position within the render's equal split. A
	// remote runner uses it for worker affinity: shard i goes to worker i
	// first, so every batch of a sweep sends a worker the same range and
	// its series chains and pooled evaluator stay warm.
	Index int
	// SketchOnly asks the shard for merged per-column sketches WITHOUT the
	// per-world sample vectors — O(compression) response payload instead of
	// O(worlds).
	SketchOnly bool
}

// ShardOutput is one range's partial render, exactly what the coordinator's
// stitch reads: per-column sample vectors for the rows its world range
// produced (in world order; joins may yield more rows than worlds, WHERE
// fewer) or — sketch-only — one mergeable sketch per column, never both.
// A local range, a worker's answer and a wire frame all carry this one
// shape.
type ShardOutput struct {
	// Rows is the number of output rows the range produced.
	Rows int `json:"rows"`
	// Columns maps each numeric output column to its partial sample vector
	// (nil when sketch-only).
	Columns map[string][]float64 `json:"columns"`
	// Sketches maps each numeric output column to its mergeable aggregate
	// (nil unless sketch-only).
	Sketches map[string]aggregate.ColumnSketch `json:"sketches,omitempty"`
}

// ShardRunner evaluates one shard at every point of the task, typically on
// another machine (the HTTP fan-out in internal/server), and returns one
// output per point in point order. Runners must be safe for concurrent
// calls. An error return — or any number of outputs but len(task.Points),
// or a nil one — makes the coordinator re-evaluate the shard locally at
// every point.
type ShardRunner func(ctx context.Context, task ShardTask) ([]*ShardOutput, error)

// shardEnv is an evaluator's range-execution environment: its own catalog
// and engine, an owned worlds table whose column headers are repointed per
// evaluation (SetInts/SetFloats) — so the compiled plan's zero-allocation
// execution is not surrounded by per-point table garbage — and per-site
// simulation buffers for self-simulated ranges.
type shardEnv struct {
	catalog *sqlengine.Catalog
	engine  *sqlengine.Engine
	columns []*sqlengine.Column
	worlds  *sqlengine.ColTable
	siteBuf [][]float64
}

// rangeEnv returns the evaluator's range environment, built on first use.
// An evaluator runs one range at a time, so one environment serves them all.
func (ev *Evaluator) rangeEnv() (*shardEnv, error) {
	if ev.env != nil {
		return ev.env, nil
	}
	cat := sqlengine.NewCatalog()
	for _, t := range ev.scn.StaticTables {
		cat.Put(t)
	}
	columns := make([]*sqlengine.Column, len(ev.worldCols))
	columns[0] = sqlengine.IntColumn(nil)
	for i := 1; i < len(columns); i++ {
		columns[i] = sqlengine.FloatColumn(nil)
	}
	worlds, err := sqlengine.NewColTable(scenario.WorldsTable, ev.worldCols, columns)
	if err != nil {
		return nil, err
	}
	ev.env = &shardEnv{
		catalog: cat,
		engine:  sqlengine.New(cat),
		columns: columns,
		worlds:  worlds,
		siteBuf: make([][]float64, len(ev.scn.Sites)),
	}
	return ev.env, nil
}

// siteRange returns env's buffer for site si sized for m worlds.
func (env *shardEnv) siteRange(si, m int) []float64 {
	if cap(env.siteBuf[si]) < m {
		env.siteBuf[si] = make([]float64, m)
	}
	env.siteBuf[si] = env.siteBuf[si][:m]
	return env.siteBuf[si]
}

// runShardLocal is the range executor: it evaluates world range r at pt in
// process, recording its stage spans under sp. ord holds the range's world
// ordinals (len r.Len(), absolute values). When siteSamples is non-nil it
// holds full [0, Worlds) per-site vectors (obtained by the coordinator,
// reuse-aware) and the range just slices them; otherwise the range
// simulates its own worlds of each site call from the per-(site, world)
// seeds — the shard-worker half, and a coordinator's fallback for a failed
// remote range.
func (ev *Evaluator) runShardLocal(ctx context.Context, sp *obs.Span, pt guide.Point, r WorldRange, siteSamples [][]float64, calls []siteCall, ord []int64) (*ShardOutput, error) {
	env, err := ev.rangeEnv()
	if err != nil {
		return nil, err
	}

	lo, hi := r.Lo, r.Hi
	if siteSamples != nil {
		for si := range siteSamples {
			env.columns[si+1].SetFloats(siteSamples[si][lo:hi])
		}
	} else if err := ev.simulateInputs(ctx, sp, env, r, calls); err != nil {
		return nil, err
	}

	// Materialize the possible-worlds table — directly as columns: the world
	// ordinal is an int vector and each site's sample vector is a float
	// column as-is, with no row transpose and no boxing.
	msp := sp.Child("worlds-materialize")
	env.columns[0].SetInts(ord)
	env.catalog.PutColumns(env.worlds)
	msp.End()

	// Execute the compiled plan: after warm-up its operators write into pooled
	// buffers that are recycled on Release below.
	xsp := sp.Child("plan-execute")
	var counters *sqlengine.ExecCounters
	if xsp != nil {
		counters = &sqlengine.ExecCounters{}
	}
	out, err := ev.scn.Plan().ExecCounted(env.engine, pt, counters)
	if err != nil {
		return nil, fmt.Errorf("mc: executing scenario plan for worlds [%d,%d): %w", lo, hi, err)
	}
	if out == nil {
		return nil, fmt.Errorf("mc: scenario plan produced no result for worlds [%d,%d)", lo, hi)
	}
	defer out.Release()
	recordExecCounters(xsp, counters)
	xsp.End()

	// Collect output samples as column slices — the Result Aggregator
	// consumes float vectors, so the engine's typed columns convert without
	// boxing a single row. Purely categorical (string) columns are carried
	// in the SQL result but have no distribution to aggregate, so they are
	// skipped here; NULLs or mixed types in a numeric column are errors. A
	// sketch-only range folds each vector into its sketch and drops it.
	result := &ShardOutput{Rows: out.NumRows()}
	sketchOnly := ev.opts.SketchOnly
	if sketchOnly {
		result.Sketches = make(map[string]aggregate.ColumnSketch, len(ev.scn.OutputCols))
	} else {
		result.Columns = make(map[string][]float64, len(ev.scn.OutputCols))
	}
	for _, colName := range ev.scn.OutputCols {
		col, err := out.Column(colName)
		if err != nil {
			return nil, err
		}
		if col.Len() > 0 && col.AllStrings() {
			continue
		}
		fs, err := col.Float64s()
		if err != nil {
			return nil, fmt.Errorf("mc: output column %q: %w", colName, err)
		}
		if sketchOnly {
			result.Sketches[colName] = sketchOf(fs)
		} else {
			result.Columns[colName] = fs
		}
	}
	return result, nil
}

// simulateInputs fills env's worlds table with range r's site vectors,
// simulated from the per-(site, world) seeds.
func (ev *Evaluator) simulateInputs(ctx context.Context, sp *obs.Span, env *shardEnv, r WorldRange, calls []siteCall) error {
	ssp := sp.Child("simulate")
	defer ssp.End()
	lo, hi := r.Lo, r.Hi
	for si, call := range calls {
		vec := env.siteRange(si, hi-lo)
		if err := ev.simulateRange(ctx, call, lo, hi, vec); err != nil {
			return err
		}
		env.columns[si+1].SetFloats(vec)
	}
	ssp.SetInt("worlds", int64(hi-lo))
	ssp.SetInt("sites", int64(len(ev.scn.Sites)))
	return nil
}

// runRemote sends each range to Options.Runner once, carrying every point,
// and returns the outputs indexed [range][point] with one error per range.
// Each range gets a goroutine and a "shard" span under sp, carried via ctx
// so a worker's grafted subtree lands under it. A range whose runner call
// fails falls back to local evaluation of all its points; a range that
// still fails keeps the outputs of the points it completed before the
// error, a prefix of pts.
func (ev *Evaluator) runRemote(ctx context.Context, sp *obs.Span, pts []guide.Point, ranges []WorldRange) ([][]*ShardOutput, []error) {
	outs := make([][]*ShardOutput, len(ranges))
	errs := make([]error, len(ranges))
	var wg sync.WaitGroup
	for i, r := range ranges {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer recoverToError(&errs[i], "shard")
			ssp := sp.Child("shard")
			defer ssp.End()
			ssp.SetInt("lo", int64(r.Lo))
			ssp.SetInt("hi", int64(r.Hi))
			ssp.SetStr("exec", "remote")
			task := ShardTask{Points: pts, Worlds: ev.opts.Worlds, SeedBase: ev.opts.SeedBase, Range: r, Index: i, SketchOnly: ev.opts.SketchOnly}
			got, err := ev.opts.Runner(obs.With(ctx, ssp), task)
			if err == nil && len(got) != len(pts) {
				err = fmt.Errorf("mc: shard runner answered %d outputs for %d points", len(got), len(pts))
			} else if err == nil && slices.Contains(got, nil) {
				err = errors.New("mc: shard runner answered a nil output")
			}
			switch {
			case err == nil:
				outs[i] = got
			case ctx.Err() != nil:
				errs[i] = err
			default:
				// Per-range local fallback: a failed worker costs latency, not
				// the render.
				ssp.SetStr("exec", "local-fallback")
				outs[i], errs[i] = ev.fallback(obs.With(ctx, ssp), pts, r)
			}
		}()
	}
	wg.Wait()
	return outs, errs
}

// fallback evaluates range r at every point in process, exactly as a shard
// worker would: a fresh evaluator self-simulates the range point after
// point with series chains of its own (the evaluator's chains belong to the
// coordinating goroutine).
func (ev *Evaluator) fallback(ctx context.Context, pts []guide.Point, r WorldRange) ([]*ShardOutput, error) {
	o := ev.opts
	o.Runner, o.Reuse = nil, nil
	return NewEvaluator(ev.scn, o).EvaluateShard(ctx, pts, r)
}

// sketchOf folds one range's sample vector into its serializable sketch.
func sketchOf(fs []float64) aggregate.ColumnSketch {
	cs := aggregate.NewColumnStats()
	cs.AddAll(fs)
	return cs.Sketch()
}

// stitchShards reconciles the ranges' outputs in range (= world) order.
// Ranges that carry sample vectors are concatenated per column (a single
// range's vectors are returned as they are); ranges that carry none —
// sketch-only — have their sketches merged per column instead, O(ranges ·
// compression) total, and a range's sketch Count plays the role of its row
// count. A column that SOME ranges skipped as categorical (all-string)
// while others carried it empty — an empty range cannot see the column's
// type — is dropped; a range carrying numeric rows for a column another
// range deemed categorical is a genuine type mix and errors (a one-range
// conversion would error on it too).
func stitchShards(outs []*ShardOutput) (map[string][]float64, map[string]*aggregate.ColumnStats, error) {
	vectors := outs[0].Columns != nil
	if vectors && len(outs) == 1 {
		return outs[0].Columns, nil, nil
	}
	total := make(map[string]int64)
	inAll := make(map[string]int)
	for _, out := range outs {
		if vectors {
			for col, fs := range out.Columns {
				total[col] += int64(len(fs))
				inAll[col]++
			}
		} else {
			for col, sk := range out.Sketches {
				total[col] += sk.Count
				inAll[col]++
			}
		}
	}
	var columns map[string][]float64
	var sketches map[string]*aggregate.ColumnStats
	if vectors {
		columns = make(map[string][]float64, len(inAll))
	} else {
		sketches = make(map[string]*aggregate.ColumnStats, len(inAll))
	}
	for col, n := range inAll {
		if n < len(outs) {
			if total[col] > 0 {
				return nil, nil, fmt.Errorf("mc: column %q is categorical in some shards but numeric in others", col)
			}
			continue // categorical: every range with rows skipped it
		}
		if vectors {
			full := make([]float64, 0, total[col])
			for _, out := range outs {
				full = append(full, out.Columns[col]...)
			}
			columns[col] = full
			continue
		}
		parts := make([]aggregate.ColumnSketch, len(outs))
		for i, out := range outs {
			parts[i] = out.Sketches[col]
		}
		sketches[col] = aggregate.MergeSketches(parts)
	}
	return columns, sketches, nil
}

// reduce is the pipeline's last step, the paper's Result Aggregator: stitch
// the ranges in world order and reduce each column to one ColumnStats, once,
// inside the sketch-merge span. With sample vectors that is a world-major
// fold of each stitched column the caller reads (so the aggregate never
// depends on the split); without — sketch-only — it is the range-ordered
// merge stitchShards already produced. The fold pays for Welford moments
// only: a column's t-digest is built from its vector — owned here, as
// Column.Float64s copies and stitching concatenates — on its first
// quantile, sketch or merge read, outside this span.
//
// payloads, non-nil only on the local path with a reuse engine, holds each
// site's payload generation (Evaluator.payloads). A read column that passes
// through a site whose vector is a stored payload takes the moments that
// payload's store entry holds for its world count, folded by an earlier
// point, and folds nothing; when the entry holds none, the column is folded
// and its moments stored there. The span's moments_reused attribute counts
// the columns answered from stored moments.
func (ev *Evaluator) reduce(sp *obs.Span, outs []*ShardOutput, payloads []uint64) (map[string][]float64, map[string]*aggregate.ColumnStats, error) {
	msp := sp.Child("sketch-merge")
	defer msp.End()
	columns, sketches, err := stitchShards(outs)
	if err != nil || columns == nil {
		return nil, sketches, err
	}
	sketches = make(map[string]*aggregate.ColumnStats, len(columns))
	reused := 0
	for col, fs := range columns {
		if ev.reads != nil && !ev.reads[col] {
			continue
		}
		si, pass := ev.passes[col]
		var gen uint64
		if pass && payloads != nil {
			gen = payloads[si]
		}
		if gen != 0 {
			if m, ok := ev.opts.Reuse.store.Moments(gen, len(fs)); ok {
				sketches[col] = aggregate.FoldedColumnStats(m, fs)
				reused++
				continue
			}
		}
		cs := aggregate.NewColumnStats()
		cs.AddAll(fs)
		sketches[col] = cs
		if gen != 0 {
			ev.opts.Reuse.store.SetMoments(ev.scn.Sites[si].ID, ev.keys[si], gen, len(fs), cs.Moments)
		}
	}
	if payloads != nil {
		msp.SetInt("moments_reused", int64(reused))
	}
	return columns, sketches, nil
}

// harvestDegraded turns a deadline-cut fan-out into a partial result: each
// completed range is reduced to its sketches (its own when it carries
// them, else a fold of its vectors), they are merged in range order and res
// is flagged Degraded with the completed world count. Returns false —
// leaving res untouched — when nothing completed, when any range failed
// with a panic (deterministic bugs must surface, not degrade), or when the
// completed sketches cannot be merged. Errors racing the deadline
// (cancelled transports, cut simulations) are subsumed by the degraded
// result.
func (ev *Evaluator) harvestDegraded(res *PointResult, ranges []WorldRange, outs []*ShardOutput, errs []error, psp *obs.Span) bool {
	var done []*ShardOutput
	completed := 0
	for i, out := range outs {
		var perr *PanicError
		if errs[i] != nil && errors.As(errs[i], &perr) {
			return false
		}
		if out == nil || errs[i] != nil {
			continue
		}
		sketches := out.Sketches
		if len(sketches) == 0 {
			sketches = make(map[string]aggregate.ColumnSketch, len(out.Columns))
			for col, fs := range out.Columns {
				sketches[col] = sketchOf(fs)
			}
		}
		done = append(done, &ShardOutput{Sketches: sketches})
		completed += ranges[i].Len()
	}
	if completed == 0 {
		return false
	}
	msp := psp.Child("sketch-merge")
	_, sketches, err := stitchShards(done)
	msp.End()
	if err != nil || len(sketches) == 0 {
		return false
	}
	psp.SetInt("degraded", 1)
	psp.SetInt("worlds_completed", int64(completed))
	res.Sketches = sketches
	res.Degraded = true
	res.WorldsCompleted = completed
	return true
}

// EvaluateShard evaluates ONLY the worlds in shard (within [0,
// Options.Worlds)) at each parameter point, in order — the worker half of
// distributed rendering: an HTTP worker receives (scenario, points, seed
// base, range), self-simulates the range from per-(site, world) seeds and
// returns, per point, the input of the coordinator's stitch: the partial
// columns, or sketch-only one sketch per column. Per point it is the same
// pipeline as EvaluatePoints over one sub-range, without the aggregation,
// and the evaluator's series chains carry from one point to the next. The
// context is checked before every point; on error the outputs of the
// points completed before it are returned with it. Fingerprint reuse is
// not consulted (partial vectors are not valid bases). Requires a
// shardable scenario plan.
//
// Like EvaluatePoints, EvaluateShard is not safe for concurrent calls on
// one Evaluator.
func (ev *Evaluator) EvaluateShard(ctx context.Context, pts []guide.Point, shard WorldRange) ([]*ShardOutput, error) {
	if shard.Lo < 0 || shard.Hi > ev.opts.Worlds || shard.Lo >= shard.Hi {
		return nil, fmt.Errorf("mc: shard [%d,%d) outside world range [0,%d)", shard.Lo, shard.Hi, ev.opts.Worlds)
	}
	if !ev.scn.Plan().Shardable() {
		return nil, fmt.Errorf("mc: scenario plan is not shardable (grouped, DISTINCT, ORDER BY, LIMIT or INTO query)")
	}
	// A shard-local ordinal vector: a worker evaluator serves one request,
	// so filling the shared [0, Hi) vector would cost O(total worlds) per
	// request; this costs O(shard length).
	ord := make([]int64, shard.Len())
	for i := range ord {
		ord[i] = int64(shard.Lo + i)
	}
	sp := obs.SpanFrom(ctx)
	calls := make([]siteCall, len(ev.scn.Sites))
	outs := make([]*ShardOutput, 0, len(pts))
	for _, pt := range pts {
		if err := ctx.Err(); err != nil {
			return outs, err
		}
		for si := range calls {
			call, err := ev.callAt(si, pt)
			if err != nil {
				return outs, err
			}
			ev.useChain(&call, shard.Lo, shard.Hi)
			calls[si] = call
		}
		out, err := ev.runShardLocal(ctx, sp, pt, shard, nil, calls, ord)
		if err != nil {
			return outs, err
		}
		outs = append(outs, out)
	}
	return outs, nil
}
