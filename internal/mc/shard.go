package mc

// Sharded world evaluation: the Monte Carlo loop is embarrassingly parallel
// across possible worlds, and world seeds are derived per (site, world) —
// so any worker, in-process or on another machine, reproduces exactly the
// samples the coordinator would have computed for a world range [lo, hi).
// A coordinator splits a point's range [0, Worlds) into contiguous shards,
// each shard simulates its sites (or slices coordinator-computed vectors),
// executes the scenario's compiled plan over a shard-local worlds table,
// and returns partial output columns in world order plus mergeable
// per-column sketches (Welford moments + t-digest). The coordinator
// stitches the partial columns back in shard order — bit-identical to the
// single-range evaluation, because the compiled plan is row-wise over the
// worlds-major relation (sqlengine.Plan.Shardable) — and merges the
// sketches for consumers that want aggregates without a second pass.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"

	"fuzzyprophet/internal/aggregate"
	"fuzzyprophet/internal/guide"
	"fuzzyprophet/internal/obs"
	"fuzzyprophet/internal/scenario"
	"fuzzyprophet/internal/sqlengine"
	"fuzzyprophet/internal/storage"
	"fuzzyprophet/internal/value"
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

// SplitWorldsWeighted splits [0, n) into contiguous non-empty ranges in
// order, one per weight, sized proportionally to the weights — the
// worker-aware analog of SplitWorlds: a coordinator sizes each worker's
// shard by its observed throughput or advertised capacity. Invalid input
// (no weights, a non-finite, NaN or non-positive weight, or a zero sum)
// falls back to the equal split. When n < len(weights) only the first n
// ranges exist (each of one world), exactly like SplitWorlds.
func SplitWorldsWeighted(n int, weights []float64) []WorldRange {
	if n <= 0 {
		return nil
	}
	var sum float64
	for _, w := range weights {
		if math.IsNaN(w) || math.IsInf(w, 0) || w <= 0 {
			return SplitWorlds(n, len(weights))
		}
		sum += w
	}
	if len(weights) == 0 || sum <= 0 || math.IsInf(sum, 0) {
		return SplitWorlds(n, len(weights))
	}
	k := len(weights)
	if k > n {
		k = n
	}
	out := make([]WorldRange, 0, k)
	lo := 0
	var cum float64
	for i := 0; i < k; i++ {
		cum += weights[i]
		hi := int(math.Round(float64(n) * cum / sum))
		// Every range must be non-empty and the remaining ranges must each
		// get at least one world, no matter how skewed the weights are.
		if min := lo + 1; hi < min {
			hi = min
		}
		if max := n - (k - 1 - i); hi > max {
			hi = max
		}
		out = append(out, WorldRange{Lo: lo, Hi: hi})
		lo = hi
	}
	out[k-1].Hi = n
	return out
}

// ShardTask describes one shard evaluation: the parameter point, the
// render's total world count and seed base (any worker re-derives the exact
// per-world samples from these), and the assigned world range.
type ShardTask struct {
	Point    guide.Point
	Worlds   int
	SeedBase uint64
	Range    WorldRange
	// Index is the shard's position within the render's split. A remote
	// runner uses it for worker affinity: shard i was sized by worker i's
	// weight, so routing it there first keeps weighted splits meaningful.
	Index int
	// SketchOnly asks the shard for merged per-column sketches WITHOUT the
	// per-world sample vectors — O(compression) response payload instead of
	// O(worlds).
	SketchOnly bool
}

// ShardOutput is one shard's partial render: per-column sample vectors for
// the rows its world range produced (in world order; joins may yield more
// rows than worlds, WHERE fewer), plus a mergeable sketch per column.
type ShardOutput struct {
	Columns  map[string][]float64
	Sketches map[string]aggregate.ColumnSketch
}

// ShardRunner evaluates one shard, typically on another machine (the HTTP
// fan-out in internal/server). Runners must be safe for concurrent calls.
// An error return makes the coordinator re-evaluate the shard locally.
type ShardRunner func(ctx context.Context, task ShardTask) (*ShardOutput, error)

// shardEnv is one pooled shard-execution environment: its own catalog and
// engine (the shard's worlds table must not race the coordinator's), an
// owned worlds table over the shard's world sub-range, and per-site
// simulation buffers for self-simulated shards.
type shardEnv struct {
	catalog *sqlengine.Catalog
	engine  *sqlengine.Engine
	columns []*sqlengine.Column
	worlds  *sqlengine.ColTable
	siteBuf [][]float64
}

func (ev *Evaluator) newShardEnv() (*shardEnv, error) {
	cat := sqlengine.NewCatalog()
	for _, t := range ev.scn.StaticTables {
		cat.Put(t)
	}
	columns, worlds, err := ownedWorldsTable(ev.worldCols)
	if err != nil {
		return nil, err
	}
	return &shardEnv{
		catalog: cat,
		engine:  sqlengine.New(cat),
		columns: columns,
		worlds:  worlds,
		siteBuf: make([][]float64, len(ev.scn.Sites)),
	}, nil
}

func (ev *Evaluator) acquireEnv() (*shardEnv, error) {
	ev.envMu.Lock()
	if n := len(ev.envs); n > 0 {
		env := ev.envs[n-1]
		ev.envs = ev.envs[:n-1]
		ev.envMu.Unlock()
		return env, nil
	}
	ev.envMu.Unlock()
	return ev.newShardEnv()
}

func (ev *Evaluator) releaseEnv(env *shardEnv) {
	ev.envMu.Lock()
	ev.envs = append(ev.envs, env)
	ev.envMu.Unlock()
}

// siteRange returns env's buffer for site si sized for m worlds.
func (env *shardEnv) siteRange(si, m int) []float64 {
	if cap(env.siteBuf[si]) < m {
		env.siteBuf[si] = make([]float64, m)
	}
	env.siteBuf[si] = env.siteBuf[si][:m]
	return env.siteBuf[si]
}

// simulateRange invokes one site's VG-Function for worlds [lo, hi) of the
// task, writing into dst (len hi-lo). The context is checked once per
// world-batch, exactly like the single-range simulate loop.
func (ev *Evaluator) simulateRange(ctx context.Context, site *scenario.Site, args []value.Value, task ShardTask, dst []float64) error {
	lo, hi := task.Range.Lo, task.Range.Hi
	for i := lo; i < hi; i++ {
		if (i-lo)%batchWorlds == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		v, err := ev.scn.Registry.Invoke(site.Name, WorldSeed(task.SeedBase, site.ID, i), args)
		if err != nil {
			return fmt.Errorf("mc: %s world %d: %w", site.ID, i, err)
		}
		f, err := v.AsFloat()
		if err != nil {
			return fmt.Errorf("mc: %s world %d: %w", site.ID, i, err)
		}
		dst[i-lo] = f
	}
	return nil
}

// shardInputKey encodes everything a self-simulated shard input vector
// depends on beyond the site: the argument key, the seed base and the
// world range.
func shardInputKey(argKey string, seedBase uint64, lo, hi int) string {
	return argKey + "|" + strconv.FormatUint(seedBase, 10) + "|" +
		strconv.Itoa(lo) + ":" + strconv.Itoa(hi)
}

// runShardLocal evaluates one shard in process. ord holds the shard's
// world ordinals (len task.Range.Len(), absolute values). When siteSamples
// is non-nil it holds full [0, Worlds) per-site vectors (computed by the
// coordinator, reuse-aware) and the shard just slices its range; otherwise
// the shard simulates its own range from the task's seeds.
func (ev *Evaluator) runShardLocal(ctx context.Context, task ShardTask, siteSamples [][]float64, ord []int64) (*ShardOutput, error) {
	env, err := ev.acquireEnv()
	if err != nil {
		return nil, err
	}
	defer ev.releaseEnv(env)

	sp := obs.SpanFrom(ctx)
	ssp := sp.Child("simulate")
	var inputsBefore storage.Stats
	if ssp != nil && ev.opts.ShardInputs != nil {
		inputsBefore = ev.opts.ShardInputs.Stats()
	}
	var cacheHits int64
	lo, hi := task.Range.Lo, task.Range.Hi
	for si := range ev.scn.Sites {
		var vec []float64
		if siteSamples != nil {
			vec = siteSamples[si][lo:hi]
		} else {
			site := &ev.scn.Sites[si]
			args, key, err := site.ArgValues(task.Point)
			if err != nil {
				return nil, err
			}
			// Worker-mode shard-input cache: a worker re-rendering the same
			// point serves the range's samples from the store (RAM or spill
			// tier) instead of re-invoking the VG-Function per world. The
			// key pins everything the samples depend on — args, seed base
			// and world range — so a hit is bit-identical by determinism.
			var cacheKey string
			if ev.opts.ShardInputs != nil {
				cacheKey = shardInputKey(key, task.SeedBase, lo, hi)
				if cached, ok := ev.opts.ShardInputs.Get(site.ID, cacheKey); ok && len(cached) == hi-lo {
					cacheHits++
					env.columns[si+1].SetFloats(cached)
					continue
				}
			}
			vec = env.siteRange(si, hi-lo)
			if err := ev.simulateRange(ctx, site, args, task, vec); err != nil {
				return nil, err
			}
			if ev.opts.ShardInputs != nil {
				ev.opts.ShardInputs.Put(site.ID, cacheKey, vec)
			}
		}
		env.columns[si+1].SetFloats(vec)
	}
	if ssp != nil {
		ssp.SetInt("worlds", int64(hi-lo))
		ssp.SetInt("sites", int64(len(ev.scn.Sites)))
		if siteSamples != nil {
			ssp.SetInt("sliced", 1) // coordinator-computed vectors, no simulation
		}
		if cacheHits > 0 {
			ssp.SetInt("shard_input_cache_hits", cacheHits)
		}
		if ev.opts.ShardInputs != nil {
			noteSpillDeltas(ssp, inputsBefore, ev.opts.ShardInputs.Stats())
		}
	}
	ssp.End()

	msp := sp.Child("worlds-materialize")
	env.columns[0].SetInts(ord)
	env.catalog.PutColumns(env.worlds)
	msp.End()

	xsp := sp.Child("plan-execute")
	var counters *sqlengine.ExecCounters
	if xsp != nil {
		counters = &sqlengine.ExecCounters{}
	}
	out, err := ev.scn.Plan().ExecCounted(env.engine, task.Point, counters)
	if err != nil {
		return nil, fmt.Errorf("mc: executing scenario plan for shard [%d,%d): %w", lo, hi, err)
	}
	if out == nil {
		return nil, fmt.Errorf("mc: scenario plan produced no result for shard [%d,%d)", lo, hi)
	}
	defer out.Release()
	recordExecCounters(xsp, counters)
	xsp.End()

	result := &ShardOutput{
		Sketches: make(map[string]aggregate.ColumnSketch, len(ev.scn.OutputCols)),
	}
	if !task.SketchOnly {
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
		if !task.SketchOnly {
			result.Columns[colName] = fs
		}
		cs := aggregate.NewColumnStats()
		cs.AddAll(fs)
		result.Sketches[colName] = cs.Sketch()
	}
	return result, nil
}

// stitchShards concatenates the shards' partial columns in shard (= world)
// order and merges their sketches. A column that SOME shards skipped as
// categorical (all-string) while others carried it empty — an empty shard
// cannot see the column's type — is dropped, matching the single-range
// path's skip of categorical columns; a shard carrying numeric rows for a
// column another shard deemed categorical is a genuine type mix and errors
// (the single-range conversion would error on it too).
func stitchShards(outs []*ShardOutput) (map[string][]float64, map[string]*aggregate.ColumnStats, error) {
	names := make(map[string]bool)
	total := make(map[string]int)
	inAll := make(map[string]int)
	for _, out := range outs {
		for col, fs := range out.Columns {
			names[col] = true
			total[col] += len(fs)
			inAll[col]++
		}
	}
	columns := make(map[string][]float64, len(names))
	sketches := make(map[string]*aggregate.ColumnStats, len(names))
	for col := range names {
		if inAll[col] < len(outs) {
			if total[col] > 0 {
				return nil, nil, fmt.Errorf("mc: column %q is categorical in some shards but numeric in others", col)
			}
			continue // categorical: every shard with rows skipped it
		}
		full := make([]float64, 0, total[col])
		parts := make([]aggregate.ColumnSketch, 0, len(outs))
		for _, out := range outs {
			full = append(full, out.Columns[col]...)
			if sk, ok := out.Sketches[col]; ok {
				parts = append(parts, sk)
			}
		}
		columns[col] = full
		if merged := aggregate.MergeSketches(parts); merged != nil {
			sketches[col] = merged
		}
	}
	return columns, sketches, nil
}

// stitchSketches is stitchShards for sketch-only shards: no sample vectors
// came back, so column presence and the categorical-mix check run over the
// sketch maps (a shard's sketch Count plays the role of its row count) and
// the merge is pure sketch merging — O(shards · compression) total.
func stitchSketches(outs []*ShardOutput) (map[string]*aggregate.ColumnStats, error) {
	names := make(map[string]bool)
	total := make(map[string]int64)
	inAll := make(map[string]int)
	for _, out := range outs {
		for col, sk := range out.Sketches {
			names[col] = true
			total[col] += sk.Count
			inAll[col]++
		}
	}
	sketches := make(map[string]*aggregate.ColumnStats, len(names))
	for col := range names {
		if inAll[col] < len(outs) {
			if total[col] > 0 {
				return nil, fmt.Errorf("mc: column %q is categorical in some shards but numeric in others", col)
			}
			continue // categorical: every shard with rows skipped it
		}
		parts := make([]aggregate.ColumnSketch, 0, len(outs))
		for _, out := range outs {
			parts = append(parts, out.Sketches[col])
		}
		if merged := aggregate.MergeSketches(parts); merged != nil {
			sketches[col] = merged
		}
	}
	return sketches, nil
}

// evaluateSharded is EvaluatePoint's sharded path: split, fan out, stitch.
func (ev *Evaluator) evaluateSharded(ctx context.Context, pt guide.Point) (*PointResult, error) {
	n := ev.opts.Worlds
	psp := obs.SpanFrom(ctx).Child("point")
	defer psp.End()
	psp.SetInt("worlds", int64(n))
	res := &PointResult{
		Point:       pt,
		Worlds:      n,
		SiteOutcome: make(map[string]ReuseKind, len(ev.scn.Sites)),
	}
	sql, err := ev.scn.GenerateSQL(pt)
	if err != nil {
		return nil, err
	}
	res.SQL = sql

	// Site samples: with a remote runner the workers re-derive them from
	// seeds (reuse bypassed); locally with reuse enabled the coordinator
	// computes full reuse-aware vectors once and shards slice them; locally
	// without reuse each shard simulates its own range in parallel.
	remote := ev.opts.Runner != nil
	var siteSamples [][]float64
	if !remote && ev.opts.Reuse != nil {
		ssp := psp.Child("simulate")
		var spillBefore storage.Stats
		if ssp != nil {
			spillBefore = ev.opts.Reuse.store.Stats()
		}
		siteSamples = make([][]float64, len(ev.scn.Sites))
		for si := range ev.scn.Sites {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			site := &ev.scn.Sites[si]
			samples, kind, err := ev.samplesFor(ctx, site, pt)
			if err != nil {
				return nil, err
			}
			siteSamples[si] = samples
			res.SiteOutcome[site.ID] = kind
		}
		if ssp != nil {
			ssp.SetInt("sites", int64(len(ev.scn.Sites)))
			recordOutcomes(ssp, res.SiteOutcome)
			noteSpillDeltas(ssp, spillBefore, ev.opts.Reuse.store.Stats())
		}
		ssp.End()
	} else {
		for si := range ev.scn.Sites {
			res.SiteOutcome[ev.scn.Sites[si].ID] = Computed
		}
	}

	// Worker-aware sizing: when the caller supplies per-worker weights
	// (latency EWMAs, advertised capacities), shards are sized
	// proportionally so a slow worker gets a small range instead of
	// stalling the stitch. Weights only make sense for remote fan-out —
	// local shards all run on the same cores.
	ranges := SplitWorlds(n, ev.opts.Shards)
	if remote && ev.opts.ShardWeights != nil {
		if ws := ev.opts.ShardWeights(); len(ws) > 0 {
			ranges = SplitWorldsWeighted(n, ws)
		}
	}
	sketchOnly := ev.opts.SketchOnly
	ev.ordRange(0, n) // pre-grow so shard goroutines only read
	fsp := psp.Child("shard-fanout")
	fsp.SetInt("shards", int64(len(ranges)))
	if sketchOnly {
		fsp.SetInt("sketch_only", 1)
	}
	outs := make([]*ShardOutput, len(ranges))
	errs := make([]error, len(ranges))
	var wg sync.WaitGroup
	for i := range ranges {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// A panic in a shard (bad VG, kernel bug) fails this shard only;
			// wg.Done is registered first so it runs after the recovery.
			defer recoverToError(&errs[i], "shard")
			task := ShardTask{
				Point:      pt,
				Worlds:     n,
				SeedBase:   ev.opts.SeedBase,
				Range:      ranges[i],
				Index:      i,
				SketchOnly: sketchOnly,
			}
			// Each shard gets its own child span, carried via ctx so the
			// local path's stage spans (and a remote worker's grafted
			// subtree) land under it.
			ssp := fsp.Child("shard")
			defer ssp.End()
			ssp.SetInt("lo", int64(task.Range.Lo))
			ssp.SetInt("hi", int64(task.Range.Hi))
			sctx := obs.With(ctx, ssp)
			if remote {
				ssp.SetStr("exec", "remote")
				out, err := ev.opts.Runner(sctx, task)
				if err == nil {
					outs[i] = out
					return
				}
				if ctx.Err() != nil {
					errs[i] = err
					return
				}
				// Per-shard local fallback: a failed worker costs latency,
				// not the render.
				ssp.SetStr("exec", "local-fallback")
			}
			outs[i], errs[i] = ev.runShardLocal(sctx, task, siteSamples, ev.ord[task.Range.Lo:task.Range.Hi])
		}(i)
	}
	wg.Wait()
	fsp.End()
	for _, err := range errs {
		if err != nil {
			// Deadline mid-fan-out: with AllowDegraded, the shards that DID
			// complete are still a statistically honest (if wider-CI) answer
			// — merge their sketches instead of failing the render.
			if ev.opts.AllowDegraded && ctx.Err() != nil && ev.harvestDegraded(res, ranges, outs, errs, psp) {
				return res, nil
			}
			return nil, err
		}
	}
	msp := psp.Child("sketch-merge")
	if sketchOnly {
		sketches, err := stitchSketches(outs)
		msp.End()
		if err != nil {
			return nil, err
		}
		if len(sketches) > 0 {
			res.Sketches = sketches
		}
		return res, nil
	}
	columns, sketches, err := stitchShards(outs)
	msp.End()
	if err != nil {
		return nil, err
	}
	res.Columns = columns
	if len(sketches) > 0 {
		res.Sketches = sketches
	}
	return res, nil
}

// harvestDegraded turns a deadline-cut fan-out into a partial result: the
// sketches of every completed shard are merged and res is flagged
// Degraded with the completed world count. Returns false — leaving res
// untouched — when nothing completed, when any shard failed with a panic
// (deterministic bugs must surface, not degrade), or when the completed
// sketches cannot be merged. Errors racing the deadline (cancelled
// transports, cut simulations) are subsumed by the degraded result.
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
		done = append(done, out)
		completed += ranges[i].Len()
	}
	if completed == 0 {
		return false
	}
	msp := psp.Child("sketch-merge")
	sketches, err := stitchSketches(done)
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
// Options.Worlds)) at one parameter point — the worker half of distributed
// rendering: an HTTP worker receives (scenario, point, seed base, range),
// self-simulates the range from per-(site, world) seeds and returns the
// partial columns and sketches for the coordinator to stitch. The shard is
// itself split across Options.Shards in-process sub-shards, so a worker
// saturates its own cores. Fingerprint reuse is not consulted (partial
// vectors are not valid bases). Requires a shardable scenario plan.
//
// Like EvaluatePoint, EvaluateShard is not safe for concurrent calls on
// one Evaluator.
func (ev *Evaluator) EvaluateShard(ctx context.Context, pt guide.Point, shard WorldRange) (*ShardOutput, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if shard.Lo < 0 || shard.Hi > ev.opts.Worlds || shard.Lo >= shard.Hi {
		return nil, fmt.Errorf("mc: shard [%d,%d) outside world range [0,%d)", shard.Lo, shard.Hi, ev.opts.Worlds)
	}
	if !ev.scn.Plan().Shardable() {
		return nil, fmt.Errorf("mc: scenario plan is not shardable (grouped, DISTINCT, ORDER BY, LIMIT or INTO query)")
	}
	m := shard.Len()
	sub := SplitWorlds(m, ev.opts.Shards)
	// A shard-local ordinal vector: a worker evaluator serves one request,
	// so filling the shared [0, Hi) vector would cost O(total worlds) per
	// request; this costs O(shard length).
	ord := make([]int64, m)
	for i := range ord {
		ord[i] = int64(shard.Lo + i)
	}
	sp := obs.SpanFrom(ctx)
	outs := make([]*ShardOutput, len(sub))
	errs := make([]error, len(sub))
	var wg sync.WaitGroup
	for i := range sub {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer recoverToError(&errs[i], "shard")
			task := ShardTask{
				Point:      pt,
				Worlds:     ev.opts.Worlds,
				SeedBase:   ev.opts.SeedBase,
				Range:      WorldRange{Lo: shard.Lo + sub[i].Lo, Hi: shard.Lo + sub[i].Hi},
				Index:      i,
				SketchOnly: ev.opts.SketchOnly,
			}
			ssp := sp.Child("shard")
			defer ssp.End()
			ssp.SetInt("lo", int64(task.Range.Lo))
			ssp.SetInt("hi", int64(task.Range.Hi))
			outs[i], errs[i] = ev.runShardLocal(obs.With(ctx, ssp), task, nil, ord[sub[i].Lo:sub[i].Hi])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	msp := sp.Child("sketch-merge")
	if ev.opts.SketchOnly {
		sketches, err := stitchSketches(outs)
		msp.End()
		if err != nil {
			return nil, err
		}
		out := &ShardOutput{Sketches: make(map[string]aggregate.ColumnSketch, len(sketches))}
		for col, cs := range sketches {
			out.Sketches[col] = cs.Sketch()
		}
		return out, nil
	}
	columns, sketches, err := stitchShards(outs)
	msp.End()
	if err != nil {
		return nil, err
	}
	out := &ShardOutput{Columns: columns, Sketches: make(map[string]aggregate.ColumnSketch, len(sketches))}
	for col, cs := range sketches {
		out.Sketches[col] = cs.Sketch()
	}
	return out, nil
}
