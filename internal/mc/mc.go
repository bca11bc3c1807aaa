// Package mc implements the Monte Carlo executor: it turns one parameter
// point of a compiled scenario into per-world output samples by invoking
// VG-Functions (or re-mapping stored basis distributions via fingerprints),
// materializing the possible-worlds table, and running the Query
// Generator's pure TSQL through the relational engine.
//
// This is the inner loop of the paper's architecture cycle: Guide →
// instances → Query Generator → TSQL → engine → Storage Manager → Result
// Aggregator.
package mc

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"

	"fuzzyprophet/internal/aggregate"
	"fuzzyprophet/internal/core"
	"fuzzyprophet/internal/guide"
	"fuzzyprophet/internal/obs"
	"fuzzyprophet/internal/rng"
	"fuzzyprophet/internal/scenario"
	"fuzzyprophet/internal/storage"
)

// Options configures an Evaluator.
type Options struct {
	// Worlds is the number of Monte Carlo worlds per point (default 1000).
	Worlds int
	// SeedBase seeds the fixed world sequence (default 20110612, the
	// paper's demo week). Changing it changes every sample.
	SeedBase uint64
	// Workers bounds VG-invocation parallelism (default: GOMAXPROCS).
	Workers int
	// Shards splits each point's world range [0, Worlds) into this many
	// contiguous ranges evaluated concurrently, each producing partial
	// column vectors that the coordinator stitches back in world order
	// (default 1: one range, evaluated inline). Because world seeds derive
	// per (site, world), the stitched result is bit-identical whatever the
	// range count. A plan that is not Shardable always evaluates as one
	// local range.
	Shards int
	// Runner, when non-nil, evaluates the ranges of a Shardable plan
	// remotely (the HTTP fan-out in internal/server), one call per range
	// per EvaluatePoints batch. A range whose runner call fails is
	// re-evaluated locally by the coordinator, so a dying worker degrades
	// throughput, not correctness. Remote ranges bypass fingerprint reuse
	// (workers re-derive samples from seeds).
	Runner ShardRunner
	// Reuse enables fingerprint-based computation reuse when non-nil.
	Reuse *Reuse
	// SketchOnly makes every range return ONLY its per-column sketch
	// (Welford moments + t-digest) — PointResult.Columns stays nil and
	// PointResult.Sketches is the range-ordered merge — so remote shard
	// responses are O(compression) instead of O(worlds). Moments stay
	// exact; quantiles carry the t-digest error bound.
	SketchOnly bool
	// AllowDegraded permits an evaluation cut short by its context
	// deadline to return a partial result instead of the context error:
	// the sketches of every range that completed before the cut are merged
	// and the result carries Degraded=true with WorldsCompleted < Worlds.
	// Columns stays nil on a degraded result (missing world ranges cannot
	// be stitched), so consumers read the sketches. Degradation granularity
	// is one shard; if no shard completed, the context error is returned as
	// usual, and a shard that failed with a recovered panic always fails
	// the point (deterministic bugs must surface, not degrade).
	AllowDegraded bool
}

// DefaultSeedBase is the seed base used when Options.SeedBase is zero:
// the paper's demo week.
const DefaultSeedBase = 20110612

// WithDefaults returns a copy of o with zero fields replaced by defaults —
// the effective options an Evaluator built from o will run with.
func (o Options) WithDefaults() Options {
	if o.Worlds <= 0 {
		o.Worlds = 1000
	}
	if o.SeedBase == 0 {
		o.SeedBase = DefaultSeedBase
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Shards <= 0 {
		o.Shards = 1
	}
	return o
}

// ReuseKind records how a site's sample vector was obtained.
type ReuseKind uint8

// Reuse kinds.
const (
	// Computed: fresh VG invocations, one per world.
	Computed ReuseKind = iota
	// CachedExact: the exact (site, args) pair was already stored.
	CachedExact
	// Identity: re-mapped from a basis with an identity mapping.
	Identity
	// Affine: re-mapped from a basis through an affine mapping.
	Affine
)

func (k ReuseKind) String() string {
	switch k {
	case Computed:
		return "computed"
	case CachedExact:
		return "cached"
	case Identity:
		return "identity"
	case Affine:
		return "affine"
	default:
		return fmt.Sprintf("ReuseKind(%d)", uint8(k))
	}
}

// Reuse is the fingerprint-reuse state shared across point evaluations: the
// fingerprint index, the basis-distribution store and the point memo (see
// memo.go). Safe for concurrent use.
type Reuse struct {
	cfg   core.Config
	index *core.Index
	store *storage.Store
	memo  *pointMemo

	mu        sync.Mutex
	counts    map[ReuseKind]int
	seedBase  uint64
	seedBound bool
}

// NewReuse returns a reuse engine with the given fingerprint configuration
// and basis-store options. With storeOpts.SpillDir set, the basis store
// spills evicted bases to memory-mapped column files and faults them back
// on demand, so the working set may exceed the RAM budget without falling
// back to re-simulation.
func NewReuse(cfg core.Config, storeOpts storage.Options) (*Reuse, error) {
	ix, err := core.NewIndex(cfg)
	if err != nil {
		return nil, err
	}
	store, err := storage.Open(storeOpts)
	if err != nil {
		return nil, fmt.Errorf("mc: opening basis store: %w", err)
	}
	return &Reuse{
		cfg:    cfg,
		index:  ix,
		store:  store,
		memo:   newPointMemo(),
		counts: make(map[ReuseKind]int),
	}, nil
}

// Close releases the basis store's spill tier (mapped files, manifest).
// Sample slices previously returned by evaluations may reference mapped
// memory, so Close only after in-flight renders finish. A no-op for
// RAM-only stores.
func (r *Reuse) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.store.Close()
}

// Index exposes the fingerprint index (read access for visualization).
func (r *Reuse) Index() *core.Index { return r.index }

// StoreStats returns the basis store's counters.
func (r *Reuse) StoreStats() storage.Stats { return r.store.Stats() }

// Counts returns a snapshot of per-kind outcome counts.
func (r *Reuse) Counts() map[ReuseKind]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[ReuseKind]int, len(r.counts))
	for k, v := range r.counts {
		out[k] = v
	}
	return out
}

func (r *Reuse) record(k ReuseKind) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counts[k]++
}

// install records a freshly computed basis and its fingerprint as one
// atomic step under the engine lock — the same lock Save holds while
// capturing the store and index, so a snapshot can never contain an index
// entry whose basis it lacks (the store write always lands in the same
// critical section as its index entry).
func (r *Reuse) install(site, key string, samples []float64, fp core.Fingerprint) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.store.Put(site, key, samples)
	r.index.Put(site, key, fp)
	r.counts[Computed]++
}

// Evaluator evaluates scenario points.
type Evaluator struct {
	scn       *scenario.Scenario
	opts      Options
	worldCols []string

	// reads names the output columns EvaluatePoint aggregates (see Reads);
	// nil means every numeric column. readsKey is its canonical form, part
	// of the point memo's key.
	reads    map[string]bool
	readsKey string

	// scnFingerprint is the scenario's content fingerprint, computed the
	// first time the point memo needs it.
	scnFingerprint string

	// ord holds world ordinals 0..cap-1, filled to a high-water mark and
	// shared read-only by every range env.
	ord []int64

	// chains holds one series chain per site, used by the sites whose
	// VG-Function is a vg.SeriesFunction (see chain.go).
	chains []seriesChain

	// envs pools range-execution environments (own catalog + engine +
	// worlds table over a world range).
	envMu sync.Mutex
	envs  []*shardEnv
}

// worldsSchema returns the worlds-table column names: the world ordinal
// followed by one column per VG call site.
func worldsSchema(scn *scenario.Scenario) []string {
	cols := make([]string, 0, len(scn.Sites)+1)
	cols = append(cols, scenario.WorldColumn)
	for _, s := range scn.Sites {
		cols = append(cols, s.Column)
	}
	return cols
}

// NewEvaluator returns an evaluator for the compiled scenario.
func NewEvaluator(scn *scenario.Scenario, opts Options) *Evaluator {
	return &Evaluator{
		scn:       scn,
		opts:      opts.WithDefaults(),
		worldCols: worldsSchema(scn),
		chains:    make([]seriesChain, len(scn.Sites)),
	}
}

// Reads declares which output columns the caller will read from
// PointResult.Sketches, and that it reads only their moments (EXPECT,
// EXPECT_STDDEV, PROB, CI95, Count): a session render names its GRAPH
// columns, Optimize its constraint columns, a prefetch none. EvaluatePoint
// then folds only those columns, and a local evaluation with a reuse engine
// consults the point memo: a point whose sites are all exact store hits,
// still the entries a memoised result was computed from, is answered with
// moments-only ColumnStats (quantile reads fail) and no Columns.
// An evaluator on which Reads was never called aggregates every numeric
// column and never consults the memo. Sketch-only and degraded results
// cover every column regardless: they merge per-range sketches, which a
// remote worker folds without knowing the reader.
func (ev *Evaluator) Reads(cols ...string) {
	ev.reads = make(map[string]bool, len(cols))
	for _, c := range cols {
		ev.reads[c] = true
	}
	ev.readsKey = readsKey(ev.reads)
}

// ordRange returns world ordinals [lo, hi) as a slice of the shared,
// fill-once ordinal vector, growing it to hi when needed. Callers only read
// the slice; growth happens on the coordinating goroutine before range
// goroutines start.
func (ev *Evaluator) ordRange(lo, hi int) []int64 {
	if hi > len(ev.ord) {
		grown := make([]int64, hi)
		copy(grown, ev.ord)
		for i := len(ev.ord); i < hi; i++ {
			grown[i] = int64(i)
		}
		ev.ord = grown
	}
	return ev.ord[lo:hi]
}

// Reconfigure retargets the evaluator at a new (worlds, seed base, sketch
// mode) triple without discarding its warmed state — the compiled plan,
// pooled range envs and grown ordinal vector all carry over, and so do the
// series chains while the seed base stays the same. This is what
// makes a per-fingerprint evaluator freelist worthwhile on a shard worker:
// consecutive requests for the same scenario differ only in these render
// parameters, and rebuilding an Evaluator per request repays the whole
// warm-up every shard. Zero worlds/seedBase take the defaults. Not safe to
// call concurrently with an evaluation.
func (ev *Evaluator) Reconfigure(worlds int, seedBase uint64, sketchOnly bool) {
	o := ev.opts
	o.Worlds = worlds
	o.SeedBase = seedBase
	o.SketchOnly = sketchOnly
	ev.opts = o.WithDefaults()
}

// WorldSeed returns the fixed seed for (site, world i) under the given
// seed base; a site's fingerprint probes are its first k world seeds.
// Exported so harnesses (fpbench, bench/layerprobe) can simulate the same
// worlds as the executor.
func WorldSeed(seedBase uint64, siteID string, i int) uint64 {
	return worldSeed(worldSeeds(seedBase, siteID), i)
}

// worldSeeds keys a site's per-world seed family under seedBase, once per
// range rather than once per world.
func worldSeeds(seedBase uint64, siteID string) rng.Keyed {
	return rng.Key(seedBase, "world."+siteID)
}

// worldSeed is world i's seed in a site's seed family.
func worldSeed(worlds rng.Keyed, i int) uint64 {
	src := worlds.At(uint64(i))
	return src.Uint64()
}

// PointResult holds one point's per-world outputs and their aggregates.
type PointResult struct {
	// Point is the evaluated parameter point.
	Point guide.Point
	// Columns maps each numeric output column to its per-world sample
	// vector; nil on sketch-only and degraded results and when the point
	// memo answered (see Evaluator.Reads). Read-only: a
	// column's Sketches entry may still build its t-digest from the same
	// vector on its first quantile read (aggregate.ColumnStats.AddAll
	// retains its argument).
	Columns map[string][]float64
	// Worlds is the number of worlds evaluated.
	Worlds int
	// SiteOutcome records, per site ID, how its samples were obtained.
	SiteOutcome map[string]ReuseKind
	// Sketches holds the point's per-column aggregates (Welford moments +
	// t-digest) — the one place consumers read EXPECT / STDDEV / quantiles
	// / CI95 from. With sample vectors it is the world-major fold of each
	// stitched column the evaluator's caller reads (Evaluator.Reads); on
	// sketch-only and degraded results it is the range-ordered merge of
	// the ranges' sketches, over every column; from the point memo it is
	// moments-only copies of the memoised fold. A fold's t-digest is built
	// on its first quantile, sketch or merge read, so reading one entry
	// from several goroutines at once needs the caller's own lock.
	Sketches map[string]*aggregate.ColumnStats
	// Degraded marks a partial result: the context deadline expired before
	// the full world budget and Options.AllowDegraded harvested the ranges
	// completed so far. Columns is nil and Sketches cover only
	// WorldsCompleted of the requested Worlds.
	Degraded bool
	// WorldsCompleted is the number of worlds whose samples contributed to
	// a degraded result's sketches; zero when Degraded is false.
	WorldsCompleted int
}

// batchWorlds is how many worlds are simulated between context checks: a
// cancelled context stops a simulation within one batch, not at the end of
// the full world loop.
const batchWorlds = 64

// PanicError reports a panic recovered inside the executor's simulation or
// shard goroutines. A panicking VG-Function (or a bug in a plan kernel)
// fails its own evaluation with this error instead of crashing the process
// — the point of recovery is that one bad render must not take down the
// in-flight renders sharing the server.
type PanicError struct {
	// Stage names where the panic was caught ("simulate", "shard").
	Stage string
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("mc: panic in %s: %v", e.Stage, e.Value)
}

// recoverToError converts a panic in scope into a *PanicError assigned to
// *dst (unless *dst is already set). Use as: defer recoverToError(&err, "stage").
func recoverToError(dst *error, stage string) {
	if r := recover(); r != nil {
		perr := &PanicError{Stage: stage, Value: r, Stack: debug.Stack()}
		if *dst == nil {
			*dst = perr
		}
	}
}

// EvaluatePoint runs the one point pipeline: obtain the site vectors, split
// [0, Worlds) into contiguous ranges, run every range through the range
// executor (runShardLocal, or Options.Runner), stitch the ranges in world
// order and aggregate once. There is exactly one range — evaluated inline
// on the calling goroutine, with no fan-out — unless Options.Shards > 1 or
// a Runner is set, and always when the plan is not Shardable; because
// world seeds derive per (site, world) the stitched columns are
// bit-identical whatever the split. It is EvaluatePoints at one point,
// without the batch's slices on the local path.
//
// The context is checked between sites and once per world-batch during
// simulation, so cancellation aborts a long evaluation promptly; the first
// error returned after cancellation wraps ctx.Err().
//
// An Evaluator is not safe for concurrent EvaluatePoint calls; share the
// Reuse engine and give each goroutine its own Evaluator instead.
func (ev *Evaluator) EvaluatePoint(ctx context.Context, pt guide.Point) (*PointResult, error) {
	if !ev.remote() {
		return ev.evaluateLocal(ctx, pt)
	}
	res, err := ev.evaluateRemote(ctx, []guide.Point{pt})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// remote reports whether points evaluate through Options.Runner: a plan
// that is not Shardable is always one local range.
func (ev *Evaluator) remote() bool {
	return ev.opts.Runner != nil && ev.scn.Plan().Shardable()
}

// EvaluatePoints runs the point pipeline at every point, returning the
// results in point order. Local evaluation takes the points one after
// another — site vectors, reuse and the point memo exactly as EvaluatePoint
// alone would — checking the context before each. With a Runner and a
// Shardable plan, each range goes out ONCE, carrying every point, so a
// batch costs one runner call per range rather than one per point per
// range; the points are then stitched and aggregated one by one. On error
// EvaluatePoints returns the results of the points before the failing one
// with it.
//
// Like EvaluatePoint, EvaluatePoints is not safe for concurrent calls on
// one Evaluator.
func (ev *Evaluator) EvaluatePoints(ctx context.Context, pts []guide.Point) ([]*PointResult, error) {
	if len(pts) > 0 && ev.remote() {
		return ev.evaluateRemote(ctx, pts)
	}
	out := make([]*PointResult, 0, len(pts))
	for _, pt := range pts {
		res, err := ev.evaluateLocal(ctx, pt)
		if err != nil {
			return out, err
		}
		out = append(out, res)
	}
	return out, nil
}

// pointSpan opens a point's span under parent: it groups the point's stage
// spans under the render's active span; with no active span every obs call
// on it is a nil no-op.
func (ev *Evaluator) pointSpan(parent *obs.Span) *obs.Span {
	psp := parent.Child("point")
	psp.SetInt("worlds", int64(ev.opts.Worlds))
	return psp
}

// evaluateLocal evaluates one point in process.
func (ev *Evaluator) evaluateLocal(ctx context.Context, pt guide.Point) (*PointResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := ev.opts.Worlds
	psp := ev.pointSpan(obs.SpanFrom(ctx))
	defer psp.End()
	res := &PointResult{
		Point:       pt,
		Worlds:      n,
		SiteOutcome: make(map[string]ReuseKind, len(ev.scn.Sites)),
	}

	// 1. Site vectors: full [0, Worlds) vectors obtained once (fresh, or
	// re-mapped through the reuse engine) that every range slices. The
	// ranges execute the scenario's compiled plan with the point's bindings
	// — what the Query Generator's TSQL (Scenario.GenerateSQL) would
	// compute, at zero parse cost.
	siteSamples, gens, err := ev.siteVectors(ctx, psp, pt, res.SiteOutcome)
	if err != nil {
		return nil, err
	}

	// The point memo: every site an exact hit on the entries a memoised
	// result was computed from answers the point without running it.
	memo := ev.memoizable(res.SiteOutcome)
	var key memoKey
	if memo {
		key = ev.memoKeyFor(pt)
		if sketches, ok := ev.opts.Reuse.memo.get(key, gens); ok {
			psp.SetInt("memo_hit", 1)
			res.Sketches = sketches
			return res, nil
		}
	}

	// 2. Ranges: the equal split, as remote ranges use, so range i of every
	// point is the same window of worlds.
	ranges := []WorldRange{{Lo: 0, Hi: n}}
	if ev.scn.Plan().Shardable() {
		ranges = SplitWorlds(n, ev.opts.Shards)
	}

	// 3. Run the ranges: materialize, execute the plan, collect columns.
	sp := psp
	if len(ranges) > 1 {
		sp = ev.fanoutSpan(psp, len(ranges))
	}
	outs, errs := ev.runRanges(ctx, sp, pt, ranges, siteSamples, ev.ordRange(0, n))
	if len(ranges) > 1 {
		sp.End()
	}

	// 4. Stitch in world order and aggregate once (the Result Aggregator).
	if err := ev.finish(ctx, psp, res, ranges, outs, errs); err != nil {
		return nil, err
	}
	if memo && !res.Degraded {
		ev.opts.Reuse.memo.missed(key, gens, res.Sketches)
		ev.opts.Reuse.boundMemo()
	}
	return res, nil
}

// evaluateRemote evaluates a batch through Options.Runner: the equal split
// of [0, Worlds), so range i of every batch is the same window of worlds —
// what keeps a worker's series chains and pooled evaluator warm across a
// sweep — with each range sent out once for all the points. Remote ranges
// re-derive their site vectors from per-(site, world) seeds, so every site
// is Computed and reuse is bypassed. A one-point batch keeps a single point's
// span shape: the fan-out under the point's span. A larger batch's fan-out
// sits beside its point spans.
func (ev *Evaluator) evaluateRemote(ctx context.Context, pts []guide.Point) ([]*PointResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := ev.opts.Worlds
	ranges := SplitWorlds(n, ev.opts.Shards)
	parent, one := obs.SpanFrom(ctx), (*obs.Span)(nil)
	if len(pts) == 1 {
		one = ev.pointSpan(parent)
		defer one.End()
		parent = one
	}
	fsp := ev.fanoutSpan(parent, len(ranges))
	if len(pts) > 1 {
		fsp.SetInt("points", int64(len(pts)))
	}
	outs, errs := ev.runRemote(ctx, fsp, pts, ranges)
	fsp.End()

	results := make([]*PointResult, 0, len(pts))
	pointOuts := make([]*ShardOutput, len(ranges))
	pointErrs := make([]error, len(ranges))
	for p, pt := range pts {
		res := &PointResult{
			Point:       pt,
			Worlds:      n,
			SiteOutcome: make(map[string]ReuseKind, len(ev.scn.Sites)),
		}
		for si := range ev.scn.Sites {
			res.SiteOutcome[ev.scn.Sites[si].ID] = Computed
		}
		// A failed range completed a prefix of the points.
		for i := range ranges {
			pointOuts[i], pointErrs[i] = nil, errs[i]
			if p < len(outs[i]) {
				pointOuts[i], pointErrs[i] = outs[i][p], nil
			}
		}
		psp := one
		if psp == nil {
			psp = ev.pointSpan(parent)
		}
		err := ev.finish(ctx, psp, res, ranges, pointOuts, pointErrs)
		if one == nil {
			psp.End()
		}
		if err != nil {
			return results, err
		}
		results = append(results, res)
	}
	return results, nil
}

// fanoutSpan opens the span a fan-out over the given number of ranges runs
// under.
func (ev *Evaluator) fanoutSpan(parent *obs.Span, ranges int) *obs.Span {
	sp := parent.Child("shard-fanout")
	sp.SetInt("shards", int64(ranges))
	if ev.opts.SketchOnly {
		sp.SetInt("sketch_only", 1)
	}
	return sp
}

// finish completes one point's result from its ranges' outputs and errors:
// stitch in world order and aggregate once (the Result Aggregator). A range
// error fails the point — unless the deadline cut the fan-out and
// Options.AllowDegraded lets the ranges that DID complete answer: a
// statistically honest (if wider-CI) result from their merged sketches.
func (ev *Evaluator) finish(ctx context.Context, psp *obs.Span, res *PointResult, ranges []WorldRange, outs []*ShardOutput, errs []error) error {
	for _, err := range errs {
		if err != nil {
			if ev.opts.AllowDegraded && ctx.Err() != nil && ev.harvestDegraded(res, ranges, outs, errs, psp) {
				return nil
			}
			return err
		}
	}
	var err error
	res.Columns, res.Sketches, err = ev.reduce(psp, outs)
	return err
}

// siteVectors obtains every site's full [0, Worlds) sample vector at pt
// (fresh or re-mapped), recording each site's reuse outcome and, for an
// exact store hit, the store generation of the entry it read. With a reuse
// engine it ends by bounding the point memo, after the last store change
// the evaluation makes.
func (ev *Evaluator) siteVectors(ctx context.Context, psp *obs.Span, pt guide.Point, outcome map[string]ReuseKind) ([][]float64, []uint64, error) {
	ssp := psp.Child("simulate")
	defer ssp.End()
	r := ev.opts.Reuse
	// Spill work during the stage becomes spill spans; a store without a
	// spill tier has none, and its counters are not read.
	var spillBefore storage.SpillCounters
	spilling := false
	if ssp != nil && r != nil {
		spillBefore, spilling = r.store.SpillCounters()
	}
	siteSamples := make([][]float64, len(ev.scn.Sites))
	gens := make([]uint64, len(ev.scn.Sites))
	for si := range ev.scn.Sites {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		samples, kind, gen, err := ev.samplesFor(ctx, si, pt)
		if err != nil {
			return nil, nil, err
		}
		siteSamples[si], gens[si] = samples, gen
		outcome[ev.scn.Sites[si].ID] = kind
	}
	if r != nil {
		r.boundMemo()
	}
	if ssp != nil {
		ssp.SetInt("sites", int64(len(ev.scn.Sites)))
		recordOutcomes(ssp, outcome)
		if spilling {
			spillAfter, _ := r.store.SpillCounters()
			noteSpillDeltas(ssp, spillBefore, spillAfter)
		}
	}
	return siteSamples, gens, nil
}

// probeCount returns k, the number of world-seed probes used as the
// fingerprint, clamped so probing never exceeds half the full simulation
// and never falls below 2 (samplesFor fingerprints only points with at
// least 2 worlds).
func (ev *Evaluator) probeCount() int {
	k := ev.opts.Reuse.cfg.Length
	if max := ev.opts.Worlds / 2; k > max {
		k = max
	}
	if k < 2 {
		k = 2
	}
	return k
}

// samplesFor produces the per-world sample vector for site si at one
// point, consulting the reuse engine when configured. For an exact store
// hit it also returns the entry's generation (0 otherwise).
//
// The fingerprint of a point is its output under the first k *world* seeds
// — a prefix of the very sample vector the point would produce. This keeps
// the paper's "fixed sequence of random inputs" definition while making
// probes double as validation on real output worlds: a computed point's
// fingerprint costs nothing extra, and a re-mapped vector is exact at every
// probed index (the probes overwrite the mapped values).
func (ev *Evaluator) samplesFor(ctx context.Context, si int, pt guide.Point) ([]float64, ReuseKind, uint64, error) {
	call, err := ev.callAt(si, pt)
	if err != nil {
		return nil, Computed, 0, err
	}
	site, key := &ev.scn.Sites[si], call.key
	r := ev.opts.Reuse
	if r == nil {
		samples, err := ev.simulate(ctx, call, 0, ev.opts.Worlds, nil)
		return samples, Computed, 0, err
	}
	if err := r.bindSeedBase(ev.opts.SeedBase); err != nil {
		return nil, Computed, 0, err
	}

	// Exact cache hit: this (site, args) pair was already evaluated.
	if cached, gen, ok := r.store.Lookup(site.ID, key); ok {
		if len(cached) >= ev.opts.Worlds {
			r.record(CachedExact)
			return cached[:ev.opts.Worlds], CachedExact, gen, nil
		}
		// Stored run was smaller than requested; fall through to recompute.
	}

	// Too few worlds to fingerprint: simulate them, but install no basis.
	if ev.opts.Worlds < 2 {
		samples, err := ev.simulate(ctx, call, 0, ev.opts.Worlds, nil)
		if err != nil {
			return nil, Computed, 0, err
		}
		r.record(Computed)
		return samples, Computed, 0, nil
	}

	// Probe the target at the first k world seeds (k VG invocations).
	k := ev.probeCount()
	probes, err := ev.simulate(ctx, call, 0, k, nil)
	if err != nil {
		return nil, Computed, 0, fmt.Errorf("mc: fingerprinting %s%s: %w", site.ID, key, err)
	}
	fp := core.Fingerprint{Outputs: probes}
	for i, v := range probes {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, Computed, 0, fmt.Errorf("mc: fingerprinting %s%s: non-finite probe %g at world %d", site.ID, key, v, i)
		}
	}

	// Try to re-map from an explored basis.
	if match, ok := r.index.FindMapping(site.ID, fp); ok {
		if basis, ok := r.store.Get(site.ID, match.BasisKey); ok && len(basis) >= ev.opts.Worlds {
			mapped, err := match.Mapping.Apply(basis[:ev.opts.Worlds])
			if err == nil {
				// The probed worlds are exact; splice them in.
				copy(mapped[:k], probes)
				// Cache the mapped vector for exact re-hits, but do NOT
				// register it as a basis: all mappings stay single-hop from
				// computed points, so affine error cannot compound.
				r.store.Put(site.ID, key, mapped)
				kind := Identity
				if match.Mapping.Kind == core.MappingAffine {
					kind = Affine
				}
				r.record(kind)
				return mapped, kind, 0, nil
			}
		}
		// Basis evicted or unusable: simulate below.
	}

	// Simulate the remaining worlds; the probes are worlds 0..k-1.
	samples, err := ev.simulate(ctx, call, k, ev.opts.Worlds, probes)
	if err != nil {
		return nil, Computed, 0, err
	}
	r.install(site.ID, key, samples, fp)
	return samples, Computed, 0, nil
}

// simulate invokes the site's VG-Function for worlds [from, to), in
// parallel, returning the full [0, to) vector. prefix supplies the already-
// computed worlds [0, from) (nil when from is 0). A series site is served
// from its chain, readied here before the chunks fan out.
func (ev *Evaluator) simulate(ctx context.Context, call siteCall, from, to int, prefix []float64) ([]float64, error) {
	ev.useChain(&call, 0, to)
	samples := make([]float64, to)
	copy(samples, prefix[:from])
	n := to - from
	workers := ev.opts.Workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if err := ev.simulateRange(ctx, call, from, to, samples[from:]); err != nil {
			return nil, err
		}
		return samples, nil
	}

	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := from + w*chunk
		hi := lo + chunk
		if hi > to {
			hi = to
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			var err error
			defer func() {
				if err != nil {
					errCh <- err
				}
			}()
			// simulateRange recovers VG panics itself, but the boundary defer
			// is what guarantees a panic anywhere in this goroutine fails the
			// simulation, not the process (errCh is buffered per worker).
			defer recoverToError(&err, "simulate")
			err = ev.simulateRange(ctx, call, lo, hi, samples[lo:hi])
		}(lo, hi)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return nil, err
	default:
	}
	return samples, nil
}

// simulateRange delivers one site's samples for worlds [lo, hi) into dst
// (len hi-lo): read from the call's chain, simulating a world's chain the
// first time it is read, or from one Generate per world. The function is
// resolved and the hi-lo invocations counted once. The context is checked
// once per world-batch, so cancellation stops a long simulation within one
// batch; a panicking VG-Function fails the simulation, not the process.
func (ev *Evaluator) simulateRange(ctx context.Context, call siteCall, lo, hi int, dst []float64) (err error) {
	defer recoverToError(&err, "simulate")
	if lo >= hi {
		return nil
	}
	site := &ev.scn.Sites[call.si]
	f, err := ev.scn.Registry.Bind(site.Name, len(call.args), hi-lo)
	if err != nil {
		return fmt.Errorf("mc: %s: %w", site.ID, err)
	}
	worlds := worldSeeds(ev.opts.SeedBase, site.ID)
	for i := lo; i < hi; i++ {
		if (i-lo)%batchWorlds == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if call.chain != nil {
			if dst[i-lo], err = call.chain.sample(worlds, i, call.pos); err != nil {
				return fmt.Errorf("mc: %s world %d: %w", site.ID, i, err)
			}
			continue
		}
		v, err := f.Generate(worldSeed(worlds, i), call.args)
		if err != nil {
			return fmt.Errorf("mc: %s world %d: %w", site.ID, i, err)
		}
		if dst[i-lo], err = v.AsFloat(); err != nil {
			return fmt.Errorf("mc: %s world %d: %w", site.ID, i, err)
		}
	}
	return nil
}
