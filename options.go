package fuzzyprophet

import (
	"context"

	"fuzzyprophet/internal/core"
	"fuzzyprophet/internal/mc"
	"fuzzyprophet/internal/storage"
)

// EvalOption tunes evaluation: world count, seeding, sharding and the
// fingerprint-reuse machinery. Options apply to Evaluate, EvaluateBatch,
// OpenSession and Optimize; an option irrelevant to a call (e.g.
// WithGroupBudget outside Optimize) is ignored.
type EvalOption func(*evalConfig)

// evalConfig is the resolved option set. Zero fields mean "engine default".
type evalConfig struct {
	worlds        int
	seedBase      uint64
	disableReuse  bool
	fpLength      int
	affineTol     float64
	storeBudget   int64
	spillDir      string
	spillBudget   int64
	groupBudget   int
	shards        int
	shardEval     ShardEvaluator
	sketchOnly    bool
	allowDegraded bool
	// shared, when set by WithReuseCache, is used instead of a private
	// reuse engine.
	shared *mc.Reuse
}

func newEvalConfig(opts []EvalOption) evalConfig {
	var c evalConfig
	for _, o := range opts {
		if o != nil {
			o(&c)
		}
	}
	return c
}

// WithWorlds sets the Monte Carlo world count per point (default 1000).
func WithWorlds(n int) EvalOption {
	return func(c *evalConfig) { c.worlds = n }
}

// WithSeedBase fixes the world seed sequence (default 20110612, the paper's
// demo week). Changing it changes every sample; reuse state saved under a
// different seed base is rejected on load.
func WithSeedBase(seed uint64) EvalOption {
	return func(c *evalConfig) { c.seedBase = seed }
}

// WithoutReuse turns fingerprint reuse off — naive re-simulation, the
// baseline mode for benchmarks.
func WithoutReuse() EvalOption {
	return func(c *evalConfig) { c.disableReuse = true }
}

// WithFingerprintLength sets the fingerprint length k: a fingerprint is a
// site's outputs at its first k world seeds (default 32).
func WithFingerprintLength(k int) EvalOption {
	return func(c *evalConfig) { c.fpLength = k }
}

// WithAffineTol sets the relative residual budget for affine mappings
// (default 0.02).
func WithAffineTol(tol float64) EvalOption {
	return func(c *evalConfig) { c.affineTol = tol }
}

// WithStoreBudget bounds the basis-distribution store in bytes (default
// unbounded).
func WithStoreBudget(bytes int64) EvalOption {
	return func(c *evalConfig) { c.storeBudget = bytes }
}

// WithSpillDir enables the out-of-core spill tier for the basis store,
// rooted at dir: bases evicted from the RAM budget are demoted to
// memory-mapped column files there and faulted back on demand as zero-copy
// views, so the basis working set may exceed WithStoreBudget without
// falling back to re-simulation. The directory is created if absent and
// reopened crash-safely (every file is CRC-checked; torn or corrupt files
// are quarantined and their bases re-simulated). Combine with
// WithStoreBudget to size the hot RAM tier; without it nothing ever
// spills, since the RAM tier never evicts.
func WithSpillDir(dir string) EvalOption {
	return func(c *evalConfig) { c.spillDir = dir }
}

// WithSpillBudget bounds the spill tier's disk usage in bytes (default
// unbounded). Over-budget column files are dropped least-recently-used; a
// dropped basis is re-simulated on demand. Ignored without WithSpillDir.
func WithSpillBudget(bytes int64) EvalOption {
	return func(c *evalConfig) { c.spillBudget = bytes }
}

// WithGroupBudget makes Optimize explore only that many randomly sampled
// groups instead of the whole grouped space (the result is then
// approximate; see OptimizeResult.Exhaustive).
func WithGroupBudget(groups int) EvalOption {
	return func(c *evalConfig) { c.groupBudget = groups }
}

// WithShards splits each point's Monte Carlo world range into n contiguous
// ranges evaluated concurrently and stitched back in world order (default
// 1: one range, evaluated inline). World seeds derive per (site, world) and
// statistics are folded from the stitched columns, so results are
// bit-identical regardless of n. A scenario whose query is not shardable
// (grouped, DISTINCT, ORDER BY or LIMIT) always evaluates as one range.
func WithShards(n int) EvalOption {
	return func(c *evalConfig) { c.shards = n }
}

// WithShardEvaluator routes shard evaluations through se — typically
// fpserver's HTTP fan-out to a fleet of shard workers. EvaluateBatch sends
// each shard once with every point of the batch; sessions and Optimize
// send one point per call. A shard whose evaluator call fails is
// transparently re-evaluated locally, so worker loss degrades throughput,
// not correctness. With a shard evaluator set,
// fingerprint reuse is bypassed (workers re-derive every sample from
// per-(site, world) seeds). Combine with WithShards to control how many
// shards each render fans out.
func WithShardEvaluator(se ShardEvaluator) EvalOption {
	return func(c *evalConfig) { c.shardEval = se }
}

// WithSketchOnly makes every world range return ONLY its per-column sketch
// (Welford moments + t-digest centroids) instead of per-world sample
// vectors, so each remote shard response is O(compression) bytes instead of
// O(worlds) — the wire protocol's compressed response mode. Results are
// the range-ordered merge of those sketches: moments (mean, stddev, CI95)
// are exact, quantiles (median, P95) carry the t-digest error bound. It
// applies to every evaluation — Evaluate, sessions, Optimize — with or
// without shards.
func WithSketchOnly() EvalOption {
	return func(c *evalConfig) { c.sketchOnly = true }
}

// WithAllowDegraded opts a caller into degraded results: an evaluation cut
// short by its context deadline returns the sketches merged from the world
// ranges completed so far — flagged Degraded with WorldsCompleted — instead
// of a deadline error. Moments over the completed worlds are exact and
// quantiles carry the t-digest error bound, but both describe a smaller
// sample than requested, so confidence intervals are wider. Degradation
// granularity is one shard: if nothing completed, the deadline error is
// returned as usual. Callers that would rather fail than show a partial
// answer simply omit this option (the default).
func WithAllowDegraded() EvalOption {
	return func(c *evalConfig) { c.allowDegraded = true }
}

func (c evalConfig) fingerprint() core.Config {
	fp := core.DefaultConfig()
	if c.fpLength > 0 {
		fp.Length = c.fpLength
	}
	if c.affineTol > 0 {
		fp.AffineTol = c.affineTol
	}
	return fp
}

// storeOptions resolves the basis-store configuration (RAM budget plus the
// optional spill tier).
func (c evalConfig) storeOptions() storage.Options {
	return storage.Options{
		BudgetBytes:      c.storeBudget,
		SpillDir:         c.spillDir,
		SpillBudgetBytes: c.spillBudget,
	}
}

func (c evalConfig) mcOptions() (mc.Options, error) {
	opts := mc.Options{
		Worlds:        c.worlds,
		SeedBase:      c.seedBase,
		Shards:        c.shards,
		SketchOnly:    c.sketchOnly,
		AllowDegraded: c.allowDegraded,
	}
	if c.shardEval != nil {
		opts.Runner = shardRunnerFor(c.shardEval)
	}
	if c.shared != nil {
		opts.Reuse = c.shared
		return opts, nil
	}
	if !c.disableReuse {
		reuse, err := mc.NewReuse(c.fingerprint(), c.storeOptions())
		if err != nil {
			return opts, err
		}
		opts.Reuse = reuse
	}
	return opts, nil
}

// shardRunnerFor adapts the public ShardEvaluator to the executor's
// internal runner signature. The executor checks that one output came back
// per point; a nil result stays a nil output, which it rejects too.
func shardRunnerFor(se ShardEvaluator) mc.ShardRunner {
	return func(ctx context.Context, task mc.ShardTask) ([]*mc.ShardOutput, error) {
		points := make([]map[string]any, len(task.Points))
		for i, pt := range task.Points {
			points[i] = fromPoint(pt)
		}
		res, err := se.EvaluateShard(ctx, ShardRequest{
			Points:     points,
			Worlds:     task.Worlds,
			Seed:       task.SeedBase,
			Shard:      WorldShard{Lo: task.Range.Lo, Hi: task.Range.Hi, Index: task.Index},
			SketchOnly: task.SketchOnly,
		})
		if err != nil {
			return nil, err
		}
		outs := make([]*mc.ShardOutput, len(res))
		for i, r := range res {
			if r != nil {
				outs[i] = &mc.ShardOutput{Columns: r.Columns, Sketches: r.Sketches}
			}
		}
		return outs, nil
	}
}
