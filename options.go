package fuzzyprophet

import (
	"context"

	"fuzzyprophet/internal/core"
	"fuzzyprophet/internal/mc"
	"fuzzyprophet/internal/storage"
)

// EvalOption tunes evaluation: world count, seeding, the shard fan-out and the
// fingerprint-reuse machinery. Options apply to Evaluate, EvaluateBatch,
// OpenSession and Optimize; an option irrelevant to a call (e.g.
// WithSpillBudget without WithSpillDir) is ignored.
type EvalOption func(*evalConfig)

// evalConfig is the resolved option set. Zero fields mean "engine default".
type evalConfig struct {
	worlds        int
	seedBase      uint64
	disableReuse  bool
	storeBudget   int64
	spillDir      string
	spillBudget   int64
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

// WithStoreBudget bounds the basis-distribution store in bytes (default
// unbounded).
func WithStoreBudget(bytes int64) EvalOption {
	return func(c *evalConfig) { c.storeBudget = bytes }
}

// WithSpillDir enables the out-of-core spill tier for the basis store,
// rooted at dir: bases evicted from the RAM budget are demoted to column
// files there and read back on demand, so the basis working set may exceed
// WithStoreBudget without falling back to re-simulation. The directory is
// created if absent and reopened crash-safely (every read is CRC-checked;
// torn or corrupt files are quarantined and their bases re-simulated). Combine with
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

// WithShardEvaluator routes shard evaluations through se — typically
// fpserver's HTTP fan-out to a fleet of shard workers — splitting each
// point's Monte Carlo world range into shards contiguous ranges (shards < 1
// means 1), stitched back in world order. Every evaluation is a batch that
// sends each shard once with all its points: an EvaluateBatch call, a
// session render's sweep, one group's free sweep in Optimize, or
// Evaluate's single point. World seeds derive per (site, world) and
// statistics are folded from the stitched columns, so results are
// bit-identical to a local evaluation whatever the shard count. A shard
// whose evaluator call fails is transparently re-evaluated locally, so
// worker loss degrades throughput, not correctness. With a shard evaluator
// set, fingerprint reuse is bypassed (workers re-derive every sample from
// per-(site, world) seeds). A scenario whose query is not shardable
// (grouped, DISTINCT, ORDER BY or LIMIT) is always evaluated locally.
// Without a shard evaluator a point is evaluated in process as one range.
func WithShardEvaluator(se ShardEvaluator, shards int) EvalOption {
	return func(c *evalConfig) { c.shardEval, c.shards = se, shards }
}

// WithSketchOnly makes every world range return ONLY its per-column sketch
// (Welford moments + t-digest centroids) instead of per-world sample
// vectors, so each column of a remote shard answer is O(compression) bytes
// instead of O(worlds) — the wire protocol's compressed response mode. It
// shrinks the answer only past a few hundred worlds per range (about 240 on
// capacityplanning's figure-2 sweep; see docs/ARCHITECTURE.md, "Where
// sketch-only is smaller"). Results are
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
		reuse, err := mc.NewReuse(core.DefaultConfig(), c.storeOptions())
		if err != nil {
			return opts, err
		}
		opts.Reuse = reuse
	}
	return opts, nil
}

// shardRunnerFor adapts the public ShardEvaluator to the executor's
// internal runner signature: the points go out as maps, and the results
// come back as they are (a ShardResult is the executor's ShardOutput). The
// executor checks that one output came back per point and that none is
// nil.
func shardRunnerFor(se ShardEvaluator) mc.ShardRunner {
	return func(ctx context.Context, task mc.ShardTask) ([]*mc.ShardOutput, error) {
		points := make([]map[string]any, len(task.Points))
		for i, pt := range task.Points {
			points[i] = fromPoint(pt)
		}
		return se.EvaluateShard(ctx, ShardRequest{
			Points:     points,
			Worlds:     task.Worlds,
			Seed:       task.SeedBase,
			Shard:      WorldShard{Lo: task.Range.Lo, Hi: task.Range.Hi, Index: task.Index},
			SketchOnly: task.SketchOnly,
		})
	}
}
