// Package aggregate implements Fuzzy Prophet's Result Aggregator (paper §2,
// architecture cycle step 4): it reduces per-world query outputs to the
// metrics scenarios ask for — expectations, standard deviations, overload
// probabilities, quantiles — and decides when an estimate has converged
// enough to show the user (the online mode's "accurate guess").
package aggregate

import (
	"errors"
	"fmt"
	"math"

	"fuzzyprophet/internal/stats"
)

// ColumnStats aggregates the samples of one output column at one parameter
// point. It is MERGEABLE: two ColumnStats built over disjoint world ranges
// combine with Merge into the statistics of the union — moments via the
// parallel Welford merge, quantiles via the t-digest sketch (which replaced
// the earlier P² estimator precisely because P² markers cannot merge).
// World sharding leans on this: each shard folds its own range, the
// coordinator merges.
//
// Moments are eager; the digest is lazy. EXPECT, EXPECT_STDDEV and PROB —
// everything a GRAPH clause plots — read only the moments, so AddAll on a
// stats whose digest is not built yet folds the moments and keeps xs
// pending. The first Add, second AddAll, Merge (on either side), quantile
// read or Sketch builds the digest by folding the pending vector through
// the same TDigest.AddAll an eager fold runs at AddAll time, so centroids,
// extremes, every quantile and every serialized sketch are bit-identical
// to folding eagerly; only when the work is paid moves.
//
// Ownership: AddAll retains xs until the digest is built; the caller must
// not modify it before then. Reads are not safe to run concurrently: a
// quantile read or Sketch may build the digest, and the digest's Quantile
// mutates it too (it flushes the observation buffer).
//
// A moments-only ColumnStats (MomentsOnly) carries the moments and no
// samples to build a digest from: EXPECT, EXPECT_STDDEV, PROB, CI95 and
// Count read as usual, while Quantile and Metric(MEDIAN|P95) return
// ErrMomentsOnly and Median and P95 return NaN. Merging one into another
// makes the result moments-only too.
type ColumnStats struct {
	Moments stats.Moments
	digest  *stats.TDigest // nil until built
	pending []float64      // AddAll's vector, not yet folded into digest
	// momentsOnly marks stats with no digest and no samples to build one.
	momentsOnly bool
}

// ErrMomentsOnly is the error of a quantile read on a moments-only
// ColumnStats.
var ErrMomentsOnly = errors.New("aggregate: moments-only column stats hold no quantile sketch")

// NewColumnStats returns an empty aggregator.
func NewColumnStats() *ColumnStats {
	return &ColumnStats{}
}

// MomentsOnly returns a moments-only aggregator holding a copy of m.
func MomentsOnly(m stats.Moments) *ColumnStats {
	return &ColumnStats{Moments: m, momentsOnly: true}
}

// AddAll folds in a whole sample vector: its moments now, its digest
// insert when the digest is first needed. It retains xs until then.
func (c *ColumnStats) AddAll(xs []float64) {
	for _, x := range xs {
		c.Moments.Add(x)
	}
	if c.digest == nil && c.pending == nil {
		c.pending = xs
		return
	}
	c.tdigest().AddAll(xs)
}

// tdigest returns c's digest, first building it from the pending vector.
func (c *ColumnStats) tdigest() *stats.TDigest {
	if c.digest == nil {
		c.digest = stats.NewTDigest(stats.DefaultCompression)
	}
	if c.pending != nil {
		c.digest.AddAll(c.pending)
		c.pending = nil
	}
	return c.digest
}

// Merge folds another column aggregator into c. Moments merge exactly (up
// to float rounding); quantile estimates merge within the sketch tolerance.
// Both digests are built first, so o is written to as well.
func (c *ColumnStats) Merge(o *ColumnStats) {
	c.Moments.Merge(&o.Moments)
	if c.momentsOnly || o.momentsOnly {
		c.momentsOnly, c.digest, c.pending = true, nil, nil
		return
	}
	c.tdigest().Merge(o.tdigest())
}

// Expect returns the estimated expectation (EXPECT in scenario SQL).
func (c *ColumnStats) Expect() float64 { return c.Moments.Mean() }

// StdDev returns the estimated standard deviation (EXPECT_STDDEV).
func (c *ColumnStats) StdDev() float64 { return c.Moments.StdDev() }

// Prob returns the estimated probability, assuming the column is a 0/1
// indicator (PROB); it equals the mean.
func (c *ColumnStats) Prob() float64 { return c.Moments.Mean() }

// Median returns the running median estimate (NaN when moments-only).
func (c *ColumnStats) Median() float64 { return c.quantile(0.5) }

// P95 returns the running 95th-percentile estimate (NaN when moments-only).
func (c *ColumnStats) P95() float64 { return c.quantile(0.95) }

// Quantile returns the sketch's q-quantile estimate, building the digest
// on first use. A moments-only aggregator returns ErrMomentsOnly.
func (c *ColumnStats) Quantile(q float64) (float64, error) {
	if c.momentsOnly {
		return 0, ErrMomentsOnly
	}
	return c.tdigest().Quantile(q)
}

func (c *ColumnStats) quantile(q float64) float64 {
	v, err := c.Quantile(q)
	if err != nil {
		return math.NaN()
	}
	return v
}

// Count returns the number of worlds aggregated.
func (c *ColumnStats) Count() int64 { return c.Moments.Count() }

// CI95 returns the 95% confidence half-width of the mean.
func (c *ColumnStats) CI95() float64 { return c.Moments.CI95() }

// Metric extracts the named aggregate: EXPECT, EXPECT_STDDEV or PROB
// (scenario GRAPH items), plus MEDIAN and P95 for diagnostics.
func (c *ColumnStats) Metric(agg string) (float64, error) {
	switch agg {
	case "EXPECT":
		return c.Expect(), nil
	case "EXPECT_STDDEV":
		return c.StdDev(), nil
	case "PROB":
		return c.Prob(), nil
	case "MEDIAN":
		return c.Quantile(0.5)
	case "P95":
		return c.Quantile(0.95)
	default:
		return 0, fmt.Errorf("aggregate: unknown metric %q", agg)
	}
}

// ColumnSketch is the serializable form of a ColumnStats: raw Welford
// moments plus the t-digest centroid list. It is what the HTTP shard
// protocol ships — a worker folds its world range into a ColumnStats,
// serializes it with Sketch, and the coordinator restores and merges the
// partial sketches without ever seeing the worker's raw sample vector.
type ColumnSketch struct {
	Count       int64            `json:"count"`
	Mean        float64          `json:"mean"`
	M2          float64          `json:"m2"`
	Min         float64          `json:"min"`
	Max         float64          `json:"max"`
	Compression float64          `json:"compression,omitempty"`
	Centroids   []stats.Centroid `json:"centroids,omitempty"`
}

// Sketch serializes the aggregator's state, building the digest on first
// use.
func (c *ColumnStats) Sketch() ColumnSketch {
	n, mean, m2, min, max := c.Moments.State()
	digest := c.tdigest()
	return ColumnSketch{
		Count:       n,
		Mean:        mean,
		M2:          m2,
		Min:         min,
		Max:         max,
		Compression: digest.Compression(),
		Centroids:   digest.Centroids(),
	}
}

// Stats restores an aggregator from its serialized form. Moments round-trip
// exactly; the digest round-trips its centroid state.
func (sk ColumnSketch) Stats() *ColumnStats {
	compression := sk.Compression
	if compression <= 0 {
		compression = stats.DefaultCompression
	}
	return &ColumnStats{
		Moments: stats.MomentsFromState(sk.Count, sk.Mean, sk.M2, sk.Min, sk.Max),
		digest:  stats.TDigestFromCentroids(compression, sk.Centroids, sk.Min, sk.Max),
	}
}

// MergeSketches merges serialized partial sketches in order (shard 0 first)
// into one aggregator; nil when the list is empty.
func MergeSketches(sketches []ColumnSketch) *ColumnStats {
	var out *ColumnStats
	for _, sk := range sketches {
		cs := sk.Stats()
		if out == nil {
			out = cs
			continue
		}
		out.Merge(cs)
	}
	return out
}

// Converged reports whether every column of one point's stats has a 95% CI
// half-width within eps (relative to max(1, |mean|)), with at least
// minSamples worlds. This is the online mode's "first accurate guess"
// criterion.
func Converged(cols map[string]*ColumnStats, eps float64, minSamples int64) bool {
	for _, c := range cols {
		if c.Count() < minSamples {
			return false
		}
		if c.CI95() > eps*math.Max(1, math.Abs(c.Expect())) {
			return false
		}
	}
	return true
}
