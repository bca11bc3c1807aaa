package stats

import (
	"fmt"
	"math"
	"sort"
)

// TDigest is a mergeable quantile sketch in the style of Dunning's t-digest
// (the merging variant): observations are folded into a bounded list of
// (mean, weight) centroids whose sizes shrink toward the distribution's
// tails, so extreme quantiles stay sharp while the middle is summarized
// coarsely.
//
// Unlike the P² estimator it replaces in the Result Aggregator, a TDigest
// MERGES: two digests built over disjoint sample ranges combine into one
// whose quantile estimates match a digest built over the union, within the
// sketch's accuracy. That is the property world sharding needs — each shard
// folds its world range locally and the coordinator merges the partial
// sketches, with no per-world second pass.
//
// Determinism: Add and Merge are pure functions of the observation sequence
// (no randomness, no time), so a fixed shard topology always produces the
// same digest. Across DIFFERENT merge orders the centroid lists may differ;
// quantile estimates then agree within the sketch tolerance (the
// merge-order-invariance test pins this).
type TDigest struct {
	compression float64
	centroids   []Centroid // sorted by Mean, tie-broken stably by fold order
	total       float64    // summed centroid weight (excludes buffer)
	min, max    float64

	buf []float64 // unmerged raw observations
}

// Centroid is one (mean, weight) cluster of a TDigest.
type Centroid struct {
	Mean   float64 `json:"m"`
	Weight float64 `json:"w"`
}

// DefaultCompression balances accuracy against sketch size: ~2·δ centroids
// worst case, with mid-quantile rank error well under 1%.
const DefaultCompression = 200

// tdigestBufferSize bounds the unmerged observation buffer before a
// compaction pass runs.
const tdigestBufferSize = 512

// NewTDigest returns an empty digest with the given compression δ
// (values <= 0 take DefaultCompression).
func NewTDigest(compression float64) *TDigest {
	if compression <= 0 {
		compression = DefaultCompression
	}
	return &TDigest{
		compression: compression,
		min:         math.Inf(1),
		max:         math.Inf(-1),
	}
}

// Add folds one observation into the digest. NaN observations are
// ignored: a NaN has no rank, so folding it in could only poison the
// centroid means (quantiles over a vector with NaNs are computed over its
// non-NaN values; the Welford moments alongside still propagate NaN, so a
// poisoned column is visible in the mean).
func (t *TDigest) Add(x float64) {
	if math.IsNaN(x) {
		return
	}
	if x < t.min {
		t.min = x
	}
	if x > t.max {
		t.max = x
	}
	t.buf = append(t.buf, x)
	if len(t.buf) >= tdigestBufferSize {
		t.flush()
	}
}

// AddAll folds a whole sample vector in.
func (t *TDigest) AddAll(xs []float64) {
	for _, x := range xs {
		t.Add(x)
	}
}

// Count returns the number of observations folded in.
func (t *TDigest) Count() int64 {
	return int64(t.total) + int64(len(t.buf))
}

// Merge folds another digest into t. The other digest is not modified.
func (t *TDigest) Merge(o *TDigest) {
	if o == nil || o.Count() == 0 {
		return
	}
	if o.min < t.min {
		t.min = o.min
	}
	if o.max > t.max {
		t.max = o.max
	}
	t.flush()
	incoming := make([]Centroid, 0, len(o.centroids)+len(o.buf))
	incoming = append(incoming, o.centroids...)
	for _, x := range o.buf {
		incoming = append(incoming, Centroid{Mean: x, Weight: 1})
	}
	sort.SliceStable(incoming, func(i, j int) bool { return incoming[i].Mean < incoming[j].Mean })
	t.mergeSorted(incoming)
}

// flush compacts the raw-observation buffer into the centroid list.
func (t *TDigest) flush() {
	if len(t.buf) == 0 {
		return
	}
	sort.Float64s(t.buf)
	incoming := make([]Centroid, len(t.buf))
	for i, x := range t.buf {
		incoming[i] = Centroid{Mean: x, Weight: 1}
	}
	t.buf = t.buf[:0]
	t.mergeSorted(incoming)
}

// kScale is the k₁ scale function δ/(2π)·asin(2q−1): its unit steps allot
// many small centroids near q=0 and q=1 and few large ones in the middle.
func (t *TDigest) kScale(q float64) float64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	return t.compression / (2 * math.Pi) * math.Asin(2*q-1)
}

// mergeSorted merges a mean-sorted centroid batch with the existing list
// and recompresses, greedily packing adjacent centroids while the k-scale
// budget allows.
func (t *TDigest) mergeSorted(incoming []Centroid) {
	if len(incoming) == 0 {
		return
	}
	merged := make([]Centroid, 0, len(t.centroids)+len(incoming))
	i, j := 0, 0
	for i < len(t.centroids) || j < len(incoming) {
		switch {
		case i == len(t.centroids):
			merged = append(merged, incoming[j])
			j++
		case j == len(incoming):
			merged = append(merged, t.centroids[i])
			i++
		case t.centroids[i].Mean <= incoming[j].Mean:
			merged = append(merged, t.centroids[i])
			i++
		default:
			merged = append(merged, incoming[j])
			j++
		}
	}
	var total float64
	for _, c := range merged {
		total += c.Weight
	}

	out := merged[:0]
	cur := merged[0]
	var before float64 // weight strictly left of cur
	kLeft := t.kScale(0)
	for _, c := range merged[1:] {
		q := (before + cur.Weight + c.Weight) / total
		if t.kScale(q)-kLeft <= 1 {
			// Weighted mean keeps the combined centroid exact. Equal means
			// need no update, so two infinite centroids of the same sign
			// combine to that infinity; an infinite mean absorbs a finite
			// one (the delta form would give Inf-Inf = NaN); finite means
			// whose weighted delta overflows combine in the convex form.
			w := cur.Weight + c.Weight
			switch {
			case c.Mean == cur.Mean:
			case math.IsInf(c.Mean, 0) || math.IsInf(cur.Mean, 0):
				cur.Mean += c.Mean
			default:
				if delta := (c.Mean - cur.Mean) * c.Weight / w; !math.IsInf(delta, 0) {
					cur.Mean += delta
				} else {
					cur.Mean = cur.Mean*(cur.Weight/w) + c.Mean*(c.Weight/w)
				}
			}
			cur.Weight = w
			continue
		}
		before += cur.Weight
		kLeft = t.kScale(before / total)
		out = append(out, cur)
		cur = c
	}
	out = append(out, cur)
	t.centroids = out
	t.total = total
}

// Quantile returns the estimated q-quantile (0<=q<=1). With no
// observations it returns 0; outside [0,1] it returns an error.
func (t *TDigest) Quantile(q float64) (float64, error) {
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("stats: t-digest quantile q=%g outside [0,1]", q)
	}
	t.flush()
	if len(t.centroids) == 0 {
		return 0, nil
	}
	if len(t.centroids) == 1 {
		return t.centroids[0].Mean, nil
	}
	if q == 0 {
		return t.min, nil
	}
	if q == 1 {
		return t.max, nil
	}
	// Interpolation can round past the envelope; the readout never leaves
	// the observed [min, max].
	v := t.interpolate(q)
	if v < t.min {
		v = t.min
	}
	if v > t.max {
		v = t.max
	}
	return v, nil
}

// interpolate walks cumulative weight treating each centroid's mass as
// centered on its mean, interpolating linearly between adjacent centers
// (the standard t-digest readout) and from min/max at the ends.
func (t *TDigest) interpolate(q float64) float64 {
	target := q * t.total
	var cum float64
	for i, c := range t.centroids {
		center := cum + c.Weight/2
		if target <= center {
			if i == 0 {
				// Below the first center: interpolate from the minimum.
				frac := target / center
				return lerp(t.min, c.Mean, frac)
			}
			prev := t.centroids[i-1]
			prevCenter := cum - prev.Weight/2
			frac := (target - prevCenter) / (center - prevCenter)
			return lerp(prev.Mean, c.Mean, frac)
		}
		cum += c.Weight
	}
	// Above the last center: interpolate toward the maximum.
	last := t.centroids[len(t.centroids)-1]
	lastCenter := t.total - last.Weight/2
	if t.total == lastCenter {
		return t.max
	}
	frac := (target - lastCenter) / (t.total - lastCenter)
	return lerp(last.Mean, t.max, frac)
}

// lerp returns a + f·(b−a) for f in [0, 1]. An infinite endpoint
// dominates every interior point (the delta form would give Inf-Inf =
// NaN), and finite endpoints whose span overflows (both near ±MaxFloat64)
// combine in the convex form a·(1−f) + b·f.
func lerp(a, b, f float64) float64 {
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		if f >= 1 || (f > 0 && !math.IsInf(a, 0)) {
			return b
		}
		return a
	}
	if d := b - a; !math.IsInf(d, 0) {
		return a + f*d
	}
	return a*(1-f) + b*f
}

// Min and Max return the observed extremes (0 when empty).
func (t *TDigest) Min() float64 {
	if t.Count() == 0 {
		return 0
	}
	return t.min
}

// Max returns the observed maximum (0 when empty).
func (t *TDigest) Max() float64 {
	if t.Count() == 0 {
		return 0
	}
	return t.max
}

// Compression returns the digest's compression parameter δ.
func (t *TDigest) Compression() float64 { return t.compression }

// Centroids compacts the buffer and returns a copy of the centroid list —
// the digest's serializable state, alongside Min/Max/Compression.
func (t *TDigest) Centroids() []Centroid {
	t.flush()
	return append([]Centroid(nil), t.centroids...)
}

// TDigestFromCentroids rebuilds a digest from serialized state: the
// centroid list (mean-sorted or not), observed extremes and compression.
// The inverse of Centroids/Min/Max/Compression, used by the HTTP shard
// protocol to ship partial sketches between workers and the coordinator.
//
// Wire state is untrusted: centroids with a NaN mean or a weight that is
// not a plausible observation count (NaN, below 1 or above 2^53) are
// dropped (they cannot correspond to any observation sequence), and min/max are re-clamped against the surviving
// centroid means so a hostile or torn sketch can never push quantile
// readouts outside the centroid envelope.
func TDigestFromCentroids(compression float64, centroids []Centroid, min, max float64) *TDigest {
	t := NewTDigest(compression)
	cs := make([]Centroid, 0, len(centroids))
	for _, c := range centroids {
		if math.IsNaN(c.Mean) || !(c.Weight >= 1 && c.Weight <= 1<<53) {
			continue
		}
		cs = append(cs, c)
	}
	if len(cs) == 0 {
		return t
	}
	sort.SliceStable(cs, func(i, j int) bool { return cs[i].Mean < cs[j].Mean })
	t.min, t.max = min, max
	// A centroid mean is an average of observations, so min <= smallest
	// mean and max >= largest mean must hold; repair state that violates it.
	if lo := cs[0].Mean; math.IsNaN(t.min) || t.min > lo {
		t.min = lo
	}
	if hi := cs[len(cs)-1].Mean; math.IsNaN(t.max) || t.max < hi {
		t.max = hi
	}
	t.mergeSorted(cs)
	return t
}
