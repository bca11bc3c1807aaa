package stats

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// quantileRankError asserts that the digest's estimate for q lies between
// the exact (tol-widened) rank quantiles of the sorted data.
func quantileRankError(t *testing.T, td *TDigest, xs []float64, q, tol float64) {
	t.Helper()
	got, err := td.Quantile(q)
	if err != nil {
		t.Fatalf("Quantile(%g): %v", q, err)
	}
	lo, _ := Quantile(xs, math.Max(0, q-tol))
	hi, _ := Quantile(xs, math.Min(1, q+tol))
	if got < lo || got > hi {
		t.Errorf("Quantile(%g) = %g outside rank-tolerance window [%g, %g]", q, got, lo, hi)
	}
}

func TestTDigestAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dists := map[string]func() float64{
		"uniform":     rng.Float64,
		"normal":      rng.NormFloat64,
		"exponential": rng.ExpFloat64,
	}
	for name, draw := range dists {
		t.Run(name, func(t *testing.T) {
			xs := make([]float64, 20000)
			td := NewTDigest(0)
			for i := range xs {
				xs[i] = draw()
				td.Add(xs[i])
			}
			for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99} {
				quantileRankError(t, td, xs, q, 0.015)
			}
			if td.Count() != int64(len(xs)) {
				t.Errorf("count = %d, want %d", td.Count(), len(xs))
			}
		})
	}
}

func TestTDigestExtremes(t *testing.T) {
	td := NewTDigest(0)
	xs := []float64{5, -3, 12, 0, 7}
	td.AddAll(xs)
	if v, _ := td.Quantile(0); v != -3 {
		t.Errorf("q0 = %g, want -3", v)
	}
	if v, _ := td.Quantile(1); v != 12 {
		t.Errorf("q1 = %g, want 12", v)
	}
	if td.Min() != -3 || td.Max() != 12 {
		t.Errorf("min/max = %g/%g", td.Min(), td.Max())
	}
}

func TestTDigestSmallAndEmpty(t *testing.T) {
	td := NewTDigest(0)
	if v, err := td.Quantile(0.5); err != nil || v != 0 {
		t.Errorf("empty quantile = %g, %v", v, err)
	}
	if td.Min() != 0 || td.Max() != 0 {
		t.Errorf("empty min/max = %g/%g", td.Min(), td.Max())
	}
	td.Add(4)
	if v, _ := td.Quantile(0.5); v != 4 {
		t.Errorf("single-sample median = %g", v)
	}
	if _, err := td.Quantile(1.5); err == nil {
		t.Error("q outside [0,1] should error")
	}
}

// TestTDigestMergeMatchesWhole: a digest merged from disjoint shards
// estimates quantiles as well as one built over the whole vector.
func TestTDigestMergeMatchesWhole(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	xs := make([]float64, 30000)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 10
	}
	for _, shards := range []int{2, 7, 16} {
		merged := NewTDigest(0)
		chunk := (len(xs) + shards - 1) / shards
		for lo := 0; lo < len(xs); lo += chunk {
			hi := lo + chunk
			if hi > len(xs) {
				hi = len(xs)
			}
			part := NewTDigest(0)
			part.AddAll(xs[lo:hi])
			merged.Merge(part)
		}
		if merged.Count() != int64(len(xs)) {
			t.Fatalf("%d shards: merged count = %d", shards, merged.Count())
		}
		for _, q := range []float64{0.05, 0.5, 0.95, 0.99} {
			quantileRankError(t, merged, xs, q, 0.02)
		}
	}
}

// TestTDigestMergeOrderInvariance: merging the same partial digests in any
// order yields quantile estimates that agree within the sketch tolerance.
func TestTDigestMergeOrderInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const shards = 8
	parts := make([]*TDigest, shards)
	var all []float64
	for s := range parts {
		parts[s] = NewTDigest(0)
		for i := 0; i < 4000; i++ {
			x := rng.ExpFloat64() * float64(s+1)
			parts[s].Add(x)
			all = append(all, x)
		}
	}
	orders := [][]int{
		{0, 1, 2, 3, 4, 5, 6, 7},
		{7, 6, 5, 4, 3, 2, 1, 0},
		{3, 0, 6, 1, 7, 2, 5, 4},
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.95} {
		var estimates []float64
		for _, order := range orders {
			m := NewTDigest(0)
			for _, s := range order {
				m.Merge(parts[s])
			}
			quantileRankError(t, m, all, q, 0.025)
			v, _ := m.Quantile(q)
			estimates = append(estimates, v)
		}
		// All merge orders must land inside a narrow band of each other.
		lo, _ := Quantile(all, math.Max(0, q-0.025))
		hi, _ := Quantile(all, math.Min(1, q+0.025))
		band := hi - lo
		for i := 1; i < len(estimates); i++ {
			if math.Abs(estimates[i]-estimates[0]) > band {
				t.Errorf("q=%g: merge orders disagree beyond tolerance: %v (band %g)", q, estimates, band)
			}
		}
	}
}

// tdigestRankBounds pins, per compression δ, the worst rank error
// TestTDigestRankErrorByCompression measured over its whole table, times
// 1.5; docs/ARCHITECTURE.md lists them beside sketchQuantileRankTolerance.
// From δ = 100 up the worst case is the tied data's median: the digest
// reads a value between two tied values, whose rank interval is the point
// 0.4971, 0.0029 from q = 0.5. The continuous rows' worst errors are
// 0.0079 (δ = 50), 0.0021 (100), 0.0014 (200) and 0.0007 (500).
var tdigestRankBounds = map[float64]float64{
	50:  0.0471, // measured 0.0314: tied data, 2 parts, q = 0.05
	100: 0.0044, // measured 0.0029: tied data, q = 0.5
	200: 0.0044, // measured 0.0029: tied data, q = 0.5
	500: 0.0044, // measured 0.0029: tied data, q = 0.5
}

// rankError is the distance from q to the rank interval [fraction < v,
// fraction <= v] of v within the ascending-sorted xs — an interval because
// of ties.
func rankError(sorted []float64, v, q float64) float64 {
	lo := float64(sort.SearchFloat64s(sorted, v)) / float64(len(sorted))
	hi := float64(sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })) / float64(len(sorted))
	return math.Max(0, math.Max(lo-q, q-hi))
}

// TestTDigestRankErrorByCompression: a digest merged from 1, 2, 7 or 16
// parts — sequentially, in reverse, shuffled or as a pairwise tree — over
// normal, exponential, lognormal and tied-discrete data reads every
// quantile in {0.01, 0.05, 0.5, 0.95, 0.99} within its compression's
// pinned rank-error bound.
func TestTDigestRankErrorByCompression(t *testing.T) {
	const n = 20000
	rng := rand.New(rand.NewSource(97))
	type dataset struct {
		name string
		xs   []float64
	}
	var data []dataset
	for _, d := range []struct {
		name string
		draw func() float64
	}{
		{"normal", rng.NormFloat64},
		{"exponential", rng.ExpFloat64},
		{"lognormal", func() float64 { return math.Exp(rng.NormFloat64()) }},
		{"tied-discrete", func() float64 { return float64(rng.Intn(12)) }},
	} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = d.draw()
		}
		data = append(data, dataset{d.name, xs})
	}
	merge := func(delta float64, ds ...*TDigest) *TDigest {
		m := NewTDigest(delta)
		for _, d := range ds {
			m.Merge(d)
		}
		return m
	}
	orders := []struct {
		name    string
		combine func(delta float64, parts []*TDigest) *TDigest
	}{
		{"sequential", func(delta float64, parts []*TDigest) *TDigest { return merge(delta, parts...) }},
		{"reversed", func(delta float64, parts []*TDigest) *TDigest {
			reversed := slices.Clone(parts)
			slices.Reverse(reversed)
			return merge(delta, reversed...)
		}},
		{"shuffled", func(delta float64, parts []*TDigest) *TDigest {
			shuffled := slices.Clone(parts)
			rand.New(rand.NewSource(int64(len(parts)))).Shuffle(len(shuffled), func(i, j int) {
				shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
			})
			return merge(delta, shuffled...)
		}},
		{"pairwise-tree", func(delta float64, parts []*TDigest) *TDigest {
			level := parts
			for len(level) > 1 {
				var next []*TDigest
				for i := 0; i < len(level); i += 2 {
					next = append(next, merge(delta, level[i:min(i+2, len(level))]...))
				}
				level = next
			}
			return merge(delta, level...)
		}},
	}
	for delta, bound := range tdigestRankBounds {
		worst, where := 0.0, ""
		for _, d := range data {
			dist, xs := d.name, d.xs
			sorted := slices.Sorted(slices.Values(xs))
			distWorst := 0.0
			for _, k := range []int{1, 2, 7, 16} {
				parts := make([]*TDigest, k)
				for p := range parts {
					parts[p] = NewTDigest(delta)
					parts[p].AddAll(xs[p*n/k : (p+1)*n/k])
				}
				for _, order := range orders {
					td := order.combine(delta, parts)
					for _, q := range []float64{0.01, 0.05, 0.5, 0.95, 0.99} {
						v, err := td.Quantile(q)
						if err != nil {
							t.Fatal(err)
						}
						e := rankError(sorted, v, q)
						distWorst = math.Max(distWorst, e)
						if e > worst {
							worst, where = e, fmt.Sprintf("%s, %d parts, %s, q=%g", dist, k, order.name, q)
						}
					}
				}
			}
			t.Logf("δ=%g %s: worst rank error %.5f", delta, dist, distWorst)
		}
		t.Logf("δ=%g: worst rank error %.5f (%s), pinned bound %.5f", delta, worst, where, bound)
		if worst > bound {
			t.Errorf("δ=%g: rank error %.5f at %s exceeds the pinned bound %.5f", delta, worst, where, bound)
		}
	}
}

func TestTDigestCentroidRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	td := NewTDigest(100)
	for i := 0; i < 10000; i++ {
		td.Add(rng.Float64() * 50)
	}
	restored := TDigestFromCentroids(td.Compression(), td.Centroids(), td.Min(), td.Max())
	if restored.Count() != td.Count() {
		t.Fatalf("restored count = %d, want %d", restored.Count(), td.Count())
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 1} {
		a, _ := td.Quantile(q)
		b, _ := restored.Quantile(q)
		if a != b {
			t.Errorf("q=%g: restored %g != original %g", q, b, a)
		}
	}
}

func TestTDigestDeterministic(t *testing.T) {
	build := func() *TDigest {
		td := NewTDigest(0)
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 5000; i++ {
			td.Add(rng.NormFloat64())
		}
		return td
	}
	a, b := build(), build()
	for _, q := range []float64{0.1, 0.5, 0.9} {
		va, _ := a.Quantile(q)
		vb, _ := b.Quantile(q)
		if va != vb {
			t.Errorf("q=%g: same input sequence produced %g vs %g", q, va, vb)
		}
	}
}

func TestTDigestCompressionBound(t *testing.T) {
	td := NewTDigest(100)
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 100000; i++ {
		td.Add(rng.Float64())
	}
	if n := len(td.Centroids()); n > 250 {
		t.Errorf("centroid count %d exceeds ~2.5x compression bound", n)
	}
}

// TestTDigestQuantileStaysInEnvelope: centroids at ±1.7e308 are more than
// MaxFloat64 apart, so interpolating between them overflows; the readout
// must still stay inside the digest's [min, max].
func TestTDigestQuantileStaysInEnvelope(t *testing.T) {
	td := TDigestFromCentroids(10, []Centroid{{Mean: -1.7e308, Weight: 2}, {Mean: 1.7e308, Weight: 2}}, -1.7e308, 1.7e308)
	for _, q := range []float64{0.25, 0.5, 0.75} {
		v, err := td.Quantile(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(v) || v < -1.7e308 || v > 1.7e308 {
			t.Errorf("Quantile(%g) = %v escapes [-1.7e308, 1.7e308]", q, v)
		}
	}
}

// TestTDigestRestoreDropsImplausibleWeights: a centroid weight counts
// observations, so restore drops weights below 1 or above 2^53. A
// fractional or huge weight would otherwise reach Quantile (a 1.7e308
// weight overflows the merged total to +Inf and reads out NaN).
func TestTDigestRestoreDropsImplausibleWeights(t *testing.T) {
	td := TDigestFromCentroids(100, []Centroid{
		{Mean: 1, Weight: 1},
		{Mean: 2, Weight: 0.5},
		{Mean: 3, Weight: 5e-324},
		{Mean: 4, Weight: 1.7e308},
		{Mean: 5, Weight: 1<<53 + 2},
		{Mean: 6, Weight: 1 << 53},
	}, 1, 6)
	got := td.Centroids()
	want := []Centroid{{Mean: 1, Weight: 1}, {Mean: 6, Weight: 1 << 53}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("restored centroids = %+v, want %+v", got, want)
	}
	merged := NewTDigest(100)
	merged.Merge(TDigestFromCentroids(100, []Centroid{{Mean: 1, Weight: 1.7e308}}, 1, 1))
	merged.Merge(TDigestFromCentroids(100, []Centroid{{Mean: 1, Weight: 1.7e308}}, 1, 1))
	if v, err := merged.Quantile(0.5); err == nil && math.IsNaN(v) {
		t.Errorf("Quantile(0.5) of merged huge-weight digests = NaN")
	}
}

// TestTDigestInfiniteObservations: a column mixing finite values with ±Inf
// (an overflowed model output) compresses without NaN centroids: an
// infinite mean absorbs the finite ones merged into it.
func TestTDigestInfiniteObservations(t *testing.T) {
	td := NewTDigest(DefaultCompression)
	for i := 0; i < 4000; i++ {
		switch i % 10 {
		case 0:
			td.Add(math.Inf(1))
		case 1:
			td.Add(math.Inf(-1))
		default:
			td.Add(float64(i % 97))
		}
	}
	for _, c := range td.Centroids() {
		if math.IsNaN(c.Mean) {
			t.Fatalf("NaN centroid %+v", c)
		}
	}
	for _, q := range []float64{0.01, 0.05, 0.5, 0.95, 0.99} {
		if v, err := td.Quantile(q); err != nil || math.IsNaN(v) {
			t.Errorf("Quantile(%g) = %v, %v", q, v, err)
		}
	}
	if v, _ := td.Quantile(0.5); math.IsInf(v, 0) || v < 0 || v > 96 {
		t.Errorf("median = %v, want within the finite values [0, 96]", v)
	}
}
