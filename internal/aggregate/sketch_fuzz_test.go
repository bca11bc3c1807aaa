package aggregate

import (
	"bytes"
	"math"
	"testing"

	"fuzzyprophet/internal/stats"
)

// FuzzColumnSketchCodec decodes arbitrary bytes with the binary sketch
// codec (as carried by shard response frames), checks that re-encoding is
// the identity, restores an aggregator, merges it with a clean one built
// from real samples, and reads every derived statistic. The invariant under
// fuzzing: no input — hostile centroid lists, NaN/±Inf moments and
// centroids, empty or duplicated centroids — may panic, and for any sketch
// that restores with finite bounds the quantiles it reports must stay
// inside [Min, Max].
func FuzzColumnSketchCodec(f *testing.F) {
	seed := func(vals ...float64) []byte {
		cs := NewColumnStats()
		cs.AddAll(vals)
		return AppendSketch(nil, cs.Sketch())
	}
	f.Add(seed(1, 2, 3, 4, 5, 6, 7, 8, 9, 10))
	f.Add(seed(0))
	f.Add(seed(-1e150, 1e150, -1e150, 1e150))
	f.Add(seed(math.Inf(1), math.NaN(), math.Inf(-1), math.Copysign(0, -1)))
	// Hand-built hostile sketches: empty centroids, inverted bounds,
	// negative weights, duplicate zero-distance centroids, extremes that
	// overflow to ±Inf when merged, and non-finite centroids.
	inf, nan := math.Inf(1), math.NaN()
	for _, sk := range []ColumnSketch{
		{Count: 5, Mean: 1, M2: 4, Min: 0, Max: 2},
		{Count: 3, Mean: 1, M2: -1, Min: 9, Max: -9, Compression: 200, Centroids: []stats.Centroid{{Mean: 1, Weight: -2}}},
		{Count: 1, Compression: 0.001, Centroids: []stats.Centroid{{Mean: 0, Weight: 1}, {Mean: 0, Weight: 1}}},
		{Count: 4, Mean: 1e308, M2: 1e308, Min: -1.7e308, Max: 1.7e308, Compression: 10, Centroids: []stats.Centroid{{Mean: -1.7e308, Weight: 2}, {Mean: 1.7e308, Weight: 2}}},
		{Count: 2, Mean: 5, Min: 0, Max: 2, Compression: 200, Centroids: []stats.Centroid{{Mean: 100, Weight: 1}}},
		{Count: 3, Mean: inf, M2: nan, Min: nan, Max: inf, Compression: nan, Centroids: []stats.Centroid{{Mean: nan, Weight: 1}, {Mean: -inf, Weight: inf}, {Mean: 1, Weight: nan}}},
	} {
		f.Add(AppendSketch(nil, sk))
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		sk, rest, err := DecodeSketch(raw)
		if err != nil {
			t.Skip()
		}
		if enc := AppendSketch(nil, sk); !bytes.Equal(enc, raw[:len(raw)-len(rest)]) {
			t.Fatalf("re-encoding is not the identity:\n got %x\nwant %x", enc, raw[:len(raw)-len(rest)])
		}
		cs := sk.Stats()

		// Re-serialize and restore again: the second generation must not
		// panic either (serialize → merge → deserialize is the shard
		// coordinator's steady-state loop).
		sk2, _, err := DecodeSketch(AppendSketch(nil, cs.Sketch()))
		if err != nil {
			t.Fatalf("decoding our own encoding: %v", err)
		}
		merged := MergeSketches([]ColumnSketch{sk, sk2})

		clean := NewColumnStats()
		clean.AddAll([]float64{-3, -1, 0, 1, 3})
		clean.Merge(cs)

		for _, c := range []*ColumnStats{cs, merged, clean} {
			if c == nil {
				continue
			}
			c.Expect()
			c.StdDev()
			c.CI95()
			// The digest's own repaired envelope: Quantile(0)/Quantile(1)
			// read the (re-clamped) min and max. When that envelope is
			// finite, no interior quantile may escape it — a corrupt sketch
			// must not invent values outside the centroid envelope.
			lo, errLo := c.Quantile(0)
			hi, errHi := c.Quantile(1)
			bounded := errLo == nil && errHi == nil &&
				!math.IsNaN(lo) && !math.IsNaN(hi) &&
				!math.IsInf(lo, 0) && !math.IsInf(hi, 0) && lo <= hi
			for _, q := range []float64{0.25, 0.5, 0.75, 0.95} {
				v, err := c.Quantile(q)
				if err != nil {
					continue
				}
				if bounded && (math.IsNaN(v) || v < lo || v > hi) {
					t.Fatalf("quantile %g = %v escapes [%v, %v] (sketch %+v)", q, v, lo, hi, sk)
				}
			}
		}
	})
}
