package aggregate

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"fuzzyprophet/internal/rng"
)

// foldFunc folds a sample vector into a ColumnStats.
type foldFunc func(c *ColumnStats, xs []float64)

// lazyFold is the path under test: AddAll defers the digest.
func lazyFold(c *ColumnStats, xs []float64) { c.AddAll(xs) }

// eagerFold is the reference: every value goes through Add, which builds
// the digest on the spot.
func eagerFold(c *ColumnStats, xs []float64) {
	for _, x := range xs {
		c.Add(x)
	}
}

// foldSequences are the call sequences under which a lazily built digest
// must match the eager reference bit for bit. Each folds its inputs with
// fold and returns every aggregator the sequence touched (a merge's source
// too: building its digest must not change it).
var foldSequences = []struct {
	name string
	run  func(fold foldFunc, a, b []float64) []*ColumnStats
}{
	{"AddAll", func(fold foldFunc, a, _ []float64) []*ColumnStats {
		c := NewColumnStats()
		fold(c, a)
		return []*ColumnStats{c}
	}},
	{"AddAll+Add", func(fold foldFunc, a, b []float64) []*ColumnStats {
		c := NewColumnStats()
		fold(c, a)
		eagerFold(c, b)
		return []*ColumnStats{c}
	}},
	{"AddAll×2", func(fold foldFunc, a, b []float64) []*ColumnStats {
		c := NewColumnStats()
		fold(c, a)
		fold(c, b)
		return []*ColumnStats{c}
	}},
	{"pending.Merge(pending)", func(fold foldFunc, a, b []float64) []*ColumnStats {
		p, q := NewColumnStats(), NewColumnStats()
		fold(p, a)
		fold(q, b)
		p.Merge(q)
		return []*ColumnStats{p, q}
	}},
	{"pending.Merge(built)", func(fold foldFunc, a, b []float64) []*ColumnStats {
		p, q := NewColumnStats(), NewColumnStats()
		fold(p, a)
		eagerFold(q, b)
		p.Merge(q)
		return []*ColumnStats{p, q}
	}},
	{"built.Merge(pending)", func(fold foldFunc, a, b []float64) []*ColumnStats {
		p, q := NewColumnStats(), NewColumnStats()
		eagerFold(p, a)
		fold(q, b)
		p.Merge(q)
		return []*ColumnStats{p, q}
	}},
	{"Stats+AddAll", func(fold foldFunc, a, b []float64) []*ColumnStats {
		seed := NewColumnStats()
		eagerFold(seed, a)
		c := seed.Sketch().Stats()
		fold(c, b)
		return []*ColumnStats{c}
	}},
	{"AddAll+Quantile+AddAll", func(fold foldFunc, a, b []float64) []*ColumnStats {
		c := NewColumnStats()
		fold(c, a)
		c.Quantile(0.5)
		fold(c, b)
		return []*ColumnStats{c}
	}},
	{"known.Merge(known)", func(fold foldFunc, a, b []float64) []*ColumnStats {
		p, q := known(fold, a), known(fold, b)
		p.Merge(q)
		return []*ColumnStats{p, q}
	}},
}

// known folds xs into a fresh aggregator with fold, and then, in the lazy
// run, rebuilds it the way a stored basis's moments are reused: from the
// moments that fold produced and xs pending (FoldedColumnStats). So the
// lazy run holds the rebuilt aggregator up to the eager reference.
func known(fold foldFunc, xs []float64) *ColumnStats {
	c := NewColumnStats()
	fold(c, xs)
	if c.digest == nil {
		return FoldedColumnStats(c.Moments, xs)
	}
	return c
}

// lazyEagerDiff runs every fold sequence over (a, b) lazily and eagerly
// and describes the first bitwise difference in a quantile readout or a
// serialized sketch field; "" when there is none.
func lazyEagerDiff(a, b []float64) string {
	for _, seq := range foldSequences {
		lazy, eager := seq.run(lazyFold, a, b), seq.run(eagerFold, a, b)
		for i := range lazy {
			for _, q := range []float64{0, 0.05, 0.5, 0.95, 1} {
				lv, _ := lazy[i].Quantile(q)
				ev, _ := eager[i].Quantile(q)
				if math.Float64bits(lv) != math.Float64bits(ev) {
					return fmt.Sprintf("%s: stats %d: quantile %g = %v, eager %v", seq.name, i, q, lv, ev)
				}
			}
			if d := sketchDiff(lazy[i].Sketch(), eager[i].Sketch()); d != "" {
				return fmt.Sprintf("%s: stats %d: %s", seq.name, i, d)
			}
		}
	}
	return ""
}

// sketchDiff compares two sketches field for field, floats bitwise.
func sketchDiff(x, y ColumnSketch) string {
	if x.Count != y.Count {
		return fmt.Sprintf("count %d, eager %d", x.Count, y.Count)
	}
	if len(x.Centroids) != len(y.Centroids) {
		return fmt.Sprintf("%d centroids, eager %d", len(x.Centroids), len(y.Centroids))
	}
	type field struct {
		name string
		x, y float64
	}
	fields := []field{
		{"mean", x.Mean, y.Mean},
		{"m2", x.M2, y.M2},
		{"min", x.Min, y.Min},
		{"max", x.Max, y.Max},
		{"compression", x.Compression, y.Compression},
	}
	for i := range x.Centroids {
		fields = append(fields,
			field{fmt.Sprintf("centroid %d mean", i), x.Centroids[i].Mean, y.Centroids[i].Mean},
			field{fmt.Sprintf("centroid %d weight", i), x.Centroids[i].Weight, y.Centroids[i].Weight})
	}
	for _, f := range fields {
		if math.Float64bits(f.x) != math.Float64bits(f.y) {
			return fmt.Sprintf("%s %v, eager %v", f.name, f.x, f.y)
		}
	}
	return ""
}

// sampleVector returns n values of the named content kind.
func sampleVector(kind string, n int, seed uint64) []float64 {
	s := rng.New(seed)
	xs := make([]float64, n)
	for i := range xs {
		switch kind {
		case "indicator":
			if s.Bernoulli(0.3) {
				xs[i] = 1
			}
		case "duplicates":
			xs[i] = float64(s.Intn(5))
		default:
			xs[i] = s.Normal(10, 3)
		}
		switch {
		case kind == "nan" && i%97 == 3:
			xs[i] = math.NaN()
		case kind == "inf" && i%101 == 5:
			xs[i] = math.Inf(1)
		case kind == "inf" && i%103 == 7:
			xs[i] = math.Inf(-1)
		}
	}
	return xs
}

// TestColumnStatsLazyDigestBitIdentical: deferring the digest to its first
// use changes no bit of any quantile or serialized sketch, across the 512-
// value buffer flush and for indicator, continuous, NaN, ±Inf and duplicate
// samples.
func TestColumnStatsLazyDigestBitIdentical(t *testing.T) {
	for _, n := range []int{0, 1, 511, 512, 513, 1600, 4096} {
		for _, kind := range []string{"indicator", "continuous", "nan", "inf", "duplicates"} {
			a, b := sampleVector(kind, n, 1), sampleVector(kind, n, 2)
			if d := lazyEagerDiff(a, b); d != "" {
				t.Errorf("n=%d %s: %s", n, kind, d)
			}
		}
	}
}

// TestFoldedColumnStats: an aggregator rebuilt from the moments of an
// earlier fold and the folded vector pending is the aggregator NewColumnStats
// and AddAll build over the same vector: the same moments, quantiles and
// sketch, bit for bit, and the same result when merged on either side.
func TestFoldedColumnStats(t *testing.T) {
	for _, n := range []int{0, 1, 511, 512, 513, 1600} {
		for _, kind := range []string{"indicator", "continuous", "nan", "inf", "duplicates"} {
			xs, other := sampleVector(kind, n, 1), sampleVector(kind, n, 2)
			build := func(folded bool) *ColumnStats {
				c := NewColumnStats()
				c.AddAll(xs)
				if folded {
					return FoldedColumnStats(c.Moments, xs)
				}
				return c
			}
			with := func(xs []float64) *ColumnStats {
				c := NewColumnStats()
				c.AddAll(xs)
				return c
			}
			for _, op := range []struct {
				name string
				run  func(c *ColumnStats) *ColumnStats
			}{
				{"as built", func(c *ColumnStats) *ColumnStats { return c }},
				{"merged into", func(c *ColumnStats) *ColumnStats { c.Merge(with(other)); return c }},
				{"merged from", func(c *ColumnStats) *ColumnStats { o := with(other); o.Merge(c); return o }},
			} {
				got, want := op.run(build(true)), op.run(build(false))
				if gm, wm := fmt.Sprint(got.Moments.State()), fmt.Sprint(want.Moments.State()); gm != wm {
					t.Fatalf("n=%d %s %s: moments %s, want %s", n, kind, op.name, gm, wm)
				}
				for _, q := range []float64{0, 0.05, 0.5, 0.95, 1} {
					gv, _ := got.Quantile(q)
					wv, _ := want.Quantile(q)
					if math.Float64bits(gv) != math.Float64bits(wv) {
						t.Fatalf("n=%d %s %s: quantile %g = %v, want %v", n, kind, op.name, q, gv, wv)
					}
				}
				if d := sketchDiff(got.Sketch(), want.Sketch()); d != "" {
					t.Fatalf("n=%d %s %s: %s", n, kind, op.name, d)
				}
			}
		}
	}
}

// FuzzColumnStatsLazyEager checks the lazy/eager bit-identity property on
// arbitrary float bit patterns: raw is read as little-endian float64s,
// tiled 1 + tile%64 times (so short inputs still cross the digest's
// buffer flush), and split at split into the two fold inputs.
func FuzzColumnStatsLazyEager(f *testing.F) {
	enc := func(vals ...float64) []byte {
		raw := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(v))
		}
		return raw
	}
	f.Add(enc(1, 2, 3, 4, 5), uint16(2), uint8(0))
	f.Add(enc(0, 1, 1, 0, 1), uint16(300), uint8(200))
	f.Add(enc(math.NaN(), math.Inf(1), math.Inf(-1), -0.0, 0), uint16(7), uint8(127))
	f.Add(enc(1e308, -1e308, 5e-324), uint16(100), uint8(255))
	f.Add([]byte{}, uint16(0), uint8(0))

	f.Fuzz(func(t *testing.T, raw []byte, split uint16, tile uint8) {
		vals := make([]float64, len(raw)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		xs := make([]float64, 0, len(vals)*(1+int(tile%64)))
		for r := 0; r <= int(tile%64); r++ {
			xs = append(xs, vals...)
		}
		k := int(split) % (len(xs) + 1)
		if d := lazyEagerDiff(xs[:k], xs[k:]); d != "" {
			t.Fatalf("%d+%d values: %s", k, len(xs)-k, d)
		}
	})
}

var benchSink float64

// BenchmarkColumnStatsFold folds one output column and reads it the way a
// GRAPH clause does (EXPECT: moments only) or a summary does (P95: the
// digest too), at the online default and a serverfleet join's row count.
func BenchmarkColumnStatsFold(b *testing.B) {
	for _, n := range []int{400, 1600} {
		xs := sampleVector("continuous", n, 3)
		for _, read := range []string{"EXPECT", "P95"} {
			b.Run(fmt.Sprintf("n=%d/%s", n, read), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					c := NewColumnStats()
					c.AddAll(xs)
					v, err := c.Metric(read)
					if err != nil {
						b.Fatal(err)
					}
					benchSink = v
				}
			})
		}
	}
}
