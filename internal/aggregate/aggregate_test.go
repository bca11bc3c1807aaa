package aggregate

import (
	"errors"
	"math"
	"testing"

	"fuzzyprophet/internal/rng"
)

// Add folds in one world's value.
func (c *ColumnStats) Add(x float64) {
	c.Moments.Add(x)
	c.tdigest().Add(x)
}

func TestColumnStatsBasics(t *testing.T) {
	c := NewColumnStats()
	for _, x := range []float64{1, 2, 3, 4, 5} {
		c.Add(x)
	}
	if c.Count() != 5 {
		t.Errorf("count = %d", c.Count())
	}
	if c.Expect() != 3 {
		t.Errorf("expect = %g", c.Expect())
	}
	if math.Abs(c.StdDev()-math.Sqrt(2.5)) > 1e-12 {
		t.Errorf("stddev = %g", c.StdDev())
	}
	if c.Median() != 3 {
		t.Errorf("median = %g", c.Median())
	}
}

func TestColumnStatsProbIndicator(t *testing.T) {
	c := NewColumnStats()
	for i := 0; i < 100; i++ {
		if i < 25 {
			c.Add(1)
		} else {
			c.Add(0)
		}
	}
	if math.Abs(c.Prob()-0.25) > 1e-12 {
		t.Errorf("prob = %g", c.Prob())
	}
}

func TestColumnStatsQuantiles(t *testing.T) {
	c := NewColumnStats()
	s := rng.New(3)
	for i := 0; i < 50000; i++ {
		c.Add(s.Normal(0, 1))
	}
	if math.Abs(c.Median()) > 0.03 {
		t.Errorf("median = %g, want ~0", c.Median())
	}
	if math.Abs(c.P95()-1.6449) > 0.06 {
		t.Errorf("p95 = %g, want ~1.645", c.P95())
	}
}

func TestMetric(t *testing.T) {
	c := NewColumnStats()
	c.AddAll([]float64{0, 1, 1, 0})
	for _, agg := range []string{"EXPECT", "EXPECT_STDDEV", "PROB", "MEDIAN", "P95"} {
		if _, err := c.Metric(agg); err != nil {
			t.Errorf("Metric(%s): %v", agg, err)
		}
	}
	v, _ := c.Metric("EXPECT")
	if v != 0.5 {
		t.Errorf("EXPECT = %g", v)
	}
	if _, err := c.Metric("BOGUS"); err == nil {
		t.Error("unknown metric should error")
	}
}

// TestMomentsOnly: a moments-only aggregate reads its moments like the
// fold it was copied from, fails every quantile read, and makes whatever
// it is merged into moments-only too.
func TestMomentsOnly(t *testing.T) {
	folded := NewColumnStats()
	folded.AddAll([]float64{1, 4, 9, 16})
	c := MomentsOnly(folded.Moments)
	for _, agg := range []string{"EXPECT", "EXPECT_STDDEV", "PROB"} {
		want, _ := folded.Metric(agg)
		if got, err := c.Metric(agg); err != nil || got != want {
			t.Errorf("Metric(%s) = %v, %v, want %v", agg, got, err, want)
		}
	}
	if c.CI95() != folded.CI95() || c.Count() != folded.Count() {
		t.Error("CI95 or Count differ from the fold")
	}
	for _, agg := range []string{"MEDIAN", "P95"} {
		if _, err := c.Metric(agg); !errors.Is(err, ErrMomentsOnly) {
			t.Errorf("Metric(%s) error = %v, want ErrMomentsOnly", agg, err)
		}
	}
	if !math.IsNaN(c.Median()) || !math.IsNaN(c.P95()) {
		t.Error("Median and P95 of a moments-only aggregate must be NaN")
	}
	folded.Merge(c)
	if folded.Count() != 8 {
		t.Errorf("merged count = %d, want 8", folded.Count())
	}
	if _, err := folded.Quantile(0.5); !errors.Is(err, ErrMomentsOnly) {
		t.Errorf("quantile of a merge with a moments-only aggregate: error = %v, want ErrMomentsOnly", err)
	}
}

func TestConvergence(t *testing.T) {
	x := NewColumnStats()
	p := map[string]*ColumnStats{"x": x}
	if Converged(p, 0.1, 10) {
		t.Error("empty aggregator cannot be converged")
	}
	s := rng.New(5)
	for i := 0; i < 5; i++ {
		x.Add(s.Normal(100, 1))
	}
	if Converged(p, 0.1, 10) {
		t.Error("below minSamples cannot be converged")
	}
	for i := 0; i < 5000; i++ {
		x.Add(s.Normal(100, 1))
	}
	if !Converged(p, 0.01, 10) {
		t.Error("tight distribution with many samples should converge")
	}
	// A huge-variance column blocks convergence at small eps, also beside a
	// converged one.
	y := NewColumnStats()
	for i := 0; i < 100; i++ {
		y.Add(s.Normal(0, 1000))
	}
	if Converged(map[string]*ColumnStats{"x": x, "y": y}, 0.0001, 10) {
		t.Error("noisy column should not converge at tight eps")
	}
}

// TestColumnStatsMerge: shard-wise folding plus Merge matches a whole-vector
// fold — moments to float tolerance, quantiles within sketch tolerance.
func TestColumnStatsMerge(t *testing.T) {
	s := rng.New(17)
	xs := make([]float64, 40000)
	for i := range xs {
		xs[i] = s.Normal(5, 2)
	}
	whole := NewColumnStats()
	whole.AddAll(xs)
	for _, shards := range []int{2, 7, 16} {
		var merged *ColumnStats
		chunk := (len(xs) + shards - 1) / shards
		for lo := 0; lo < len(xs); lo += chunk {
			hi := lo + chunk
			if hi > len(xs) {
				hi = len(xs)
			}
			part := NewColumnStats()
			part.AddAll(xs[lo:hi])
			if merged == nil {
				merged = part
			} else {
				merged.Merge(part)
			}
		}
		if merged.Count() != whole.Count() {
			t.Fatalf("%d shards: count = %d, want %d", shards, merged.Count(), whole.Count())
		}
		if math.Abs(merged.Expect()-whole.Expect()) > 1e-9 {
			t.Errorf("%d shards: expect = %g, want %g", shards, merged.Expect(), whole.Expect())
		}
		if math.Abs(merged.StdDev()-whole.StdDev()) > 1e-9 {
			t.Errorf("%d shards: stddev = %g, want %g", shards, merged.StdDev(), whole.StdDev())
		}
		if merged.Moments.Min() != whole.Moments.Min() || merged.Moments.Max() != whole.Moments.Max() {
			t.Errorf("%d shards: min/max mismatch", shards)
		}
		if math.Abs(merged.Median()-whole.Median()) > 0.05 {
			t.Errorf("%d shards: median = %g, want ~%g", shards, merged.Median(), whole.Median())
		}
		if math.Abs(merged.P95()-whole.P95()) > 0.1 {
			t.Errorf("%d shards: p95 = %g, want ~%g", shards, merged.P95(), whole.P95())
		}
	}
}

// TestColumnSketchRoundTrip: serializing a partial aggregate and merging the
// restored form behaves identically to merging the original.
func TestColumnSketchRoundTrip(t *testing.T) {
	s := rng.New(29)
	a, b := NewColumnStats(), NewColumnStats()
	for i := 0; i < 5000; i++ {
		a.Add(s.Normal(0, 1))
		b.Add(s.Normal(3, 1))
	}
	restoredA := a.Sketch().Stats()
	if restoredA.Count() != a.Count() || restoredA.Expect() != a.Expect() || restoredA.StdDev() != a.StdDev() {
		t.Fatal("sketch round-trip changed moments")
	}
	if restoredA.Median() != a.Median() {
		t.Errorf("round-trip median %g != %g", restoredA.Median(), a.Median())
	}

	direct := NewColumnStats()
	direct.Merge(a)
	direct.Merge(b)
	viaSketch := MergeSketches([]ColumnSketch{a.Sketch(), b.Sketch()})
	if viaSketch.Count() != direct.Count() || viaSketch.Expect() != direct.Expect() {
		t.Errorf("sketch merge: count/mean %d/%g, want %d/%g",
			viaSketch.Count(), viaSketch.Expect(), direct.Count(), direct.Expect())
	}
	if math.Abs(viaSketch.Median()-direct.Median()) > 0.05 {
		t.Errorf("sketch merge median %g, want ~%g", viaSketch.Median(), direct.Median())
	}
	if MergeSketches(nil) != nil {
		t.Error("MergeSketches(nil) should be nil")
	}
}
