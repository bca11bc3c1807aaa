package stats

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"fuzzyprophet/internal/rng"
)

func naiveMoments(xs []float64) (mean, variance float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean = sum / float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	var sse float64
	for _, x := range xs {
		d := x - mean
		sse += d * d
	}
	return mean, sse / float64(len(xs)-1)
}

func TestMomentsBasics(t *testing.T) {
	var m Moments
	if m.Count() != 0 || m.Mean() != 0 || m.Variance() != 0 {
		t.Fatal("zero Moments must be empty")
	}
	for _, x := range []float64{1, 2, 3, 4, 5} {
		m.Add(x)
	}
	if m.Count() != 5 {
		t.Errorf("count = %d", m.Count())
	}
	if m.Mean() != 3 {
		t.Errorf("mean = %g", m.Mean())
	}
	if math.Abs(m.Variance()-2.5) > 1e-12 {
		t.Errorf("variance = %g, want 2.5", m.Variance())
	}
	if m.Min() != 1 || m.Max() != 5 {
		t.Errorf("min/max = %g/%g", m.Min(), m.Max())
	}
	if math.Abs(m.StdDev()-math.Sqrt(2.5)) > 1e-12 {
		t.Errorf("stddev = %g", m.StdDev())
	}
}

// Property: Welford matches the naive two-pass computation.
func TestQuickWelfordMatchesNaive(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e6 {
				continue
			}
			xs = append(xs, x)
		}
		var m Moments
		for _, x := range xs {
			m.Add(x)
		}
		wantMean, wantVar := naiveMoments(xs)
		scale := 1.0 + math.Abs(wantMean)
		if math.Abs(m.Mean()-wantMean) > 1e-9*scale {
			return false
		}
		return math.Abs(m.Variance()-wantVar) <= 1e-6*(1+wantVar)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Merge(a,b) equals feeding all samples into one accumulator.
func TestQuickMergeEquivalent(t *testing.T) {
	f := func(a, b []float64) bool {
		clean := func(in []float64) []float64 {
			out := make([]float64, 0, len(in))
			for _, x := range in {
				if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
					out = append(out, x)
				}
			}
			return out
		}
		a, b = clean(a), clean(b)
		var ma, mb, mall Moments
		for _, x := range a {
			ma.Add(x)
			mall.Add(x)
		}
		for _, x := range b {
			mb.Add(x)
			mall.Add(x)
		}
		ma.Merge(&mb)
		if ma.Count() != mall.Count() {
			return false
		}
		scale := 1 + math.Abs(mall.Mean())
		return math.Abs(ma.Mean()-mall.Mean()) < 1e-9*scale &&
			math.Abs(ma.Variance()-mall.Variance()) < 1e-6*(1+mall.Variance())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMergeEmptySides(t *testing.T) {
	var a, b Moments
	b.Add(2)
	b.Add(4)
	a.Merge(&b)
	if a.Count() != 2 || a.Mean() != 3 {
		t.Errorf("merge into empty: count=%d mean=%g", a.Count(), a.Mean())
	}
	var c Moments
	a.Merge(&c)
	if a.Count() != 2 {
		t.Error("merging empty should be a no-op")
	}
}

func TestCI95AndConvergence(t *testing.T) {
	var m Moments
	if m.CI95() != 0 {
		t.Error("empty CI must be 0")
	}
	s := rng.New(5)
	for i := 0; i < 10; i++ {
		m.Add(s.Normal(0, 1))
	}
	for i := 0; i < 100000; i++ {
		m.Add(s.Normal(0, 1))
	}
	if ci := m.CI95(); ci <= 0 || ci > 0.05 {
		t.Errorf("CI after 100010 N(0,1) samples = %g, want in (0, 0.05]", ci)
	}
}

func TestCorrelation(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{2, 4, 6, 8}
	r, err := Correlation(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-1) > 1e-12 {
		t.Errorf("perfect positive correlation = %g", r)
	}
	yneg := []float64{8, 6, 4, 2}
	r, _ = Correlation(x, yneg)
	if math.Abs(r+1) > 1e-12 {
		t.Errorf("perfect negative correlation = %g", r)
	}
	flat := []float64{5, 5, 5, 5}
	r, err = Correlation(x, flat)
	if err != nil || r != 0 {
		t.Errorf("zero-variance correlation = %g, %v", r, err)
	}
	if _, err := Correlation(x, []float64{1}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := Correlation([]float64{1}, []float64{1}); err == nil {
		t.Error("n<2 should error")
	}
}

func TestFitAffineExact(t *testing.T) {
	x := []float64{0, 1, 2, 3, 4}
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = 2.5*v - 3
	}
	fit, err := FitAffine(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.A-2.5) > 1e-12 || math.Abs(fit.B+3) > 1e-12 {
		t.Errorf("fit = %+v", fit)
	}
	if fit.RMSE > 1e-12 || fit.RelRMSE > 1e-12 {
		t.Errorf("exact fit residual = %+v", fit)
	}
	if math.Abs(fit.R2-1) > 1e-12 {
		t.Errorf("R2 = %g", fit.R2)
	}
	if got := fit.Apply(10); math.Abs(got-22) > 1e-12 {
		t.Errorf("Apply(10) = %g", got)
	}
	mapped := fit.ApplySlice([]float64{0, 1})
	if mapped[0] != -3 || math.Abs(mapped[1]-(-0.5)) > 1e-12 {
		t.Errorf("ApplySlice = %v", mapped)
	}
}

func TestFitAffineConstantX(t *testing.T) {
	x := []float64{2, 2, 2}
	y := []float64{5, 7, 9}
	fit, err := FitAffine(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if fit.A != 0 || fit.B != 7 {
		t.Errorf("degenerate fit = %+v", fit)
	}
}

func TestFitAffineConstantYExact(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 4, 4}
	fit, err := FitAffine(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if fit.RelRMSE != 0 {
		t.Errorf("constant-y exact fit RelRMSE = %g", fit.RelRMSE)
	}
	if fit.R2 != 1 {
		t.Errorf("constant-y exact fit R2 = %g", fit.R2)
	}
}

func TestFitAffineErrors(t *testing.T) {
	if _, err := FitAffine([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := FitAffine([]float64{1}, []float64{1}); err == nil {
		t.Error("n<2 should error")
	}
}

// Property: FitAffine recovers a planted affine relation on noiseless data.
func TestQuickFitAffineRecoversPlanted(t *testing.T) {
	f := func(seed uint64, ai, bi int16) bool {
		a := float64(ai) / 64
		b := float64(bi) / 64
		s := rng.New(seed)
		x := make([]float64, 16)
		y := make([]float64, 16)
		spread := false
		for i := range x {
			x[i] = s.Normal(0, 10)
			y[i] = a*x[i] + b
			if i > 0 && x[i] != x[0] {
				spread = true
			}
		}
		if !spread {
			return true
		}
		fit, err := FitAffine(x, y)
		if err != nil {
			return false
		}
		return math.Abs(fit.A-a) < 1e-6*(1+math.Abs(a)) && math.Abs(fit.B-b) < 1e-6*(1+math.Abs(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMaxAbsDiff(t *testing.T) {
	d, err := MaxAbsDiff([]float64{1, 2, 3}, []float64{1, 2.5, 2})
	if err != nil {
		t.Fatal(err)
	}
	if d != 1 {
		t.Errorf("MaxAbsDiff = %g", d)
	}
	if _, err := MaxAbsDiff([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestKSDistance(t *testing.T) {
	s := rng.New(77)
	a := make([]float64, 2000)
	b := make([]float64, 2000)
	c := make([]float64, 2000)
	for i := range a {
		a[i] = s.Normal(0, 1)
		b[i] = s.Normal(0, 1)
		c[i] = s.Normal(3, 1)
	}
	same, err := KSDistance(a, b)
	if err != nil {
		t.Fatal(err)
	}
	diff, _ := KSDistance(a, c)
	if same > 0.08 {
		t.Errorf("same-distribution KS = %g, expected small", same)
	}
	if diff < 0.5 {
		t.Errorf("shifted-distribution KS = %g, expected large", diff)
	}
	if _, err := KSDistance(nil, a); err == nil {
		t.Error("empty sample should error")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, tt := range []struct {
		q    float64
		want float64
	}{{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}} {
		got, err := Quantile(xs, tt.q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Quantile(%g) = %g, want %g", tt.q, got, tt.want)
		}
	}
	if _, err := Quantile(nil, 0.5); err == nil {
		t.Error("empty quantile should error")
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Error("q out of range should error")
	}
	one, err := Quantile([]float64{9}, 0.7)
	if err != nil || one != 9 {
		t.Errorf("single-sample quantile = %g, %v", one, err)
	}
}

// MaxAbsDiff returns the maximum absolute elementwise difference of two
// equal-length vectors, used for identity-mapping detection.
func MaxAbsDiff(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("stats: MaxAbsDiff length mismatch %d vs %d", len(x), len(y))
	}
	var m float64
	for i := range x {
		d := math.Abs(x[i] - y[i])
		if d > m {
			m = d
		}
	}
	return m, nil
}

// KSDistance computes the two-sample Kolmogorov–Smirnov statistic, the
// maximum distance between empirical CDFs. The fingerprint validator uses
// it to check that a re-mapped sample set is distributionally close to a
// directly simulated one.
func KSDistance(a, b []float64) (float64, error) {
	if len(a) == 0 || len(b) == 0 {
		return 0, fmt.Errorf("stats: KSDistance needs non-empty samples")
	}
	as := append([]float64(nil), a...)
	bs := append([]float64(nil), b...)
	sort.Float64s(as)
	sort.Float64s(bs)
	var i, j int
	var d float64
	for i < len(as) && j < len(bs) {
		if as[i] <= bs[j] {
			i++
		} else {
			j++
		}
		fa := float64(i) / float64(len(as))
		fb := float64(j) / float64(len(bs))
		if diff := math.Abs(fa - fb); diff > d {
			d = diff
		}
	}
	return d, nil
}
