package rng

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(12345)
	b := New(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at %d", i)
		}
	}
}

func TestSeedsProduceDistinctStreams(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds matched %d/100 outputs", same)
	}
}

func TestStreamsIndependent(t *testing.T) {
	a := NewStream(7, 0)
	b := NewStream(7, 1)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different streams matched %d/100 outputs", same)
	}
}

func TestDeriveDeterministicAndDistinct(t *testing.T) {
	a := Derive(42, "world", 3)
	b := Derive(42, "world", 3)
	c := Derive(42, "world", 4)
	d := Derive(42, "other", 3)
	for i := 0; i < 100; i++ {
		av := a.Uint64()
		if av != b.Uint64() {
			t.Fatal("same derivation must match")
		}
		if av == c.Uint64() || av == d.Uint64() {
			t.Fatal("distinct derivations should not match")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(9)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %g", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(10)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("uniform mean = %g, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(11)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		v := s.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		if c < 9000 || c > 11000 {
			t.Errorf("Intn(7) bucket %d count %d, want ~10000", i, c)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormalMoments(t *testing.T) {
	s := New(13)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		x := s.Normal(10, 3)
		sum += x
		sumsq += x * x
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("normal mean = %g, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-3) > 0.05 {
		t.Errorf("normal stddev = %g, want ~3", math.Sqrt(variance))
	}
}

func TestNormalPanicsOnNegativeStddev(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative stddev should panic")
		}
	}()
	New(1).Normal(0, -1)
}

func TestExponentialMean(t *testing.T) {
	s := New(14)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Exponential(2)
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("exp(rate=2) mean = %g, want ~0.5", mean)
	}
}

func TestPoissonSmallMean(t *testing.T) {
	s := New(15)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(s.Poisson(3.5))
	}
	mean := sum / n
	if math.Abs(mean-3.5) > 0.05 {
		t.Errorf("poisson(3.5) mean = %g", mean)
	}
}

func TestPoissonLargeMean(t *testing.T) {
	s := New(16)
	const n = 100000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		x := float64(s.Poisson(100))
		sum += x
		sumsq += x * x
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-100) > 0.5 {
		t.Errorf("poisson(100) mean = %g", mean)
	}
	if math.Abs(variance-100) > 3 {
		t.Errorf("poisson(100) variance = %g", variance)
	}
}

func TestPoissonZeroAndPanic(t *testing.T) {
	if New(1).Poisson(0) != 0 {
		t.Error("poisson(0) must be 0")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative mean should panic")
		}
	}()
	New(1).Poisson(-1)
}

// poissonReference is the per-draw sampler Poisson replaced: it recomputes
// exp(-mean) and the PTRS constants on every call.
func poissonReference(s *Source, mean float64) int64 {
	if mean == 0 {
		return 0
	}
	if mean < 30 {
		l := math.Exp(-mean)
		k := int64(0)
		p := 1.0
		for {
			p *= s.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	b := 0.931 + 2.53*math.Sqrt(mean)
	a := -0.059 + 0.02483*b
	invalpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)
	for {
		u := s.Float64() - 0.5
		v := s.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + mean + 0.43)
		if us >= 0.07 && v <= vr {
			return int64(k)
		}
		if k < 0 || (us < 0.013 && v > us) {
			continue
		}
		if math.Log(v*invalpha/(a/(us*us)+b)) <= k*math.Log(mean)-mean-logGamma(k+1) {
			return int64(k)
		}
	}
}

// TestPoissonPrecomputedBitIdentical: a Poisson built once draws exactly
// the variates — and consumes exactly the stream — of the per-draw sampler,
// on both sides of the Knuth/PTRS switch at 30.
func TestPoissonPrecomputedBitIdentical(t *testing.T) {
	for _, mean := range []float64{0, 1e-300, 0.5, 29.999, 30, 31, 1e6} {
		p := NewPoisson(mean)
		for seed := uint64(0); seed < 50; seed++ {
			got, want := New(seed), New(seed)
			wrapped := New(seed)
			for i := 0; i < 40; i++ {
				g, w, v := p.Sample(got), poissonReference(want, mean), wrapped.Poisson(mean)
				if g != w || v != w {
					t.Fatalf("mean %g seed %d draw %d: Sample %d, Source.Poisson %d, reference %d", mean, seed, i, g, v, w)
				}
			}
			if *got != *want || *wrapped != *want {
				t.Fatalf("mean %g seed %d: stream state diverged", mean, seed)
			}
		}
	}
}

func TestGammaMoments(t *testing.T) {
	s := New(17)
	const n = 100000
	shape, scale := 2.5, 1.5
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Gamma(shape, scale)
	}
	mean := sum / n
	if math.Abs(mean-shape*scale) > 0.05 {
		t.Errorf("gamma mean = %g, want %g", mean, shape*scale)
	}
}

func TestGammaSmallShape(t *testing.T) {
	s := New(18)
	const n = 100000
	shape, scale := 0.5, 2.0
	var sum float64
	for i := 0; i < n; i++ {
		x := s.Gamma(shape, scale)
		if x < 0 {
			t.Fatalf("gamma variate negative: %g", x)
		}
		sum += x
	}
	mean := sum / n
	if math.Abs(mean-shape*scale) > 0.05 {
		t.Errorf("gamma(0.5,2) mean = %g, want 1", mean)
	}
}

func TestWeibullMean(t *testing.T) {
	s := New(19)
	const n = 100000
	// shape=1 reduces to exponential with mean = scale.
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Weibull(1, 2)
	}
	if mean := sum / n; math.Abs(mean-2) > 0.05 {
		t.Errorf("weibull(1,2) mean = %g, want 2", mean)
	}
}

// ksDistance is the one-sample Kolmogorov–Smirnov statistic of xs against
// the distribution whose CDF is cdf: the largest gap between the empirical
// and the closed-form CDF. It sorts xs.
func ksDistance(xs []float64, cdf func(float64) float64) float64 {
	sort.Float64s(xs)
	n := float64(len(xs))
	d := 0.0
	for i, x := range xs {
		f := cdf(x)
		d = math.Max(d, math.Max(f-float64(i)/n, float64(i+1)/n-f))
	}
	return d
}

// chiSquare is Pearson's goodness-of-fit statistic of draws from a
// distribution on {0, 1, ...} against its pmf, with its degrees of freedom.
// Neighbouring values share a bin until the bin expects at least 5 draws;
// the last bin also takes the whole upper tail.
func chiSquare(draws []int64, pmf func(int64) float64) (float64, int) {
	n := float64(len(draws))
	counts := map[int64]float64{}
	top := int64(0)
	for _, k := range draws {
		counts[k]++
		top = max(top, k)
	}
	var obs, exp []float64
	var o, e, cum float64
	for k := int64(0); k <= top; k++ {
		p := pmf(k)
		o, e, cum = o+counts[k], e+n*p, cum+p
		// Close the bin only if what is left can still fill one.
		if e >= 5 && n*(1-cum) >= 5 {
			obs, exp = append(obs, o), append(exp, e)
			o, e = 0, 0
		}
	}
	obs, exp = append(obs, o), append(exp, e+n*(1-cum))
	stat := 0.0
	for i := range obs {
		d := obs[i] - exp[i]
		stat += d * d / exp[i]
	}
	return stat, len(obs) - 1
}

// chiSquareCritical is the α = 0.001 critical value of the chi-square
// distribution with df degrees of freedom, by the Wilson–Hilferty
// approximation (z = 3.0902 is the standard normal's 0.999 quantile).
func chiSquareCritical(df int) float64 {
	v := 2 / (9 * float64(df))
	return float64(df) * math.Pow(1-v+3.0902*math.Sqrt(v), 3)
}

// TestDistributionShapes checks whole shapes, not only means: n draws of
// each continuous distribution at a fixed seed must sit within the
// α = 0.001 one-sample KS critical value, 1.95/√n, of the closed-form CDF,
// and n draws of each discrete one within the α = 0.001 chi-square critical
// value of its closed-form pmf.
func TestDistributionShapes(t *testing.T) {
	const n = 20000
	critical := 1.95 / math.Sqrt(n)
	normal := func(mu, sigma float64) func(float64) float64 {
		return func(x float64) float64 { return 0.5 * math.Erfc(-(x-mu)/(sigma*math.Sqrt2)) }
	}
	for i, tc := range []struct {
		name string
		draw func(*Source) float64
		cdf  func(float64) float64
	}{
		{"Normal(3, 2)", func(s *Source) float64 { return s.Normal(3, 2) }, normal(3, 2)},
		{"LogNormal(0.5, 0.75)", func(s *Source) float64 { return s.LogNormal(0.5, 0.75) }, func(x float64) float64 {
			if x <= 0 {
				return 0
			}
			return normal(0.5, 0.75)(math.Log(x))
		}},
		{"Exponential(2.5)", func(s *Source) float64 { return s.Exponential(2.5) }, func(x float64) float64 {
			return -math.Expm1(-2.5 * math.Max(x, 0))
		}},
		{"Weibull(1.7, 3)", func(s *Source) float64 { return s.Weibull(1.7, 3) }, func(x float64) float64 {
			return -math.Expm1(-math.Pow(math.Max(x, 0)/3, 1.7))
		}},
		{"Uniform(-2, 5)", func(s *Source) float64 { return s.Uniform(-2, 5) }, func(x float64) float64 {
			return math.Min(math.Max((x+2)/7, 0), 1)
		}},
		// Gamma with an integer shape is Erlang: F(x) = 1 - e^(-y) Σ_{i<3} y^i/i!, y = x/θ.
		{"Gamma(3, 1.5)", func(s *Source) float64 { return s.Gamma(3, 1.5) }, func(x float64) float64 {
			y := math.Max(x, 0) / 1.5
			return 1 - math.Exp(-y)*(1+y+y*y/2)
		}},
	} {
		s := New(uint64(101 + i))
		xs := make([]float64, n)
		for j := range xs {
			xs[j] = tc.draw(s)
		}
		if d := ksDistance(xs, tc.cdf); d > critical {
			t.Errorf("%s: KS distance %.4f exceeds the α = 0.001 critical value %.4f", tc.name, d, critical)
		}
	}

	poisson := func(mean float64) func(int64) float64 {
		return func(k int64) float64 {
			lg, _ := math.Lgamma(float64(k) + 1)
			return math.Exp(float64(k)*math.Log(mean) - mean - lg)
		}
	}
	binomial := func(trials int, p float64) func(int64) float64 {
		return func(k int64) float64 {
			if k > int64(trials) {
				return 0
			}
			n, kf := float64(trials), float64(k)
			a, _ := math.Lgamma(n + 1)
			b, _ := math.Lgamma(kf + 1)
			c, _ := math.Lgamma(n - kf + 1)
			return math.Exp(a - b - c + kf*math.Log(p) + (n-kf)*math.Log1p(-p))
		}
	}
	for i, tc := range []struct {
		name string
		draw func(*Source) int64
		pmf  func(int64) float64
	}{
		{"Poisson(0.5)", func(s *Source) int64 { return s.Poisson(0.5) }, poisson(0.5)},
		{"Poisson(12)", func(s *Source) int64 { return s.Poisson(12) }, poisson(12)},
		{"Poisson(60)", func(s *Source) int64 { return s.Poisson(60) }, poisson(60)}, // the PTRS branch
		{"Binomial(10, 0.3)", func(s *Source) int64 { return s.Binomial(10, 0.3) }, binomial(10, 0.3)},
		{"Binomial(1000, 0.01)", func(s *Source) int64 { return s.Binomial(1000, 0.01) }, binomial(1000, 0.01)},
	} {
		s := New(uint64(201 + i))
		ks := make([]int64, n)
		for j := range ks {
			ks[j] = tc.draw(s)
		}
		stat, df := chiSquare(ks, tc.pmf)
		if df < 1 {
			t.Fatalf("%s: %d degrees of freedom", tc.name, df)
		}
		if c := chiSquareCritical(df); stat > c {
			t.Errorf("%s: chi-square %.1f on %d df exceeds the α = 0.001 critical value %.1f", tc.name, stat, df, c)
		}
	}
}

func TestBinomialSmallAndLarge(t *testing.T) {
	s := New(20)
	const n = 50000
	var sumSmall, sumLarge float64
	for i := 0; i < n; i++ {
		sumSmall += float64(s.Binomial(10, 0.3))
		sumLarge += float64(s.Binomial(1000, 0.01))
	}
	if m := sumSmall / n; math.Abs(m-3) > 0.05 {
		t.Errorf("binomial(10,0.3) mean = %g, want 3", m)
	}
	if m := sumLarge / n; math.Abs(m-10) > 0.15 {
		t.Errorf("binomial(1000,0.01) mean = %g, want 10", m)
	}
}

func TestBinomialEdgeCases(t *testing.T) {
	s := New(21)
	if s.Binomial(0, 0.5) != 0 {
		t.Error("binomial(0,·) must be 0")
	}
	if s.Binomial(5, 0) != 0 {
		t.Error("binomial(·,0) must be 0")
	}
	if s.Binomial(5, 1) != 5 {
		t.Error("binomial(5,1) must be 5")
	}
}

func TestBernoulliExtremes(t *testing.T) {
	s := New(22)
	if s.Bernoulli(0) {
		t.Error("Bernoulli(0) must be false")
	}
	if !s.Bernoulli(1) {
		t.Error("Bernoulli(1) must be true")
	}
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.25) {
			hits++
		}
	}
	if p := float64(hits) / n; math.Abs(p-0.25) > 0.01 {
		t.Errorf("Bernoulli(0.25) rate = %g", p)
	}
}

func TestUniformRange(t *testing.T) {
	s := New(23)
	for i := 0; i < 10000; i++ {
		x := s.Uniform(-2, 5)
		if x < -2 || x >= 5 {
			t.Fatalf("Uniform(-2,5) = %g", x)
		}
	}
}

func TestQuickDerivePure(t *testing.T) {
	f := func(seed, idx uint64, label string) bool {
		if len(label) > 32 {
			label = label[:32]
		}
		a := Derive(seed, label, idx)
		b := Derive(seed, label, idx)
		return a.Uint64() == b.Uint64() && a.Uint64() == b.Uint64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// referenceDerive is Derive as first written — hash the label, then seed a
// fresh stream step by step — the oracle Key(...).At(...) must reproduce.
func referenceDerive(seed uint64, label string, index uint64) *Source {
	h := splitmix64(seed)
	for i := 0; i < len(label); i++ {
		h = splitmix64(h ^ uint64(label[i])*0x100000001b3)
	}
	s := &Source{inc: (splitmix64(splitmix64(h^index*0x9e3779b97f4a7c15)) << 1) | 1}
	s.next()
	s.state += splitmix64(h)
	s.next()
	return s
}

// Key(seed, label).At(index) is the stream Derive(seed, label, index)
// always was: same state, same increment, same draws.
func TestKeyAtMatchesDerive(t *testing.T) {
	check := func(seed uint64, label string, index uint64) {
		t.Helper()
		want := referenceDerive(seed, label, index)
		got := Key(seed, label).At(index)
		if got != *want || *Derive(seed, label, index) != *want {
			t.Fatalf("Key(%d, %q).At(%d) = %+v, Derive = %+v, want %+v",
				seed, label, index, got, *Derive(seed, label, index), *want)
		}
		for i := 0; i < 4; i++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("Key(%d, %q).At(%d) draw %d = %d, want %d", seed, label, index, i, g, w)
			}
		}
	}
	edges := []uint64{0, 1, 1 << 32, math.MaxUint64}
	for _, seed := range edges {
		for _, label := range []string{"", "w", "world.CapacityModel#0", "capacity.fail.disk"} {
			for _, index := range edges {
				check(seed, label, index)
			}
		}
	}
	src := New(20110612)
	for n := 0; n < 2000; n++ {
		label := make([]byte, src.Intn(24))
		for i := range label {
			label[i] = byte(src.next())
		}
		check(src.Uint64(), string(label), src.Uint64())
	}
}

// Golden stream values: these pin the exact generator output forever. If
// this test ever fails, fingerprint reuse across versions is broken, which
// is a reuse-contract violation — do not update the constants casually.
func TestGoldenStream(t *testing.T) {
	s := New(20110612) // SIGMOD'11 demo week
	got := []uint64{s.Uint64(), s.Uint64(), s.Uint64()}
	want := []uint64{10468283027615151658, 3249371686644954416, 16195355249611632053}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("golden stream mismatch at %d: got %d, want %d", i, got[i], want[i])
		}
	}
	d := Derive(1, "world.CapacityModel#0", 0)
	if got := d.Uint64(); got != 10662317824455351390 {
		t.Fatalf("golden derived stream changed: %d", got)
	}
	// Distribution of bits sanity: popcount average near 32.
	s = New(7)
	var bits int
	for i := 0; i < 1000; i++ {
		bits += popcount(s.Uint64())
	}
	avg := float64(bits) / 1000
	if avg < 31 || avg > 33 {
		t.Errorf("average popcount %g, want ~32", avg)
	}
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkNormal(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Normal(0, 1)
	}
}

func BenchmarkPoisson100(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Poisson(100)
	}
}
