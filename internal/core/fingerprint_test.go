package core

import (
	"math"
	"testing"
	"testing/quick"

	"fuzzyprophet/internal/rng"
	"fuzzyprophet/internal/value"
)

// gauss simulates a VG function: a normal variate whose mean and stddev are
// the "parameters".
func gauss(mean, stddev float64) func(seed uint64) (float64, error) {
	return func(seed uint64) (float64, error) {
		return rng.New(seed).Normal(mean, stddev), nil
	}
}

// compute fingerprints f at cfg.Length probe seeds, standing in for a
// point's first k world seeds.
func compute(cfg Config, f func(seed uint64) (float64, error)) (Fingerprint, error) {
	seeds := testSeeds(0x66757a7a79, cfg.Length)
	out := make([]float64, len(seeds))
	for i, s := range seeds {
		v, err := f(s)
		if err != nil {
			return Fingerprint{}, err
		}
		out[i] = v
	}
	return Fingerprint{Outputs: out}, nil
}

func testSeeds(base uint64, n int) []uint64 {
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = rng.Derive(base, "probe", uint64(i)).Uint64()
	}
	return seeds
}

func TestMatchIdentity(t *testing.T) {
	cfg := DefaultConfig()
	a, _ := compute(cfg, gauss(5, 1))
	b, _ := compute(cfg, gauss(5, 1))
	m, err := Match(cfg, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != MappingIdentity {
		t.Fatalf("kind = %v, want identity", m.Kind)
	}
	samples := []float64{1, 2, 3}
	mapped, err := m.Apply(samples)
	if err != nil {
		t.Fatal(err)
	}
	for i := range samples {
		if mapped[i] != samples[i] {
			t.Error("identity mapping must preserve samples")
		}
	}
	// Apply must copy, not alias.
	mapped[0] = 99
	if samples[0] == 99 {
		t.Error("identity Apply must not alias input")
	}

	// Finite extremes still compare identical; the non-finite cases are
	// in TestMatchNone.
	for _, v := range [][]float64{
		{0, math.Copysign(0, -1), 1}, {math.MaxFloat64, -math.MaxFloat64, 5e-324},
	} {
		if m, err := Match(cfg, Fingerprint{Outputs: v}, Fingerprint{Outputs: v}); err != nil || m.Kind != MappingIdentity {
			t.Errorf("Match(%v, itself) = %v, %v; want identity", v, m.Kind, err)
		}
	}
}

func TestMatchAffine(t *testing.T) {
	cfg := DefaultConfig()
	base, _ := compute(cfg, gauss(0, 1))
	// Shifted and scaled versions of the same underlying variate: exact
	// affine relation y = 3x + 10.
	shifted, _ := compute(cfg, func(seed uint64) (float64, error) {
		return 3*rng.New(seed).Normal(0, 1) + 10, nil
	})
	m, err := Match(cfg, base, shifted)
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != MappingAffine {
		t.Fatalf("kind = %v, want affine", m.Kind)
	}
	if math.Abs(m.Fit.A-3) > 1e-9 || math.Abs(m.Fit.B-10) > 1e-9 {
		t.Errorf("fit = %+v", m.Fit)
	}
	if m.Correlation < 0.999 {
		t.Errorf("correlation = %g", m.Correlation)
	}
	y, err := m.Apply([]float64{2})
	if err != nil || math.Abs(y[0]-16) > 1e-9 {
		t.Errorf("Apply = %v", y)
	}
}

func TestMatchNone(t *testing.T) {
	cfg := DefaultConfig()
	a, _ := compute(cfg, gauss(0, 1))
	// An unrelated stream: different seed derivation breaks correlation.
	b, _ := compute(cfg, func(seed uint64) (float64, error) {
		return rng.Derive(seed, "other", 1).Normal(0, 1), nil
	})
	m, err := Match(cfg, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != MappingNone {
		t.Fatalf("kind = %v, want none (corr=%g)", m.Kind, m.Correlation)
	}
	if _, err := m.Apply([]float64{1}); err == nil {
		t.Error("applying a none mapping should error")
	}

	// A NaN or ±Inf output matches nothing, not even itself.
	nan, inf := math.NaN(), math.Inf(1)
	for _, pair := range [][2][]float64{
		{{nan, nan, nan}, {1, 2, 3}},
		{{1, 2, 3}, {nan, nan, nan}},
		{{nan, nan, nan}, {nan, nan, nan}},
		{{1, nan, 3}, {1, 2, 3}},
		{{1, 2, inf}, {1, 2, 3}},
		{{1, 2, 3}, {1, 2, -inf}},
		{{1, 2, inf}, {1, 2, inf}},
		{{inf, inf, inf}, {inf, inf, inf}},
		{{1, 2, inf}, {1, 2, -inf}},
	} {
		m, err := Match(cfg, Fingerprint{Outputs: pair[0]}, Fingerprint{Outputs: pair[1]})
		if err != nil || m.Kind != MappingNone {
			t.Errorf("Match(%v, %v) = %v, %v; want none", pair[0], pair[1], m.Kind, err)
		}
	}
}

func TestMatchLengthMismatch(t *testing.T) {
	cfg := DefaultConfig()
	a, _ := compute(cfg, gauss(0, 1))
	short := Fingerprint{Outputs: []float64{1, 2}}
	if _, err := Match(cfg, a, short); err == nil {
		t.Error("length mismatch should error")
	}
	tiny := Fingerprint{Outputs: []float64{1}}
	if _, err := Match(cfg, tiny, tiny); err == nil {
		t.Error("too-short fingerprints should error")
	}
}

// Property: for any affine transformation of a common underlying variate,
// Match finds the planted (A, B) and re-mapped Monte Carlo samples equal
// direct simulation exactly.
func TestQuickAffineRemapExact(t *testing.T) {
	cfg := DefaultConfig()
	f := func(ai, bi int16) bool {
		a := 0.5 + math.Abs(float64(ai))/2048 // keep away from degenerate a=0
		b := float64(bi) / 128
		basisFn := gauss(0, 1)
		targetFn := func(seed uint64) (float64, error) {
			x, _ := basisFn(seed)
			return a*x + b, nil
		}
		fpB, err := compute(cfg, basisFn)
		if err != nil {
			return false
		}
		fpT, err := compute(cfg, targetFn)
		if err != nil {
			return false
		}
		m, err := Match(cfg, fpB, fpT)
		if err != nil || m.Kind == MappingNone {
			return false
		}
		// Simulate 100 worlds at the basis, remap, compare with direct.
		worlds := testSeeds(99, 100)
		basisSamples := make([]float64, len(worlds))
		directSamples := make([]float64, len(worlds))
		for i, s := range worlds {
			basisSamples[i], _ = basisFn(s)
			directSamples[i], _ = targetFn(s)
		}
		mapped, err := m.Apply(basisSamples)
		if err != nil {
			return false
		}
		for i := range mapped {
			scale := 1 + math.Abs(directSamples[i])
			if math.Abs(mapped[i]-directSamples[i]) > 1e-6*scale {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPointKey(t *testing.T) {
	a := PointKey(map[string]value.Value{
		"current": value.Int(5), "feature": value.Int(12),
	})
	b := PointKey(map[string]value.Value{
		"feature": value.Int(12), "current": value.Int(5),
	})
	if a != b {
		t.Error("PointKey must be order-independent")
	}
	c := PointKey(map[string]value.Value{
		"current": value.Int(6), "feature": value.Int(12),
	})
	if a == c {
		t.Error("distinct points must get distinct keys")
	}
	if PointKey(nil) != "" {
		t.Error("empty point key should be empty")
	}
	if a != "current=5,feature=12" {
		t.Errorf("key = %q", a)
	}
	// Keys built in one buffer, with one names slice reused from point to
	// point, equal PointKey.
	var names []string
	var buf []byte
	for _, p := range []map[string]value.Value{
		{"current": value.Int(5), "feature": value.Int(12)},
		{"feature": value.Int(44), "current": value.Int(6)},
		{"current": value.Int(5), "purchase": value.Int(12)},
		{"current": value.Int(5)},
		{"b": value.Int(1), "a": value.Int(2), "c": value.Int(3)},
		nil,
	} {
		names = SortedNames(names, p)
		start := len(buf)
		buf = AppendPointKey(buf, names, p)
		if got, want := string(buf[start:]), PointKey(p); got != want {
			t.Errorf("AppendPointKey(%v) = %q, want %q", p, got, want)
		}
	}
}

func TestIndexPutGetAndFind(t *testing.T) {
	cfg := DefaultConfig()
	ix, err := NewIndex(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fpA, _ := compute(cfg, gauss(0, 1))
	fpB, _ := compute(cfg, gauss(100, 30))
	ix.Put("capacity", "p=0", fpA)
	ix.Put("capacity", "p=1", fpB)
	if n := len(ix.entries["capacity"]); n != 2 {
		t.Errorf("size = %d", n)
	}
	// Replacement.
	ix.Put("capacity", "p=0", fpB)
	if got := ix.entries["capacity"][0]; got.key != "p=0" || got.fp.Outputs[0] != fpB.Outputs[0] {
		t.Error("Put should replace")
	}
	if n := len(ix.entries["capacity"]); n != 2 {
		t.Error("replace should not grow the index")
	}

	// Identity lookup.
	target, _ := compute(cfg, gauss(100, 30))
	res, ok := ix.FindMapping("capacity", target)
	if !ok || res.Mapping.Kind != MappingIdentity {
		t.Fatalf("find = %+v, %v", res, ok)
	}
	st := ix.Stats()
	if st.Identity != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestIndexPrefersIdentityOverAffine(t *testing.T) {
	cfg := DefaultConfig()
	ix, _ := NewIndex(cfg)
	base := gauss(0, 1)
	affineFp, _ := compute(cfg, func(seed uint64) (float64, error) {
		x, _ := base(seed)
		return 2*x + 1, nil
	})
	exactFp, _ := compute(cfg, base)
	ix.Put("out", "affine-basis", affineFp)
	ix.Put("out", "exact-basis", exactFp)
	target, _ := compute(cfg, base)
	res, ok := ix.FindMapping("out", target)
	if !ok || res.Mapping.Kind != MappingIdentity || res.BasisKey != "exact-basis" {
		t.Errorf("res = %+v, ok=%v", res, ok)
	}
}

func TestIndexNoMatchCountsComputed(t *testing.T) {
	cfg := DefaultConfig()
	ix, _ := NewIndex(cfg)
	fpA, _ := compute(cfg, gauss(0, 1))
	ix.Put("out", "a", fpA)
	unrelated, _ := compute(cfg, func(seed uint64) (float64, error) {
		return rng.Derive(seed, "unrelated", 7).Normal(0, 1), nil
	})
	_, ok := ix.FindMapping("out", unrelated)
	if ok {
		t.Fatal("unrelated fingerprint should not match")
	}
	st := ix.Stats()
	if st.Computed != 1 || st.Rejected != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestIndexImport(t *testing.T) {
	cfg := DefaultConfig()
	ix, _ := NewIndex(cfg)
	// Shorter than Length and of mixed lengths: k = min(Length, worlds/2).
	ok := []IndexEntry{
		{Label: "out", Key: "a", Outputs: []float64{1, 2, 3}},
		{Label: "out", Key: "b", Outputs: []float64{4, 5}},
	}
	if err := ix.Import(ok); err != nil {
		t.Fatal(err)
	}
	if res, found := ix.FindMapping("out", Fingerprint{Outputs: []float64{1, 2, 3}}); !found || res.BasisKey != "a" {
		t.Errorf("find = %+v, %v", res, found)
	}
	for _, bad := range [][]float64{
		{1}, nil, {math.NaN(), math.NaN(), math.NaN()}, {1, math.Inf(1)}, {math.Inf(-1), 2, 3},
	} {
		if err := ix.Import([]IndexEntry{{Label: "out", Key: "bad", Outputs: bad}}); err == nil {
			t.Errorf("Import(%v) accepted", bad)
		}
	}
	if n := len(ix.entries["out"]); n != 2 {
		t.Errorf("%d entries after rejected imports, want 2", n)
	}
}

func TestIndexEmptyLabel(t *testing.T) {
	cfg := DefaultConfig()
	ix, _ := NewIndex(cfg)
	fp, _ := compute(cfg, gauss(0, 1))
	if _, ok := ix.FindMapping("nothing", fp); ok {
		t.Error("empty label should not match")
	}
}

func TestNewIndexValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.Length = 0
	if _, err := NewIndex(bad); err == nil {
		t.Error("invalid config should error")
	}
	bad = DefaultConfig()
	bad.AffineTol = -1
	if _, err := NewIndex(bad); err == nil {
		t.Error("negative tolerance should error")
	}
}

func TestMappingKindString(t *testing.T) {
	if MappingIdentity.String() != "identity" || MappingAffine.String() != "affine" ||
		MappingNone.String() != "none" {
		t.Error("kind strings wrong")
	}
	if MappingKind(9).String() != "MappingKind(9)" {
		t.Error("unknown kind string wrong")
	}
}

func TestReuseStats(t *testing.T) {
	s := ReuseStats{Computed: 2, Identity: 5, Affine: 3, Rejected: 4}
	if s.Reused() != 8 || s.Total() != 10 {
		t.Errorf("reused/total = %d/%d", s.Reused(), s.Total())
	}
	if math.Abs(s.ReuseRate()-0.8) > 1e-12 {
		t.Errorf("rate = %g", s.ReuseRate())
	}
	if (ReuseStats{}).ReuseRate() != 0 {
		t.Error("empty rate should be 0")
	}
	if s.String() == "" {
		t.Error("String should be non-empty")
	}
}
