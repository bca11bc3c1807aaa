package models

import (
	"math"
	"testing"
	"testing/quick"

	"fuzzyprophet/internal/rng"
	"fuzzyprophet/internal/stats"
	"fuzzyprophet/internal/value"
	"fuzzyprophet/internal/vg"
)

// ArrivalWeek returns the stochastic deployment week of the purchase placed
// at purchaseWeek (ordinal distinguishes the first and second purchase).
func (m *CapacityModel) ArrivalWeek(seed uint64, purchaseWeek, ordinal int) int {
	return m.arrivalWeek(rng.Key(seed, "capacity.lead"), purchaseWeek, ordinal)
}

func worldSeeds(n int) []uint64 {
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = rng.Derive(2011, "worlds", uint64(i)).Uint64()
	}
	return seeds
}

func TestDemandDeterministic(t *testing.T) {
	m := NewDemandModel(DefaultDemandConfig())
	for _, w := range []int{0, 10, 30, 52} {
		a := m.At(42, w, 12)
		b := m.At(42, w, 12)
		if a != b {
			t.Fatalf("demand not deterministic at week %d", w)
		}
	}
}

func TestDemandGrowth(t *testing.T) {
	m := NewDemandModel(DefaultDemandConfig())
	seeds := worldSeeds(2000)
	meanAt := func(week, feature int) float64 {
		var acc stats.Moments
		for _, s := range seeds {
			acc.Add(m.At(s, week, feature))
		}
		return acc.Mean()
	}
	early := meanAt(0, 44)
	late := meanAt(40, 44)
	cfg := DefaultDemandConfig()
	if math.Abs((late-early)-40*cfg.Growth) > 300 {
		t.Errorf("demand growth %g over 40 weeks, want ≈ %g", late-early, 40*cfg.Growth)
	}
	if math.Abs(early-cfg.Base) > 200 {
		t.Errorf("week-0 demand = %g, want ≈ %g", early, cfg.Base)
	}
}

func TestDemandFeatureBump(t *testing.T) {
	m := NewDemandModel(DefaultDemandConfig())
	seeds := worldSeeds(2000)
	meanAt := func(week, feature int) float64 {
		var acc stats.Moments
		for _, s := range seeds {
			acc.Add(m.At(s, week, feature))
		}
		return acc.Mean()
	}
	cfg := DefaultDemandConfig()
	// Fully ramped bump ≈ FeatureBoost.
	with := meanAt(30, 12)
	without := meanAt(30, 44)
	if math.Abs((with-without)-cfg.FeatureBoost) > 300 {
		t.Errorf("feature bump = %g, want ≈ %g", with-without, cfg.FeatureBoost)
	}
	// Ramp: one week after release the bump is FeatureBoost/RampWeeks-ish.
	partial := meanAt(12, 12)
	none := meanAt(12, 44)
	frac := (partial - none) / cfg.FeatureBoost
	want := 1.0 / float64(cfg.FeatureRampWeeks)
	if math.Abs(frac-want) > 0.1 {
		t.Errorf("ramp fraction = %g, want ≈ %g", frac, want)
	}
}

// The identity-mapping property the fingerprint engine depends on: before
// the earlier of two feature dates, demand is bitwise identical across
// feature parameterizations; after both have fully ramped it is identical
// again.
func TestDemandIdentityAcrossFeatureDates(t *testing.T) {
	m := NewDemandModel(DefaultDemandConfig())
	cfg := DefaultDemandConfig()
	for _, seed := range worldSeeds(20) {
		for w := 0; w < 12; w++ {
			if m.At(seed, w, 12) != m.At(seed, w, 36) {
				t.Fatalf("pre-release week %d differs across feature dates", w)
			}
		}
		for w := 36 + cfg.FeatureRampWeeks - 1; w < Weeks; w++ {
			if m.At(seed, w, 12) != m.At(seed, w, 36) {
				t.Fatalf("post-ramp week %d differs across feature dates", w)
			}
		}
	}
}

func TestDemandGenerateValidation(t *testing.T) {
	m := NewDemandModel(DefaultDemandConfig())
	if _, err := m.Generate(1, []value.Value{value.Int(-1), value.Int(12)}); err == nil {
		t.Error("negative week should error")
	}
	if _, err := m.Generate(1, []value.Value{value.Int(99), value.Int(12)}); err == nil {
		t.Error("week out of range should error")
	}
	if _, err := m.Generate(1, []value.Value{value.Str("x"), value.Int(12)}); err == nil {
		t.Error("non-numeric week should error")
	}
	if _, err := m.Generate(1, []value.Value{value.Int(1), value.Str("x")}); err == nil {
		t.Error("non-numeric feature should error")
	}
	v, err := m.Generate(7, []value.Value{value.Int(5), value.Int(12)})
	if err != nil {
		t.Fatal(err)
	}
	f, _ := v.AsFloat()
	if f != m.At(7, 5, 12) {
		t.Error("Generate disagrees with At")
	}
}

func TestCapacityDeterministic(t *testing.T) {
	m := NewCapacityModel(DefaultCapacityConfig())
	a := m.Year(42, 16, 32)
	b := m.Year(42, 16, 32)
	for w := range a {
		if a[w] != b[w] {
			t.Fatalf("capacity not deterministic at week %d", w)
		}
	}
	if len(a) != Weeks {
		t.Fatalf("series length = %d", len(a))
	}
}

func TestCapacityStartsAtInitial(t *testing.T) {
	cfg := DefaultCapacityConfig()
	m := NewCapacityModel(cfg)
	for _, seed := range worldSeeds(10) {
		if got := m.At(seed, 0, 16, 32); got != cfg.Initial {
			t.Fatalf("week-0 capacity = %g, want %g", got, cfg.Initial)
		}
	}
}

func TestCapacityPurchaseArrivals(t *testing.T) {
	cfg := DefaultCapacityConfig()
	m := NewCapacityModel(cfg)
	seeds := worldSeeds(500)
	for _, seed := range seeds[:50] {
		arr1 := m.ArrivalWeek(seed, 10, 0)
		if arr1 < 10+cfg.LeadTimeMin {
			t.Fatalf("arrival %d before minimum lead", arr1)
		}
		series := m.Year(seed, 10, 40)
		if arr1 < Weeks {
			jump := series[arr1] - series[arr1-1]
			if jump < cfg.BatchCores*0.5 {
				t.Fatalf("no capacity jump at arrival week %d: %g", arr1, jump)
			}
		}
	}
	// Mean capacity with both purchases deployed exceeds initial.
	var acc stats.Moments
	for _, seed := range seeds {
		acc.Add(m.At(seed, 50, 10, 20))
	}
	if acc.Mean() < cfg.Initial+1.5*cfg.BatchCores {
		t.Errorf("late-year capacity mean = %g, expected both batches deployed", acc.Mean())
	}
}

func TestCapacityDeclinesWithoutPurchases(t *testing.T) {
	m := NewCapacityModel(DefaultCapacityConfig())
	seeds := worldSeeds(500)
	var early, late stats.Moments
	for _, seed := range seeds {
		s := m.Year(seed, 52, 52) // purchases effectively never arrive
		early.Add(s[5])
		late.Add(s[50])
	}
	if late.Mean() >= early.Mean() {
		t.Errorf("capacity should decline: week5=%g week50=%g", early.Mean(), late.Mean())
	}
	loss := early.Mean() - late.Mean()
	if loss > 6000 {
		t.Errorf("capacity decline %g too steep for the calibration", loss)
	}
}

// The identity property for the capacity model: weeks before the earliest
// possible arrival of a moved purchase are bitwise identical across the
// move.
func TestCapacityIdentityBeforePurchase(t *testing.T) {
	m := NewCapacityModel(DefaultCapacityConfig())
	for _, seed := range worldSeeds(20) {
		a := m.Year(seed, 20, 40)
		b := m.Year(seed, 28, 40)
		// Both schedules are identical until the first arrival of the
		// earlier schedule (week 20 + min lead at the earliest).
		limit := 20 + DefaultCapacityConfig().LeadTimeMin
		for w := 0; w < limit; w++ {
			if a[w] != b[w] {
				t.Fatalf("week %d differs when moving purchase1 20→28", w)
			}
		}
	}
}

// Once both schedules have fully deployed the same number of batches, the
// capacities differ only by a constant offset of zero — they re-converge
// exactly because failures are keyed by week, not by fleet state.
func TestCapacityReconvergesAfterArrivals(t *testing.T) {
	m := NewCapacityModel(DefaultCapacityConfig())
	for _, seed := range worldSeeds(20) {
		a := m.Year(seed, 8, 16)
		b := m.Year(seed, 12, 16)
		arrA := m.ArrivalWeek(seed, 8, 0)
		arrB := m.ArrivalWeek(seed, 12, 0)
		last := arrA
		if arrB > last {
			last = arrB
		}
		for w := last; w < Weeks; w++ {
			if a[w] != b[w] {
				t.Fatalf("week %d differs after both arrivals (%d, %d)", w, arrA, arrB)
			}
		}
	}
}

func TestCapacityGenerateValidation(t *testing.T) {
	m := NewCapacityModel(DefaultCapacityConfig())
	if _, err := m.Generate(1, []value.Value{value.Int(60), value.Int(0), value.Int(0)}); err == nil {
		t.Error("week out of range should error")
	}
	if _, err := m.Generate(1, []value.Value{value.Int(1), value.Str("x"), value.Int(0)}); err == nil {
		t.Error("bad purchase1 should error")
	}
	if _, err := m.Generate(1, []value.Value{value.Int(1), value.Int(0), value.Str("x")}); err == nil {
		t.Error("bad purchase2 should error")
	}
	v, err := m.Generate(3, []value.Value{value.Int(30), value.Int(8), value.Int(16)})
	if err != nil {
		t.Fatal(err)
	}
	f, _ := v.AsFloat()
	if f != m.At(3, 30, 8, 16) {
		t.Error("Generate disagrees with At")
	}
}

func TestScenarioShapeDemandCrossesCapacity(t *testing.T) {
	// The demo's Figure-3 narrative: without purchases demand eventually
	// exceeds capacity; with timely purchases the crossing is pushed out.
	dm := NewDemandModel(DefaultDemandConfig())
	cm := NewCapacityModel(DefaultCapacityConfig())
	seeds := worldSeeds(400)
	overloadProb := func(week, p1, p2 int) float64 {
		n := 0
		for _, s := range seeds {
			if cm.At(s, week, p1, p2) < dm.At(s, week, 36) {
				n++
			}
		}
		return float64(n) / float64(len(seeds))
	}
	if p := overloadProb(5, 52, 52); p > 0.02 {
		t.Errorf("early overload probability = %g, want ≈ 0", p)
	}
	if p := overloadProb(40, 52, 52); p < 0.9 {
		t.Errorf("late overload probability without purchases = %g, want ≈ 1", p)
	}
	if p := overloadProb(40, 12, 24); p > 0.2 {
		t.Errorf("late overload probability with purchases = %g, want small", p)
	}
}

func TestRevenueModelElasticity(t *testing.T) {
	m := NewRevenueModel(DefaultRevenueConfig())
	seeds := worldSeeds(1000)
	meanUnits := func(price float64) float64 {
		var acc stats.Moments
		for _, s := range seeds {
			acc.Add(m.Units(s, 10, price))
		}
		return acc.Mean()
	}
	lo := meanUnits(8)
	hi := meanUnits(12)
	if lo <= hi {
		t.Errorf("demand should fall with price: units(8)=%g units(12)=%g", lo, hi)
	}
	// Constant elasticity: log(units) is exactly linear in log(price) for a
	// fixed seed.
	u1 := m.Units(7, 10, 8)
	u2 := m.Units(7, 10, 12)
	cfg := DefaultRevenueConfig()
	wantRatio := math.Pow(8.0/12.0, -cfg.Elasticity)
	if math.Abs(u1/u2-wantRatio) > 1e-9 {
		t.Errorf("fixed-seed unit ratio = %g, want %g", u1/u2, wantRatio)
	}
}

func TestRevenueGenerateValidation(t *testing.T) {
	m := NewRevenueModel(DefaultRevenueConfig())
	if _, err := m.Generate(1, []value.Value{value.Int(1), value.Float(-5)}); err == nil {
		t.Error("negative price should error")
	}
	if _, err := m.Generate(1, []value.Value{value.Int(99), value.Float(5)}); err == nil {
		t.Error("week out of range should error")
	}
	uf := m.UnitsFunction()
	if uf.Name() != "UnitsModel" || uf.Arity() != 2 {
		t.Errorf("units function meta = %s/%d", uf.Name(), uf.Arity())
	}
	if _, err := uf.Generate(1, []value.Value{value.Int(1), value.Float(0)}); err == nil {
		t.Error("zero price should error in UnitsModel")
	}
	v, err := uf.Generate(9, []value.Value{value.Int(4), value.Float(10)})
	if err != nil {
		t.Fatal(err)
	}
	f, _ := v.AsFloat()
	if f != m.Units(9, 4, 10) {
		t.Error("UnitsModel disagrees with Units")
	}
}

func TestRegisterDefaults(t *testing.T) {
	r := vg.NewRegistry()
	if err := RegisterDefaults(r); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"DemandModel", "CapacityModel", "RevenueModel", "UnitsModel"} {
		if _, ok := r.Lookup(name); !ok {
			t.Errorf("%s not registered", name)
		}
		args := []value.Value{value.Int(5), value.Int(12)}
		if name == "CapacityModel" {
			args = []value.Value{value.Int(5), value.Int(12), value.Int(20)}
		}
		if name == "RevenueModel" || name == "UnitsModel" {
			args = []value.Value{value.Int(5), value.Float(10)}
		}
		if err := r.CheckDeterminism(name, 77, args); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	// Registering twice fails cleanly.
	if err := RegisterDefaults(r); err == nil {
		t.Error("double registration should error")
	}
}

// Property: the demand model never returns NaN/Inf and capacity stays
// finite, for arbitrary valid parameters.
func TestQuickModelsFinite(t *testing.T) {
	dm := NewDemandModel(DefaultDemandConfig())
	cm := NewCapacityModel(DefaultCapacityConfig())
	f := func(seed uint64, wi, fi, p1i, p2i uint8) bool {
		w := int(wi) % Weeks
		feat := int(fi) % Weeks
		p1 := int(p1i) % Weeks
		p2 := int(p2i) % Weeks
		d := dm.At(seed, w, feat)
		c := cm.At(seed, w, p1, p2)
		return !math.IsNaN(d) && !math.IsInf(d, 0) && !math.IsNaN(c) && !math.IsInf(c, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// The scalar form is the year's chain stopped at the requested week:
// Generate equals Series at that week bit for bit, over a purchase grid
// that includes arrivals past week 52 and two purchases landing in the same
// week.
func TestCapacityGenerateMatchesSeries(t *testing.T) {
	m := NewCapacityModel(DefaultCapacityConfig())
	purchases := [][2]int{{16, 32}, {20, 20}, {0, 4}, {8, 52}, {50, 51}}
	series := make([]float64, Weeks)
	var sameWeek, pastYear bool
	for _, seed := range worldSeeds(500) {
		for _, p := range purchases {
			args := []value.Value{value.Int(0), value.Int(int64(p[0])), value.Int(int64(p[1]))}
			if err := m.Series(seed, args, series); err != nil {
				t.Fatal(err)
			}
			arr1, arr2 := m.ArrivalWeek(seed, p[0], 0), m.ArrivalWeek(seed, p[1], 1)
			sameWeek = sameWeek || (arr1 == arr2 && arr1 < Weeks)
			pastYear = pastYear || arr1 >= Weeks || arr2 >= Weeks
			for w := 0; w < Weeks; w++ {
				args[0] = value.Int(int64(w))
				v, err := m.Generate(seed, args)
				if err != nil {
					t.Fatal(err)
				}
				f, _ := v.AsFloat()
				if math.Float64bits(f) != math.Float64bits(series[w]) {
					t.Fatalf("seed %d purchases %v week %d: Generate %v, Series %v", seed, p, w, f, series[w])
				}
			}
		}
	}
	if !sameWeek || !pastYear {
		t.Fatalf("grid covered same-week arrivals=%v, arrivals past week %d=%v; want both", sameWeek, Weeks-1, pastYear)
	}
	if err := m.Series(1, []value.Value{value.Int(0), value.Int(0), value.Int(0)}, series[:10]); err == nil {
		t.Error("a short series buffer should error")
	}
	if err := m.Series(1, []value.Value{value.Int(0), value.Str("x"), value.Int(0)}, series); err == nil {
		t.Error("bad purchase1 should error")
	}
}

func TestCapacityGenerateAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	m := NewCapacityModel(DefaultCapacityConfig())
	args := []value.Value{value.Int(52), value.Int(16), value.Int(32)}
	seed := uint64(0)
	allocs := testing.AllocsPerRun(100, func() {
		seed++
		if _, err := m.Generate(seed, args); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("CapacityModel.Generate makes %v allocations per call, want 0", allocs)
	}
}
