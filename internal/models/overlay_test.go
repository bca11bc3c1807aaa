package models

import (
	"math"
	"testing"

	"fuzzyprophet/internal/rng"
	"fuzzyprophet/internal/value"
	"fuzzyprophet/internal/vg"
)

// referenceSimulate is the capacity chain as it was written before its year
// split into a failure-schedule base and a purchase-schedule overlay: one
// loop that draws each (week, class) failure count inside the
// accumulation. It is frozen here, verbatim, as the oracle every form of
// the model must match bit for bit.
func referenceSimulate(m *CapacityModel, seed uint64, purchase1, purchase2 int, out []float64) {
	lead := rng.Key(seed, "capacity.lead")
	arr1 := m.arrivalWeek(lead, purchase1, 0)
	arr2 := m.arrivalWeek(lead, purchase2, 1)
	var keyBuf [8]rng.Keyed // more failure classes than this spill to the heap
	fail := keyBuf[:0]
	for _, label := range m.failLabels {
		fail = append(fail, rng.Key(seed, label))
	}

	// pendingRepair[w] is capacity scheduled to return at week w.
	var pendingRepair [Weeks + 8]float64
	cap := m.cfg.Initial
	for w := range out {
		if w > 0 {
			cap -= m.cfg.AgingRate
			for ci := range m.cfg.Failures {
				fc := &m.cfg.Failures[ci]
				src := fail[ci].At(uint64(w) ^ uint64(ci)<<32)
				failures := float64(m.failDraws[ci].Sample(&src))
				lost := failures * fc.CoresPerFailure
				cap -= lost
				back := w + fc.RepairWeeks
				if back < len(pendingRepair) {
					pendingRepair[back] += lost * fc.RepairFraction
				}
			}
			cap += pendingRepair[w]
			if w == arr1 {
				cap += m.cfg.BatchCores
			}
			if w == arr2 {
				cap += m.cfg.BatchCores
			}
			// A purchase can arrive in the same week as another; both are
			// handled above. Arrivals past week 52 simply never land.
		}
		out[w] = cap
	}
}

// overflowCapacityConfig is a test-only calibration whose failure counts
// often do not fit the base's byte encoding (a weekly mean of 254), with
// more classes than simulate keeps on the stack, a large-mean class below
// the byte limit and a repair that lands past the year's repair buffer.
func overflowCapacityConfig() CapacityConfig {
	cfg := DefaultCapacityConfig()
	cfg.Failures = append(cfg.Failures,
		FailureClass{Name: "rack", WeeklyRate: 254, CoresPerFailure: 1, RepairWeeks: 9, RepairFraction: 0.5},
		FailureClass{Name: "fan", WeeklyRate: 100, CoresPerFailure: 0.25, RepairWeeks: 1, RepairFraction: 1},
		FailureClass{Name: "nic", WeeklyRate: 0.2, CoresPerFailure: 8, RepairWeeks: 4, RepairFraction: 0.6},
		FailureClass{Name: "dimm", WeeklyRate: 2, CoresPerFailure: 4, RepairWeeks: 1, RepairFraction: 0.95},
		FailureClass{Name: "bmc", WeeklyRate: 0.1, CoresPerFailure: 64, RepairWeeks: 2, RepairFraction: 0.9},
	)
	return cfg
}

// capacityForms computes the chain at (seed, p1, p2) every way the model
// offers it and fails on the first week where one differs from the frozen
// reference: Series, Overlay over base (drawn once per seed by the caller)
// and, when scalar is set, At and Generate at every week.
func capacityForms(t *testing.T, m *CapacityModel, seed uint64, base []byte, p1, p2 int, scalar bool) {
	t.Helper()
	var want, series, over [Weeks]float64
	referenceSimulate(m, seed, p1, p2, want[:])
	args := []value.Value{value.Int(0), value.Int(int64(p1)), value.Int(int64(p2))}
	if err := m.Series(seed, args, series[:]); err != nil {
		t.Fatal(err)
	}
	if err := m.Overlay(seed, args, base, over[:]); err != nil {
		t.Fatal(err)
	}
	for w := range want {
		bits := math.Float64bits(want[w])
		if math.Float64bits(series[w]) != bits || math.Float64bits(over[w]) != bits {
			t.Fatalf("seed %d purchases (%d, %d) week %d: Series %v, Overlay %v, reference %v",
				seed, p1, p2, w, series[w], over[w], want[w])
		}
		if !scalar {
			continue
		}
		args[0] = value.Int(int64(w))
		v, err := m.Generate(seed, args)
		if err != nil {
			t.Fatal(err)
		}
		g, _ := v.AsFloat()
		if at := m.At(seed, w, p1, p2); math.Float64bits(at) != bits || math.Float64bits(g) != bits {
			t.Fatalf("seed %d purchases (%d, %d) week %d: At %v, Generate %v, reference %v",
				seed, p1, p2, w, at, g, want[w])
		}
	}
}

// Every form of the capacity model is the frozen one-loop chain, bit for
// bit, over seeds and a purchase grid (0..56 step 4, so p1 == p2 and
// arrivals past week 52 are included), on the default calibration and on
// one whose counts overflow the base's byte encoding.
func TestCapacityFormsMatchReference(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   CapacityConfig
		seeds int // the overflow calibration's draws cost ~8× the default's
	}{{"default", DefaultCapacityConfig(), 120}, {"overflow", overflowCapacityConfig(), 16}} {
		t.Run(tc.name, func(t *testing.T) {
			seeds := tc.seeds
			if raceEnabled {
				seeds = max(seeds/10, 2)
			}
			m := NewCapacityModel(tc.cfg)
			base := make([]byte, m.BaseLen())
			var sameWeek, pastYear bool
			redraws := 0
			for _, seed := range worldSeeds(seeds) {
				m.Base(seed, base)
				for _, c := range base {
					if c == redrawCount {
						redraws++
					}
				}
				for p1 := 0; p1 <= 56; p1 += 4 {
					for p2 := 0; p2 <= 56; p2 += 4 {
						arr1, arr2 := m.ArrivalWeek(seed, p1, 0), m.ArrivalWeek(seed, p2, 1)
						sameWeek = sameWeek || (arr1 == arr2 && arr1 < Weeks)
						pastYear = pastYear || arr1 >= Weeks || arr2 >= Weeks
						capacityForms(t, m, seed, base, p1, p2, p1%16 == 0 && p2%16 == 0)
					}
				}
			}
			if !sameWeek || !pastYear {
				t.Fatalf("grid covered same-week arrivals=%v, arrivals past week %d=%v; want both", sameWeek, Weeks-1, pastYear)
			}
			if overflow := tc.name == "overflow"; overflow != (redraws > 0) {
				t.Fatalf("%d base cells overflow a byte on the %s calibration", redraws, tc.name)
			}
		})
	}
}

// The base depends on the seed alone and At draws only the weeks it
// returns: a base drawn for a prefix of the year is the full base's
// prefix, and the overlay over that prefix is the chain's prefix.
func TestCapacityBasePrefix(t *testing.T) {
	m := NewCapacityModel(DefaultCapacityConfig())
	classes := len(m.cfg.Failures)
	full := make([]byte, m.BaseLen())
	var year, part [Weeks]float64
	for _, seed := range worldSeeds(20) {
		m.Base(seed, full)
		m.simulate(seed, 16, 32, year[:])
		for weeks := 1; weeks <= Weeks; weeks++ {
			prefix := make([]byte, m.BaseLen())
			m.base(seed, prefix, weeks)
			n := (weeks - 1) * classes
			if string(prefix[:n]) != string(full[:n]) {
				t.Fatalf("seed %d: base for %d weeks differs from the full base's prefix", seed, weeks)
			}
			for _, c := range prefix[n:] {
				if c != 0 {
					t.Fatalf("seed %d: base for %d weeks wrote past week %d", seed, weeks, weeks-1)
				}
			}
			m.overlay(seed, 16, 32, prefix, part[:weeks])
			for w := range weeks {
				if math.Float64bits(part[w]) != math.Float64bits(year[w]) {
					t.Fatalf("seed %d: overlay over %d weeks reads %v at week %d, the year %v", seed, weeks, part[w], w, year[w])
				}
			}
		}
	}
}

func TestCapacityOverlayValidation(t *testing.T) {
	m := NewCapacityModel(DefaultCapacityConfig())
	base := make([]byte, m.BaseLen())
	m.Base(1, base)
	out := make([]float64, Weeks)
	args := []value.Value{value.Int(0), value.Int(16), value.Int(32)}
	if err := m.Overlay(1, args, base, out[:10]); err == nil {
		t.Error("a short series buffer should error")
	}
	if err := m.Overlay(1, args, base[:10], out); err == nil {
		t.Error("a short base should error")
	}
	if err := m.Overlay(1, []value.Value{value.Int(0), value.Int(16), value.Str("x")}, base, out); err == nil {
		t.Error("bad purchase2 should error")
	}
}

// The registry's determinism check holds the capacity model to the
// overlay contract too, on both calibrations.
func TestCapacityCheckDeterminism(t *testing.T) {
	for _, cfg := range []CapacityConfig{DefaultCapacityConfig(), overflowCapacityConfig()} {
		r := vg.NewRegistry()
		if err := r.Register(NewCapacityModel(cfg)); err != nil {
			t.Fatal(err)
		}
		for _, seed := range worldSeeds(10) {
			for _, w := range []int64{0, 1, 26, 52} {
				args := []value.Value{value.Int(w), value.Int(20), value.Int(20)}
				if err := r.CheckDeterminism("CapacityModel", seed, args); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// FuzzCapacityBaseOverlay drives the reference oracle with arbitrary
// seeds, purchase weeks (negative and far past the year included) and
// calibrations.
func FuzzCapacityBaseOverlay(f *testing.F) {
	f.Add(uint64(1), int16(16), int16(32), false)
	f.Add(uint64(7), int16(20), int16(20), true)
	f.Add(uint64(42), int16(-3), int16(60), false)
	f.Add(uint64(0), int16(51), int16(52), true)
	models := []*CapacityModel{NewCapacityModel(DefaultCapacityConfig()), NewCapacityModel(overflowCapacityConfig())}
	f.Fuzz(func(t *testing.T, seed uint64, p1, p2 int16, overflow bool) {
		m := models[0]
		if overflow {
			m = models[1]
		}
		base := make([]byte, m.BaseLen())
		m.Base(seed, base)
		capacityForms(t, m, seed, base, int(p1), int(p2), true)
	})
}
