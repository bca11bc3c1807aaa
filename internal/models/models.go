// Package models implements the business-scenario VG-Functions of the
// paper's demonstration (§3.1, "Risk vs Cost of Ownership"): a demand
// forecast and a capacity simulation for a Windows Azure-style datacenter,
// plus additional models used by the extra examples.
//
// The paper notes its own constants are "arbitrarily chosen for
// intellectual property reasons"; ours are calibrated so the demo
// reproduces Figure 3's shape — overload risk is negligible early, rises as
// demand approaches capacity, and drops when purchased hardware arrives.
//
// Determinism discipline: every stochastic draw comes from the stream
// rng.Key(worldSeed, streamLabel).At(index) where the label and index never
// depend on the *parameter values* — only on structural positions (week
// number, failure class, purchase ordinal). This is what makes the models
// fingerprint-friendly: two parameterizations that agree on whether an
// event has happened by week w produce bitwise-identical outputs at week w,
// which the fingerprint engine detects as an identity mapping. It also
// makes the order of draws irrelevant — each (label, index) stream is
// independent — so a model keys each label once per call and derives the
// per-index streams on the stack, and CapacityModel's scalar form and its
// whole-year chain (vg.SeriesFunction) are the same loop stopped at
// different weeks, bit for bit.
package models

import (
	"fmt"
	"math"

	"fuzzyprophet/internal/rng"
	"fuzzyprophet/internal/value"
	"fuzzyprophet/internal/vg"
)

// Weeks is the number of simulated weeks (the scenario's year, weeks
// 0..52 inclusive like Figure 2's RANGE 0 TO 52).
const Weeks = 53

// DemandConfig calibrates the demand forecast.
type DemandConfig struct {
	// Base is the expected demand (cores) at week 0.
	Base float64
	// Growth is the expected demand increase per week.
	Growth float64
	// Sigma is the weekly demand noise standard deviation.
	Sigma float64
	// FeatureBoost is the additional expected demand once the released
	// feature has fully ramped.
	FeatureBoost float64
	// FeatureSigma is the noise of the feature-driven demand component.
	FeatureSigma float64
	// FeatureRampWeeks is the number of weeks over which the feature's
	// demand ramps from 0 to FeatureBoost.
	FeatureRampWeeks int
}

// DefaultDemandConfig returns the calibration used by the demo scenario.
func DefaultDemandConfig() DemandConfig {
	return DemandConfig{
		Base:             40000,
		Growth:           300,
		Sigma:            1500,
		FeatureBoost:     4000,
		FeatureSigma:     1000,
		FeatureRampWeeks: 8,
	}
}

// DemandModel is the paper's demand forecast: "a daily demand forecast
// expressed as a simple gaussian. A second gaussian is added to the first
// after the feature release date." We simulate at weekly granularity.
//
// Scenario signature: DemandModel(@current, @feature) → cores demanded.
type DemandModel struct {
	cfg DemandConfig
}

// NewDemandModel returns a demand model with the given calibration.
func NewDemandModel(cfg DemandConfig) *DemandModel { return &DemandModel{cfg: cfg} }

// Name implements vg.Function.
func (m *DemandModel) Name() string { return "DemandModel" }

// Arity implements vg.Function.
func (m *DemandModel) Arity() int { return 2 }

// At returns the demand at week for the given feature release week and
// world seed. It is the direct-call form used by the Markov analyzer and
// the benches.
func (m *DemandModel) At(seed uint64, week, feature int) float64 {
	baseSrc := rng.Key(seed, "demand.base").At(uint64(week))
	base := m.cfg.Base + m.cfg.Growth*float64(week) + baseSrc.Normal(0, m.cfg.Sigma)
	if week < feature {
		return base
	}
	ramp := 1.0
	if m.cfg.FeatureRampWeeks > 0 {
		ramp = float64(week-feature+1) / float64(m.cfg.FeatureRampWeeks)
		if ramp > 1 {
			ramp = 1
		}
	}
	// The feature component's noise is keyed by absolute week, not by
	// week-since-release: once two release dates have both fully ramped,
	// their demands coincide exactly — an identity mapping fingerprints
	// recover automatically.
	featureSrc := rng.Key(seed, "demand.feature").At(uint64(week))
	bump := ramp * (m.cfg.FeatureBoost + featureSrc.Normal(0, m.cfg.FeatureSigma))
	return base + bump
}

// Generate implements vg.Function.
func (m *DemandModel) Generate(seed uint64, args []value.Value) (value.Value, error) {
	week, err := weekArg("DemandModel", args, 0)
	if err != nil {
		return value.Null, err
	}
	feature, err := args[1].AsInt()
	if err != nil {
		return value.Null, fmt.Errorf("models: DemandModel feature argument: %v", err)
	}
	return value.Float(m.At(seed, week, int(feature))), nil
}

// FailureClass calibrates one class of hardware failure.
type FailureClass struct {
	// Name identifies the class (diagnostics only).
	Name string
	// WeeklyRate is the Poisson mean of failures per week.
	WeeklyRate float64
	// CoresPerFailure is the capacity lost per failure event.
	CoresPerFailure float64
	// RepairWeeks is how long a failed unit stays out of service.
	RepairWeeks int
	// RepairFraction is the fraction of failed cores that return to
	// service after RepairWeeks (the rest are permanently lost).
	RepairFraction float64
}

// CapacityConfig calibrates the capacity simulation.
type CapacityConfig struct {
	// Initial is the fleet capacity (cores) at week 0.
	Initial float64
	// BatchCores is the capacity added when one hardware purchase deploys.
	BatchCores float64
	// LeadTimeMin is the minimum purchase-to-deployment lag in weeks.
	LeadTimeMin int
	// LeadTimeMean is the Poisson mean of the additional stochastic lag.
	LeadTimeMean float64
	// AgingRate is the deterministic weekly capacity loss to fleet aging.
	AgingRate float64
	// Failures is the set of failure classes.
	Failures []FailureClass
}

// DefaultCapacityConfig returns the calibration used by the demo scenario.
func DefaultCapacityConfig() CapacityConfig {
	return CapacityConfig{
		Initial:      50000,
		BatchCores:   12000,
		LeadTimeMin:  2,
		LeadTimeMean: 2,
		AgingRate:    20,
		Failures: []FailureClass{
			{Name: "disk", WeeklyRate: 3.0, CoresPerFailure: 16, RepairWeeks: 1, RepairFraction: 0.9},
			{Name: "psu", WeeklyRate: 1.5, CoresPerFailure: 32, RepairWeeks: 2, RepairFraction: 0.85},
			{Name: "network", WeeklyRate: 0.8, CoresPerFailure: 160, RepairWeeks: 2, RepairFraction: 0.9},
			{Name: "chassis", WeeklyRate: 0.4, CoresPerFailure: 80, RepairWeeks: 3, RepairFraction: 0.75},
		},
	}
}

// CapacityModel is the paper's capacity simulation: "an aggregate of many
// different individual models, each expressing different classes of
// hardware failures, as well as expected time from new hardware purchase to
// deployment. The model accepts a set of hardware purchase dates,
// constructs (stochastically) a series of events that modify the number of
// cores available during a given week, and tracks the sum of all changes
// over the course of the entire year."
//
// Scenario signature: CapacityModel(@current, @purchase1, @purchase2) →
// cores available.
//
// The purchase-to-deployment lag is stochastic (LeadTimeMin + Poisson),
// keyed by purchase ordinal — the paper's own example of a discontinuity at
// a random point in time ("the nondeterministic date when new hardware
// comes online"). Failure draws are keyed by (week, class) independent of
// the purchase dates, so weeks unaffected by a purchase shift are bitwise
// identical across parameterizations.
//
// The model is a vg.SeriesFunction over its week argument: Series simulates
// the whole year as one chain, so a render sweeping the weeks runs each
// world's chain once.
type CapacityModel struct {
	cfg CapacityConfig
	// failLabels[ci] is failure class ci's stream label.
	failLabels []string
	// failDraws[ci] samples failure class ci's weekly count; leadDraw the
	// stochastic lead time. Their means are fixed per model.
	failDraws []rng.Poisson
	leadDraw  rng.Poisson
}

// NewCapacityModel returns a capacity model with the given calibration.
func NewCapacityModel(cfg CapacityConfig) *CapacityModel {
	cfg.Failures = append([]FailureClass(nil), cfg.Failures...)
	labels := make([]string, len(cfg.Failures))
	draws := make([]rng.Poisson, len(cfg.Failures))
	for ci, fc := range cfg.Failures {
		labels[ci] = "capacity.fail." + fc.Name
		draws[ci] = rng.NewPoisson(fc.WeeklyRate)
	}
	return &CapacityModel{cfg: cfg, failLabels: labels, failDraws: draws, leadDraw: rng.NewPoisson(cfg.LeadTimeMean)}
}

// Name implements vg.Function.
func (m *CapacityModel) Name() string { return "CapacityModel" }

// Arity implements vg.Function.
func (m *CapacityModel) Arity() int { return 3 }

func (m *CapacityModel) arrivalWeek(lead rng.Keyed, purchaseWeek, ordinal int) int {
	src := lead.At(uint64(ordinal))
	return purchaseWeek + m.cfg.LeadTimeMin + int(m.leadDraw.Sample(&src))
}

// simulate is the model's one loop body: it runs the year's chain at seed
// under the purchase schedule and writes weeks [0, len(out)) into out,
// stopping there (len(out) <= Weeks).
func (m *CapacityModel) simulate(seed uint64, purchase1, purchase2 int, out []float64) {
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

// Year simulates the full year and returns the per-week capacity,
// weeks 0..Weeks-1.
func (m *CapacityModel) Year(seed uint64, purchase1, purchase2 int) []float64 {
	caps := make([]float64, Weeks)
	m.simulate(seed, purchase1, purchase2, caps)
	return caps
}

// At returns the capacity at week under the given purchase schedule,
// simulating only weeks 0..week.
func (m *CapacityModel) At(seed uint64, week, purchase1, purchase2 int) float64 {
	var caps [Weeks]float64
	m.simulate(seed, purchase1, purchase2, caps[:week+1])
	return caps[week]
}

// Generate implements vg.Function.
func (m *CapacityModel) Generate(seed uint64, args []value.Value) (value.Value, error) {
	week, err := weekArg("CapacityModel", args, 0)
	if err != nil {
		return value.Null, err
	}
	p1, p2, err := purchaseArgs(args)
	if err != nil {
		return value.Null, err
	}
	return value.Float(m.At(seed, week, p1, p2)), nil
}

var _ vg.SeriesFunction = (*CapacityModel)(nil)

// SeriesAxis implements vg.SeriesFunction: the week argument indexes the
// year.
func (m *CapacityModel) SeriesAxis() (axis, length int) { return 0, Weeks }

// Series implements vg.SeriesFunction: the whole year at seed, one chain.
func (m *CapacityModel) Series(seed uint64, args []value.Value, out []float64) error {
	if len(out) != Weeks {
		return fmt.Errorf("models: CapacityModel series needs %d weeks, got %d", Weeks, len(out))
	}
	p1, p2, err := purchaseArgs(args)
	if err != nil {
		return err
	}
	m.simulate(seed, p1, p2, out)
	return nil
}

func purchaseArgs(args []value.Value) (purchase1, purchase2 int, err error) {
	p1, err := args[1].AsInt()
	if err != nil {
		return 0, 0, fmt.Errorf("models: CapacityModel purchase1 argument: %v", err)
	}
	p2, err := args[2].AsInt()
	if err != nil {
		return 0, 0, fmt.Errorf("models: CapacityModel purchase2 argument: %v", err)
	}
	return int(p1), int(p2), nil
}

// RevenueConfig calibrates the pricing model used by the revenue example.
type RevenueConfig struct {
	// MarketSize is the expected unit demand at the reference price.
	MarketSize float64
	// ReferencePrice is the price at which demand equals MarketSize.
	ReferencePrice float64
	// Elasticity is the (positive) price elasticity of demand.
	Elasticity float64
	// Sigma is the multiplicative demand noise (lognormal sigma).
	Sigma float64
	// GrowthPerWeek is the weekly market growth factor.
	GrowthPerWeek float64
}

// DefaultRevenueConfig returns the calibration used by the pricing example.
func DefaultRevenueConfig() RevenueConfig {
	return RevenueConfig{
		MarketSize:     100000,
		ReferencePrice: 10,
		Elasticity:     1.6,
		Sigma:          0.08,
		GrowthPerWeek:  0.004,
	}
}

// RevenueModel is a constant-elasticity pricing model for the pricing
// what-if example: weekly unit demand scales as (p/p₀)^-ε with lognormal
// noise; revenue = price × units.
//
// Scenario signature: RevenueModel(@current, @price) → weekly revenue.
// UnitsModel(@current, @price) → weekly unit demand.
type RevenueModel struct {
	cfg RevenueConfig
}

// NewRevenueModel returns a revenue model with the given calibration.
func NewRevenueModel(cfg RevenueConfig) *RevenueModel { return &RevenueModel{cfg: cfg} }

// Units returns the stochastic unit demand at week for the given price.
// The noise stream is keyed by week only, so demands at different prices
// are exact deterministic transforms of each other — affine in log space
// and, at fixed price ratio, exactly proportional: the affine-mapping
// showcase.
func (m *RevenueModel) Units(seed uint64, week int, price float64) float64 {
	growth := 1.0
	for i := 0; i < week; i++ {
		growth *= 1 + m.cfg.GrowthPerWeek
	}
	src := rng.Key(seed, "revenue.units").At(uint64(week))
	noise := src.LogNormal(0, m.cfg.Sigma)
	rel := price / m.cfg.ReferencePrice
	elastic := 1.0
	if rel > 0 {
		elastic = math.Pow(rel, -m.cfg.Elasticity)
	}
	return m.cfg.MarketSize * growth * elastic * noise
}

// Revenue returns price × units.
func (m *RevenueModel) Revenue(seed uint64, week int, price float64) float64 {
	return price * m.Units(seed, week, price)
}

// Name implements vg.Function.
func (m *RevenueModel) Name() string { return "RevenueModel" }

// Arity implements vg.Function.
func (m *RevenueModel) Arity() int { return 2 }

// Generate implements vg.Function.
func (m *RevenueModel) Generate(seed uint64, args []value.Value) (value.Value, error) {
	week, err := weekArg("RevenueModel", args, 0)
	if err != nil {
		return value.Null, err
	}
	price, err := args[1].AsFloat()
	if err != nil {
		return value.Null, fmt.Errorf("models: RevenueModel price argument: %v", err)
	}
	if price <= 0 {
		return value.Null, fmt.Errorf("models: RevenueModel price must be positive, got %g", price)
	}
	return value.Float(m.Revenue(seed, week, price)), nil
}

// unitsFunc adapts RevenueModel.Units as its own VG-Function.
type unitsFunc struct {
	m *RevenueModel
}

func (u *unitsFunc) Name() string { return "UnitsModel" }
func (u *unitsFunc) Arity() int   { return 2 }
func (u *unitsFunc) Generate(seed uint64, args []value.Value) (value.Value, error) {
	week, err := weekArg("UnitsModel", args, 0)
	if err != nil {
		return value.Null, err
	}
	price, err := args[1].AsFloat()
	if err != nil {
		return value.Null, fmt.Errorf("models: UnitsModel price argument: %v", err)
	}
	if price <= 0 {
		return value.Null, fmt.Errorf("models: UnitsModel price must be positive, got %g", price)
	}
	return value.Float(u.m.Units(seed, week, price)), nil
}

// UnitsFunction returns the UnitsModel VG-Function backed by m.
func (m *RevenueModel) UnitsFunction() vg.Function { return &unitsFunc{m: m} }

// RegisterDefaults registers the demo models with their default
// calibrations: DemandModel, CapacityModel, RevenueModel and UnitsModel.
func RegisterDefaults(r *vg.Registry) error {
	if err := r.Register(NewDemandModel(DefaultDemandConfig())); err != nil {
		return err
	}
	if err := r.Register(NewCapacityModel(DefaultCapacityConfig())); err != nil {
		return err
	}
	rev := NewRevenueModel(DefaultRevenueConfig())
	if err := r.Register(rev); err != nil {
		return err
	}
	return r.Register(rev.UnitsFunction())
}

func weekArg(fn string, args []value.Value, idx int) (int, error) {
	w, err := args[idx].AsInt()
	if err != nil {
		return 0, fmt.Errorf("models: %s week argument: %v", fn, err)
	}
	if w < 0 || w >= Weeks {
		return 0, fmt.Errorf("models: %s week %d outside [0, %d]", fn, w, Weeks-1)
	}
	return int(w), nil
}
