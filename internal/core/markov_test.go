package core

import (
	"math"
	"testing"

	"fuzzyprophet/internal/rng"
)

// buildChain simulates a simple capacity-style chain for each fingerprint
// seed: deterministic drift everywhere except at shock steps, where fresh
// large-variance randomness enters.
func buildChain(cfg Config, steps int, shocks map[int]bool) [][]float64 {
	seeds := testSeeds(0x66757a7a79, cfg.Length)
	out := make([][]float64, steps)
	states := make([]float64, len(seeds))
	for i, s := range seeds {
		states[i] = rng.New(s).Normal(1000, 100)
	}
	for t := 0; t < steps; t++ {
		if t > 0 {
			for i, s := range seeds {
				states[i] += 5 // deterministic drift
				if shocks[t] {
					states[i] += rng.Derive(s, "shock", uint64(t)).Normal(0, 500)
				}
			}
		}
		row := make([]float64, len(states))
		copy(row, states)
		out[t] = row
	}
	return out
}

func TestAnalyzeChainFindsRegionsBetweenShocks(t *testing.T) {
	cfg := DefaultConfig()
	chain := buildChain(cfg, 20, map[int]bool{10: true})
	est, err := AnalyzeChain(cfg, chain)
	if err != nil {
		t.Fatal(err)
	}
	if est.StepCount != 20 {
		t.Errorf("step count = %d", est.StepCount)
	}
	if len(est.Regions) != 2 {
		t.Fatalf("regions = %+v, want 2", est.Regions)
	}
	r0, r1 := est.Regions[0], est.Regions[1]
	if r0.Start != 0 || r0.End != 9 {
		t.Errorf("region0 = [%d,%d], want [0,9]", r0.Start, r0.End)
	}
	if r1.Start != 10 || r1.End != 19 {
		t.Errorf("region1 = [%d,%d], want [10,19]", r1.Start, r1.End)
	}
	// The deterministic drift composes to x_end = x_start + 5*steps.
	if math.Abs(r0.Fit.A-1) > 1e-9 || math.Abs(r0.Fit.B-45) > 1e-6 {
		t.Errorf("region0 fit = %+v, want A=1 B=45", r0.Fit)
	}
	// 18 of 19 transitions are skippable (only the shock transition is not).
	if est.SkippableSteps() != 18 {
		t.Errorf("skippable = %d", est.SkippableSteps())
	}
	if math.Abs(est.SkipFraction()-18.0/19.0) > 1e-12 {
		t.Errorf("skip fraction = %g", est.SkipFraction())
	}
}

func TestAnalyzeChainAllDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	chain := buildChain(cfg, 10, nil)
	est, err := AnalyzeChain(cfg, chain)
	if err != nil {
		t.Fatal(err)
	}
	if len(est.Regions) != 1 {
		t.Fatalf("regions = %+v", est.Regions)
	}
	if est.SkipFraction() != 1 {
		t.Errorf("skip fraction = %g", est.SkipFraction())
	}
}

func TestAnalyzeChainAllShocks(t *testing.T) {
	cfg := DefaultConfig()
	shocks := map[int]bool{}
	for i := 1; i < 8; i++ {
		shocks[i] = true
	}
	chain := buildChain(cfg, 8, shocks)
	est, err := AnalyzeChain(cfg, chain)
	if err != nil {
		t.Fatal(err)
	}
	if len(est.Regions) != 0 {
		t.Errorf("regions = %+v, want none", est.Regions)
	}
	if est.SkipFraction() != 0 {
		t.Errorf("skip fraction = %g", est.SkipFraction())
	}
}

func TestEstimatorJump(t *testing.T) {
	cfg := DefaultConfig()
	chain := buildChain(cfg, 12, map[int]bool{6: true})
	est, err := AnalyzeChain(cfg, chain)
	if err != nil {
		t.Fatal(err)
	}
	// Jump from the start of the first region.
	toStep, y, ok := est.Jump(0, 1000)
	if !ok {
		t.Fatal("expected a jump at step 0")
	}
	if toStep != 5 {
		t.Errorf("jump landed at %d", toStep)
	}
	if math.Abs(y-1025) > 1e-6 {
		t.Errorf("jump value = %g, want 1025", y)
	}
	// No jump from inside a region.
	if _, _, ok := est.Jump(2, 0); ok {
		t.Error("jump from inside a region should refuse")
	}
}

func TestAnalyzeChainValidation(t *testing.T) {
	cfg := DefaultConfig()
	if _, err := AnalyzeChain(cfg, [][]float64{{1}, {2}}); err == nil {
		t.Error("width < 2 should error")
	}
	if _, err := AnalyzeChain(cfg, [][]float64{{1, 2}, {1, 2, 3}}); err == nil {
		t.Error("ragged chain should error")
	}
	est, err := AnalyzeChain(cfg, nil)
	if err != nil || est.StepCount != 0 {
		t.Errorf("empty chain: %+v, %v", est, err)
	}
	bad := cfg
	bad.Length = 1
	if _, err := AnalyzeChain(bad, [][]float64{{1, 2}}); err == nil {
		t.Error("invalid config should error")
	}
}

func TestAnalyzeChainSingleStep(t *testing.T) {
	cfg := DefaultConfig()
	est, err := AnalyzeChain(cfg, [][]float64{{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if len(est.Regions) != 0 || est.SkipFraction() != 0 {
		t.Errorf("single step estimator = %+v", est)
	}
}

func TestRegionSteps(t *testing.T) {
	r := Region{Start: 3, End: 9}
	if r.Steps() != 6 {
		t.Errorf("steps = %d", r.Steps())
	}
}
