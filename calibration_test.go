package fuzzyprophet

import (
	"context"
	"math"
	"testing"

	"fuzzyprophet/internal/rng"
)

// TestCI95Coverage: the CI95 half-width a summary reports covers the true
// mean at its nominal 95% rate. A test VG draws Normal(10, 3); across 2,000
// seed bases, at 32 and at 400 worlds, μ ± CI95 must contain 10 at a rate
// inside the α = 0.001 two-sided binomial band around the nominal rate.
//
// CI95 is the normal approximation 1.96·SE with the unbiased sample
// deviation (stats.Moments.CI95), so its exact coverage at n worlds is
// P(|t_{n−1}| < 1.96): 0.9410 at 32 worlds, where Student's t has visibly
// heavier tails than the normal, and 0.9493 at 400. The rows are checked
// against those rates too. At these seeds the measured rates are 0.9430
// (32 worlds) and 0.9425 (400 worlds), both inside the band around 0.95.
func TestCI95Coverage(t *testing.T) {
	sys := demoSystem(t)
	err := sys.RegisterVG("CoverageNormal", 2, func(seed uint64, args []float64) (float64, error) {
		return args[0] + args[1]*rng.New(seed).Norm(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	scn, err := sys.Compile(`
DECLARE PARAMETER @mu AS SET (10);
SELECT CoverageNormal(@mu, 3) AS x;`)
	if err != nil {
		t.Fatal(err)
	}
	const seeds = 2000
	// z for α = 0.001, two-sided.
	const z = 3.2905
	band := func(p float64) (float64, float64) {
		half := z * math.Sqrt(p*(1-p)/seeds)
		return p - half, p + half
	}
	ctx := context.Background()
	for _, row := range []struct {
		worlds int
		exact  float64 // P(|t_{worlds-1}| < 1.96)
	}{
		{32, 0.9410},
		{400, 0.9493},
	} {
		covered := 0
		for seed := uint64(1); seed <= seeds; seed++ {
			sum, err := scn.Evaluate(ctx, map[string]any{"mu": 10}, WithWorlds(row.worlds), WithSeedBase(seed), WithoutReuse())
			if err != nil {
				t.Fatal(err)
			}
			if x := sum["x"]; math.Abs(x.Mean-10) <= x.CI95 {
				covered++
			}
		}
		rate := float64(covered) / seeds
		nomLo, nomHi := band(0.95)
		lo, hi := band(row.exact)
		t.Logf("%d worlds: μ ± CI95 covered 10 at %d of %d seed bases (%.4f); band around 0.95 [%.4f, %.4f], around %.4f [%.4f, %.4f]",
			row.worlds, covered, seeds, rate, nomLo, nomHi, row.exact, lo, hi)
		if rate < lo || rate > hi {
			t.Errorf("%d worlds: coverage %.4f outside [%.4f, %.4f]", row.worlds, rate, lo, hi)
		}
		if rate < nomLo || rate > nomHi {
			t.Errorf("%d worlds: coverage %.4f outside the band around 0.95 [%.4f, %.4f]", row.worlds, rate, nomLo, nomHi)
		}
	}
}
