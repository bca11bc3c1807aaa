// Benchmarks regenerating the paper's figures and performance claims, one
// per experiment in cmd/fpbench's package-doc index. Run with:
//
//	go test -bench=. -benchmem
//
// Custom metrics: vg/op is the number of VG-Function invocations per
// benchmark iteration — the work the fingerprint technique avoids.
package fuzzyprophet_test

import (
	"context"
	"fmt"
	"testing"

	fp "fuzzyprophet"
	"fuzzyprophet/internal/core"
	"fuzzyprophet/internal/mc"
	"fuzzyprophet/internal/models"
	"fuzzyprophet/internal/sqlparser"
)

const benchScenario = `
DECLARE PARAMETER @current AS RANGE 0 TO 52 STEP BY 1;
DECLARE PARAMETER @purchase1 AS RANGE 0 TO 48 STEP BY 8;
DECLARE PARAMETER @purchase2 AS RANGE 0 TO 48 STEP BY 8;
DECLARE PARAMETER @feature AS SET (12,36,44);
SELECT DemandModel(@current, @feature) AS demand,
       CapacityModel(@current, @purchase1, @purchase2) AS capacity,
       CASE WHEN capacity < demand THEN 1 ELSE 0 END AS overload
INTO results;
GRAPH OVER @current EXPECT overload WITH bold red, EXPECT capacity WITH blue y2, EXPECT_STDDEV demand WITH orange y2;
OPTIMIZE SELECT @feature, @purchase1, @purchase2 FROM results
WHERE MAX(EXPECT overload) < 0.05 AND @purchase1 <= @purchase2
GROUP BY feature, purchase1, purchase2
FOR MAX @purchase1, MAX @purchase2;
`

// tinySweep is a reduced grid so one offline sweep fits in a benchmark
// iteration.
const tinySweep = `
DECLARE PARAMETER @current AS RANGE 0 TO 52 STEP BY 1;
DECLARE PARAMETER @purchase1 AS RANGE 0 TO 48 STEP BY 24;
DECLARE PARAMETER @purchase2 AS RANGE 0 TO 48 STEP BY 24;
DECLARE PARAMETER @feature AS SET (36);
SELECT DemandModel(@current, @feature) AS demand,
       CapacityModel(@current, @purchase1, @purchase2) AS capacity,
       CASE WHEN capacity < demand THEN 1 ELSE 0 END AS overload
INTO results;
OPTIMIZE SELECT @feature, @purchase1, @purchase2 FROM results
WHERE MAX(EXPECT overload) < 0.05 GROUP BY feature, purchase1, purchase2
FOR MAX @purchase1, MAX @purchase2;
`

func benchSystem(b *testing.B) *fp.System {
	b.Helper()
	sys, err := fp.New(fp.WithDemoModels())
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

// BenchmarkFig2_ParseScenario: parsing + compiling the Figure 2 scenario.
func BenchmarkFig2_ParseScenario(b *testing.B) {
	sys := benchSystem(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Compile(benchScenario); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2_ParseOnly: the raw parser on Figure 2's text.
func BenchmarkFig2_ParseOnly(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sqlparser.Parse(benchScenario); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3_OnlineFirstRender: a cold 53-week render of the Figure 3
// graph (every point simulated).
func BenchmarkFig3_OnlineFirstRender(b *testing.B) {
	sys := benchSystem(b)
	scn, err := sys.Compile(benchScenario)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var inv int64
	for i := 0; i < b.N; i++ {
		session, err := scn.OpenSession(fp.WithWorlds(100))
		if err != nil {
			b.Fatal(err)
		}
		sys.ResetVGInvocations()
		if _, err := session.Render(context.Background()); err != nil {
			b.Fatal(err)
		}
		inv += sys.VGInvocations()
	}
	b.ReportMetric(float64(inv)/float64(b.N), "vg/op")
}

// BenchmarkFig3_AdjustmentRender: re-render after moving @purchase1 one
// grid step in a warm session (the paper's partial re-render claim).
func BenchmarkFig3_AdjustmentRender(b *testing.B) {
	sys := benchSystem(b)
	scn, err := sys.Compile(benchScenario)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var inv int64
	for i := 0; i < b.N; i++ {
		// Fresh session per iteration: warm one slider position outside
		// the timed region, then time the adjusted re-render (the mix of
		// remapped and recomputed weeks the paper demonstrates).
		b.StopTimer()
		session, err := scn.OpenSession(fp.WithWorlds(100))
		if err != nil {
			b.Fatal(err)
		}
		if err := session.SetParam("purchase1", 16); err != nil {
			b.Fatal(err)
		}
		if _, err := session.Render(context.Background()); err != nil {
			b.Fatal(err)
		}
		if err := session.SetParam("purchase1", 24); err != nil {
			b.Fatal(err)
		}
		sys.ResetVGInvocations()
		b.StartTimer()
		if _, err := session.Render(context.Background()); err != nil {
			b.Fatal(err)
		}
		inv += sys.VGInvocations()
	}
	b.ReportMetric(float64(inv)/float64(b.N), "vg/op")
}

// BenchmarkFig4_MappingSlice: classifying the 7×7 (purchase1 × purchase2)
// slice of the Capacity model's fingerprint mappings.
func BenchmarkFig4_MappingSlice(b *testing.B) {
	sys := benchSystem(b)
	scn, err := sys.Compile(benchScenario)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Each iteration explores the slice fresh (cold reuse engine).
		for p1 := 0; p1 <= 48; p1 += 8 {
			for p2 := 0; p2 <= 48; p2 += 8 {
				if _, err := scn.Evaluate(context.Background(), map[string]any{
					"current": 26, "purchase1": p1, "purchase2": p2, "feature": 36,
				}, fp.WithWorlds(100)); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkE1_TimeToFirstGuess_Cold: convergence from scratch.
func BenchmarkE1_TimeToFirstGuess_Cold(b *testing.B) {
	sys := benchSystem(b)
	scn, err := sys.Compile(benchScenario)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		session, err := scn.OpenSession(fp.WithWorlds(200))
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := session.TimeToFirstAccurateGuess(context.Background(), 0.1, 64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE1_TimeToFirstGuess_Warm: convergence with a warmed basis store.
func BenchmarkE1_TimeToFirstGuess_Warm(b *testing.B) {
	sys := benchSystem(b)
	scn, err := sys.Compile(benchScenario)
	if err != nil {
		b.Fatal(err)
	}
	session, err := scn.OpenSession(fp.WithWorlds(200))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := session.Render(context.Background()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := session.TimeToFirstAccurateGuess(context.Background(), 0.1, 64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2_AdjustPurchase / BenchmarkE2_AdjustFeature: one adjusted
// re-render, the §3.2 partial-recompute claim under both slider types.
func BenchmarkE2_AdjustPurchase(b *testing.B) {
	benchAdjust(b, "purchase1", []int{16, 24})
}

func BenchmarkE2_AdjustFeature(b *testing.B) {
	benchAdjust(b, "feature", []int{12, 36})
}

func benchAdjust(b *testing.B, param string, positions []int) {
	b.Helper()
	sys := benchSystem(b)
	scn, err := sys.Compile(benchScenario)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var inv int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		session, err := scn.OpenSession(fp.WithWorlds(100))
		if err != nil {
			b.Fatal(err)
		}
		if err := session.SetParam(param, positions[0]); err != nil {
			b.Fatal(err)
		}
		if _, err := session.Render(context.Background()); err != nil {
			b.Fatal(err)
		}
		if err := session.SetParam(param, positions[1]); err != nil {
			b.Fatal(err)
		}
		sys.ResetVGInvocations()
		b.StartTimer()
		if _, err := session.Render(context.Background()); err != nil {
			b.Fatal(err)
		}
		inv += sys.VGInvocations()
	}
	b.ReportMetric(float64(inv)/float64(b.N), "vg/op")
}

// BenchmarkE3_OfflineSweep_Naive / _Fingerprint: the §3.3 full-space sweep
// on a reduced grid, with and without reuse.
func BenchmarkE3_OfflineSweep_Naive(b *testing.B) {
	benchSweep(b, true)
}

func BenchmarkE3_OfflineSweep_Fingerprint(b *testing.B) {
	benchSweep(b, false)
}

func benchSweep(b *testing.B, disableReuse bool) {
	b.Helper()
	sys := benchSystem(b)
	scn, err := sys.Compile(tinySweep)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var inv int64
	var hits, misses int64
	for i := 0; i < b.N; i++ {
		sys.ResetVGInvocations()
		opts := []fp.EvalOption{fp.WithWorlds(100)}
		var cache *fp.ReuseCache
		if disableReuse {
			opts = append(opts, fp.WithoutReuse())
		} else {
			// A fresh shared cache per iteration, so the basis-store
			// hit/miss counters measure exactly one sweep.
			if cache, err = fp.NewReuseCache(); err != nil {
				b.Fatal(err)
			}
			opts = append(opts, fp.WithReuseCache(cache))
		}
		if _, err := scn.Optimize(context.Background(), nil, opts...); err != nil {
			b.Fatal(err)
		}
		inv += sys.VGInvocations()
		if cache != nil {
			st := cache.StoreStats()
			hits += st.Hits
			misses += st.Misses
		}
	}
	b.ReportMetric(float64(inv)/float64(b.N), "vg/op")
	if !disableReuse && hits+misses > 0 {
		// The reuse-hit-rate report: what fraction of basis-store lookups
		// were exact hits across the sweep.
		b.ReportMetric(100*float64(hits)/float64(hits+misses), "hit%")
	}
}

// BenchmarkE4_FingerprintLength: the reuse pipeline under different probe
// counts k (the E4 ablation's cost axis).
func BenchmarkE4_FingerprintLength(b *testing.B) {
	for _, k := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			sys := benchSystem(b)
			scn, err := sys.Compile(tinySweep)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := scn.Optimize(context.Background(), nil, fp.WithWorlds(200), fp.WithFingerprintLength(k)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE5_MarkovAnalyze: fingerprinting all 53 steps of the capacity
// chain and synthesizing the non-Markovian estimators.
func BenchmarkE5_MarkovAnalyze(b *testing.B) {
	cm := models.NewCapacityModel(models.DefaultCapacityConfig())
	cfg := core.DefaultConfig()
	seeds := make([]uint64, cfg.Length)
	for i := range seeds {
		seeds[i] = mc.WorldSeed(mc.DefaultSeedBase, "CapacityModel#0", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chain := make([][]float64, models.Weeks)
		series := make([][]float64, len(seeds))
		for j, s := range seeds {
			series[j] = cm.Year(s, 16, 32)
		}
		for w := 0; w < models.Weeks; w++ {
			row := make([]float64, len(seeds))
			for j := range seeds {
				row[j] = series[j][w]
			}
			chain[w] = row
		}
		est, err := core.AnalyzeChain(cfg, chain)
		if err != nil {
			b.Fatal(err)
		}
		if est.SkipFraction() == 0 {
			b.Fatal("no skippable regions found")
		}
	}
}

// BenchmarkCore_EvaluatePoint: one scenario point end to end (VG sampling,
// worlds table, Query Generator, SQL execution, collection).
func BenchmarkCore_EvaluatePoint(b *testing.B) {
	sys := benchSystem(b)
	scn, err := sys.Compile(benchScenario)
	if err != nil {
		b.Fatal(err)
	}
	pt := map[string]any{"current": 26, "purchase1": 16, "purchase2": 32, "feature": 36}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scn.Evaluate(context.Background(), pt, fp.WithWorlds(200), fp.WithoutReuse()); err != nil {
			b.Fatal(err)
		}
	}
}
