package main

import (
	"context"
	"fmt"
	"math"
	"time"

	fp "fuzzyprophet"
	"fuzzyprophet/internal/core"
	"fuzzyprophet/internal/guide"
	"fuzzyprophet/internal/mc"
	"fuzzyprophet/internal/models"
	"fuzzyprophet/internal/scenario"
	"fuzzyprophet/internal/sqlparser"
	"fuzzyprophet/internal/stats"
	"fuzzyprophet/internal/storage"
	"fuzzyprophet/internal/value"
	"fuzzyprophet/internal/vg"
	"fuzzyprophet/internal/viz"
)

// figure2Verbatim is the paper's Figure 2, character-faithful modulo
// whitespace.
const figure2Verbatim = `
-- DEFINITION --
DECLARE PARAMETER @current AS RANGE 0 TO 52 STEP BY 1;
DECLARE PARAMETER @purchase1 AS RANGE 0 TO 52 STEP BY 4;
DECLARE PARAMETER @purchase2 AS RANGE 0 TO 52 STEP BY 4;
DECLARE PARAMETER @feature AS SET (12,36,44);

SELECT DemandModel(@current, @feature)
       AS demand,
       CapacityModel(@current, @purchase1, @purchase2)
       AS capacity,
       CASE WHEN capacity < demand THEN 1 ELSE 0 END
       AS overload
INTO results;

GRAPH OVER @current
      EXPECT overload WITH bold red,
      EXPECT capacity WITH blue y2,
      EXPECT_STDDEV demand WITH orange y2;

OPTIMIZE SELECT @feature, @purchase1, @purchase2
FROM results
WHERE MAX(EXPECT overload) < 0.01
GROUP BY feature, purchase1, purchase2
FOR MAX @purchase1, MAX @purchase2
`

// sweepScenario builds the demo scenario on a given purchase grid step and
// threshold.
func sweepScenario(step int, threshold float64) string {
	return fmt.Sprintf(`
DECLARE PARAMETER @current AS RANGE 0 TO 52 STEP BY 1;
DECLARE PARAMETER @purchase1 AS RANGE 0 TO 48 STEP BY %d;
DECLARE PARAMETER @purchase2 AS RANGE 0 TO 48 STEP BY %d;
DECLARE PARAMETER @feature AS SET (12,36,44);
SELECT DemandModel(@current, @feature) AS demand,
       CapacityModel(@current, @purchase1, @purchase2) AS capacity,
       CASE WHEN capacity < demand THEN 1 ELSE 0 END AS overload
INTO results;
GRAPH OVER @current EXPECT overload WITH bold red, EXPECT capacity WITH blue y2, EXPECT_STDDEV demand WITH orange y2;
OPTIMIZE SELECT @feature, @purchase1, @purchase2 FROM results
WHERE MAX(EXPECT overload) < %g AND @purchase1 <= @purchase2
GROUP BY feature, purchase1, purchase2
FOR MAX @purchase1, MAX @purchase2;
`, step, step, threshold)
}

func demoSystem() (*fp.System, error) {
	return fp.New(fp.WithDemoModels())
}

// runFig2 reproduces Figure 2: the scenario text parses, round-trips
// through the canonical printer, and compiles against the demo models.
func runFig2() error {
	section("FIG2 — Figure 2: the example business scenario")
	script, err := sqlparser.Parse(figure2Verbatim)
	if err != nil {
		return err
	}
	fmt.Printf("parsed statements: %d\n", len(script.Statements))
	canonical := sqlparser.Print(script)
	reparsed, err := sqlparser.Parse(canonical)
	if err != nil {
		return fmt.Errorf("canonical form does not re-parse: %w", err)
	}
	if sqlparser.Print(reparsed) != canonical {
		return fmt.Errorf("print/parse fixpoint violated")
	}
	fmt.Println("print → parse → print fixpoint: OK")

	sys, err := demoSystem()
	if err != nil {
		return err
	}
	scn, err := sys.Compile(figure2Verbatim)
	if err != nil {
		return err
	}
	fmt.Printf("parameter space: %d points (53 × 14 × 14 × 3)\n", scn.SpaceSize())
	fmt.Printf("VG call sites: DemandModel, CapacityModel; outputs: %v\n", scn.OutputColumns())
	fmt.Println("\ncanonical form:")
	fmt.Println(canonical)
	return nil
}

// runFig3 reproduces Figure 3: the online interface's graph — E[overload]
// (bold red), E[capacity] (blue, y2), stddev[demand] (orange, y2) per week.
func runFig3(ctx context.Context, worlds int) error {
	section("FIG3 — Figure 3: the online interface graph")
	sys, err := demoSystem()
	if err != nil {
		return err
	}
	scn, err := sys.Compile(sweepScenario(8, 0.05))
	if err != nil {
		return err
	}
	session, err := scn.OpenSession(fp.WithWorlds(worlds))
	if err != nil {
		return err
	}
	for name, v := range map[string]int{"purchase1": 16, "purchase2": 32, "feature": 36} {
		if err := session.SetParam(name, v); err != nil {
			return err
		}
	}
	g, err := session.Render(ctx)
	if err != nil {
		return err
	}
	chart, err := session.Ascii(g, 16)
	if err != nil {
		return err
	}
	fmt.Println(chart)
	fmt.Println("series values (per week):")
	fmt.Println("week  E[overload]  E[capacity]  sd[demand]")
	for i := range g.X {
		fmt.Printf("%4.0f  %11.4f  %11.0f  %10.0f\n",
			g.X[i], g.Series[0].Y[i], g.Series[1].Y[i], g.Series[2].Y[i])
	}
	return nil
}

// runFig4 reproduces Figure 4: a 2-D slice of fingerprint mappings for the
// Capacity model over (purchase1 × purchase2), classifying each explored
// point as computed, identity-mapped, affine-mapped or cached.
func runFig4(ctx context.Context, worlds, step int) error {
	section("FIG4 — Figure 4: 2-D slice of fingerprint mappings (Capacity model)")
	reg := vg.NewRegistry()
	if err := vg.RegisterBuiltins(reg); err != nil {
		return err
	}
	if err := models.RegisterDefaults(reg); err != nil {
		return err
	}
	scn, err := scenario.Compile(sweepScenario(step, 0.05), reg)
	if err != nil {
		return err
	}
	reuse, err := mc.NewReuse(core.DefaultConfig(), storage.Options{})
	if err != nil {
		return err
	}
	ev := mc.NewEvaluator(scn, mc.Options{Worlds: worlds, Reuse: reuse})

	var p1Vals, p2Vals []int64
	for v := int64(0); v <= 48; v += int64(step) {
		p1Vals = append(p1Vals, v)
		p2Vals = append(p2Vals, v)
	}
	rowLabels := make([]string, len(p1Vals))
	colLabels := make([]string, len(p2Vals))
	for i, v := range p1Vals {
		rowLabels[i] = fmt.Sprint(v)
	}
	for i, v := range p2Vals {
		colLabels[i] = fmt.Sprint(v)
	}
	const week = 26 // the slice's fixed @current
	grid := viz.NewMapGrid(
		fmt.Sprintf("fingerprint mappings for CapacityModel at @current=%d, @feature=36", week),
		"p1", "p2", rowLabels, colLabels)

	for i, p1 := range p1Vals {
		for j, p2 := range p2Vals {
			pt := guide.Point{
				"current":   value.Int(week),
				"purchase1": value.Int(p1),
				"purchase2": value.Int(p2),
				"feature":   value.Int(36),
			}
			res, err := ev.EvaluatePoint(ctx, pt)
			if err != nil {
				return err
			}
			switch res.SiteOutcome["CapacityModel#0"] {
			case mc.Computed:
				grid.Set(i, j, viz.CellComputed)
			case mc.Identity:
				grid.Set(i, j, viz.CellIdentity)
			case mc.Affine:
				grid.Set(i, j, viz.CellAffine)
			case mc.CachedExact:
				grid.Set(i, j, viz.CellCached)
			}
		}
	}
	fmt.Println(grid.Render())
	counts := grid.Counts()
	explored := counts[viz.CellComputed] + counts[viz.CellIdentity] + counts[viz.CellAffine] + counts[viz.CellCached]
	reused := explored - counts[viz.CellComputed]
	fmt.Printf("points served without fresh simulation: %d / %d (%.0f%%)\n",
		reused, explored, 100*float64(reused)/float64(explored))
	fmt.Printf("index reuse statistics: %s\n", reuse.Index().Stats())
	return nil
}

// runE1 measures §3.2's first claim: the first accurate render takes
// noticeably long; a warm session (fingerprint store populated by earlier
// exploration) reaches accuracy much faster.
func runE1(ctx context.Context, worlds int) error {
	section("E1 — §3.2: time to first accurate statistics (cold vs warm)")
	sys, err := demoSystem()
	if err != nil {
		return err
	}
	scn, err := sys.Compile(sweepScenario(8, 0.05))
	if err != nil {
		return err
	}

	// Both sessions measure time-to-accuracy at the SAME target point
	// (purchase1=24); the warm session has previously explored the
	// neighboring purchase1=16, so its basis store lets fingerprint
	// mappings replace most fresh simulation.
	target := map[string]int{"purchase1": 24, "purchase2": 32, "feature": 36}

	cold, err := scn.OpenSession(fp.WithWorlds(worlds))
	if err != nil {
		return err
	}
	for name, v := range target {
		if err := cold.SetParam(name, v); err != nil {
			return err
		}
	}
	coldTime, coldWorlds, err := cold.TimeToFirstAccurateGuess(ctx, 0.1, 64)
	if err != nil {
		return err
	}
	fmt.Printf("cold session:  %v to first accurate guess (%d worlds/point, 53 points)\n",
		coldTime.Round(time.Millisecond), coldWorlds)

	warm, err := scn.OpenSession(fp.WithWorlds(worlds))
	if err != nil {
		return err
	}
	for name, v := range target {
		if err := warm.SetParam(name, v); err != nil {
			return err
		}
	}
	if err := warm.SetParam("purchase1", 16); err != nil {
		return err
	}
	if _, err := warm.Render(ctx); err != nil { // prior exploration, not timed
		return err
	}
	if err := warm.SetParam("purchase1", 24); err != nil {
		return err
	}
	warmTime, warmWorlds, err := warm.TimeToFirstAccurateGuess(ctx, 0.1, 64)
	if err != nil {
		return err
	}
	fmt.Printf("warm session:  %v to first accurate guess at the same point after exploring @purchase1=16 (%d worlds/point)\n",
		warmTime.Round(time.Millisecond), warmWorlds)
	if warmTime < coldTime {
		fmt.Printf("speedup: %.1fx lower time-to-first-accurate-guess\n",
			float64(coldTime)/float64(warmTime))
	}
	return nil
}

// runE2 measures §3.2's second claim: an adjustment re-renders only
// portions of the graph.
func runE2(ctx context.Context, worlds int) error {
	section("E2 — §3.2: fraction of the graph recomputed after adjustments")
	sys, err := demoSystem()
	if err != nil {
		return err
	}
	scn, err := sys.Compile(sweepScenario(8, 0.05))
	if err != nil {
		return err
	}
	session, err := scn.OpenSession(fp.WithWorlds(worlds))
	if err != nil {
		return err
	}
	for name, v := range map[string]int{"purchase1": 16, "purchase2": 32, "feature": 36} {
		if err := session.SetParam(name, v); err != nil {
			return err
		}
	}
	sys.ResetVGInvocations()
	g, err := session.Render(ctx)
	if err != nil {
		return err
	}
	firstInv := sys.VGInvocations()
	fmt.Printf("first render:            recomputed %2d/%d weeks (%3.0f%%), %8d VG invocations, %v\n",
		g.Stats.Recomputed, g.Stats.Points, 100*g.Stats.RecomputedFraction(), firstInv,
		g.Stats.Elapsed.Round(time.Millisecond))

	adjust := func(label, param string, v int) error {
		if err := session.SetParam(param, v); err != nil {
			return err
		}
		sys.ResetVGInvocations()
		g, err := session.Render(ctx)
		if err != nil {
			return err
		}
		inv := sys.VGInvocations()
		fmt.Printf("%-24s recomputed %2d/%d weeks (%3.0f%%), %8d VG invocations (%.1f%% of first), %v\n",
			label+":", g.Stats.Recomputed, g.Stats.Points, 100*g.Stats.RecomputedFraction(),
			inv, 100*float64(inv)/float64(firstInv), g.Stats.Elapsed.Round(time.Millisecond))
		return nil
	}
	if err := adjust("move @purchase1 16→24", "purchase1", 24); err != nil {
		return err
	}
	if err := adjust("move @purchase2 32→40", "purchase2", 40); err != nil {
		return err
	}
	if err := adjust("move @feature 36→12", "feature", 12); err != nil {
		return err
	}
	if err := adjust("revisit @feature 12→36", "feature", 36); err != nil {
		return err
	}
	return nil
}

// runE3 measures §3.3: the offline sweep with and without fingerprints —
// VG invocations, wall time and agreement of the optimization outcome.
func runE3(ctx context.Context, worlds, step int) error {
	section("E3 — §3.3: offline optimization, naive vs fingerprint reuse")
	src := sweepScenario(step, 0.05)

	type outcome struct {
		inv      int64
		elapsed  time.Duration
		feasible int
		best     string
		bestVal  float64
		counts   map[string]int
		points   int
	}
	run := func(disable bool) (outcome, error) {
		sys, err := demoSystem()
		if err != nil {
			return outcome{}, err
		}
		scn, err := sys.Compile(src)
		if err != nil {
			return outcome{}, err
		}
		opts := []fp.EvalOption{fp.WithWorlds(worlds)}
		if disable {
			opts = append(opts, fp.WithoutReuse())
		}
		res, err := scn.Optimize(ctx, nil, opts...)
		if err != nil {
			return outcome{}, err
		}
		o := outcome{
			inv:     sys.VGInvocations(),
			elapsed: res.Elapsed,
			counts:  res.ReuseCounts,
			points:  res.PointsEvaluated,
		}
		for _, r := range res.Rows {
			if r.Feasible {
				o.feasible++
			}
		}
		for _, b := range res.Best {
			o.best += fmt.Sprintf("(feature=%v purchase1=%v purchase2=%v) ",
				b.Group["feature"], b.Group["purchase1"], b.Group["purchase2"])
			o.bestVal = b.Metrics["MAX(EXPECT(overload))"]
		}
		return o, nil
	}

	naive, err := run(true)
	if err != nil {
		return err
	}
	fmt.Printf("naive sweep:       %9d VG invocations, %8v, %d points\n",
		naive.inv, naive.elapsed.Round(time.Millisecond), naive.points)
	reuse, err := run(false)
	if err != nil {
		return err
	}
	fmt.Printf("fingerprint sweep: %9d VG invocations, %8v, %d points, outcomes %v\n",
		reuse.inv, reuse.elapsed.Round(time.Millisecond), reuse.points, reuse.counts)
	fmt.Printf("savings: %.1fx fewer VG invocations, %.1fx faster\n",
		float64(naive.inv)/float64(reuse.inv),
		float64(naive.elapsed)/float64(reuse.elapsed))
	fmt.Printf("feasible groups: naive %d, fingerprint %d\n", naive.feasible, reuse.feasible)
	fmt.Printf("optimum (naive):       %s maxOverload=%.4f\n", naive.best, naive.bestVal)
	fmt.Printf("optimum (fingerprint): %s maxOverload=%.4f\n", reuse.best, reuse.bestVal)
	if naive.best == reuse.best {
		fmt.Printf("decision: IDENTICAL under reuse (metric estimate differs by %.4f — see E4 on probe-length risk)\n",
			math.Abs(naive.bestVal-reuse.bestVal))
	} else {
		fmt.Println("decision: DIFFERS under reuse (see E4 on probe-length risk)")
	}
	return nil
}

// runE4 ablates the fingerprint length k: reuse rate versus estimate error
// introduced by wrongly accepted mappings: a short probe can miss the
// minority-mode worlds inside a stochastic arrival window.
func runE4(ctx context.Context, worlds int) error {
	section("E4 — ablation: fingerprint length k vs reuse rate and estimate error")
	reg := vg.NewRegistry()
	if err := vg.RegisterBuiltins(reg); err != nil {
		return err
	}
	if err := models.RegisterDefaults(reg); err != nil {
		return err
	}
	src := sweepScenario(8, 0.05)
	scn, err := scenario.Compile(src, reg)
	if err != nil {
		return err
	}

	// Ground truth E[overload] per point, simulated directly.
	direct := mc.NewEvaluator(scn, mc.Options{Worlds: worlds})
	type pt struct{ w, p1, p2 int64 }
	var pts []pt
	for w := int64(0); w < 53; w += 1 {
		for _, p1 := range []int64{0, 8, 16} {
			pts = append(pts, pt{w, p1, 32})
		}
	}
	truth := make(map[pt]float64, len(pts))
	for _, p := range pts {
		res, err := direct.EvaluatePoint(ctx, guide.Point{
			"current": value.Int(p.w), "purchase1": value.Int(p.p1),
			"purchase2": value.Int(p.p2), "feature": value.Int(36),
		})
		if err != nil {
			return err
		}
		var m stats.Moments
		for _, x := range res.Columns["overload"] {
			m.Add(x)
		}
		truth[p] = m.Mean()
	}

	fmt.Println("  k   probe cost   reuse rate   max |err|   mean |err|")
	for _, k := range []int{4, 8, 16, 32, 64} {
		cfg := core.DefaultConfig()
		cfg.Length = k
		reuse, err := mc.NewReuse(cfg, storage.Options{})
		if err != nil {
			return err
		}
		ev := mc.NewEvaluator(scn, mc.Options{Worlds: worlds, Reuse: reuse})
		var maxErr, sumErr float64
		for _, p := range pts {
			res, err := ev.EvaluatePoint(ctx, guide.Point{
				"current": value.Int(p.w), "purchase1": value.Int(p.p1),
				"purchase2": value.Int(p.p2), "feature": value.Int(36),
			})
			if err != nil {
				return err
			}
			var m stats.Moments
			for _, x := range res.Columns["overload"] {
				m.Add(x)
			}
			errAbs := math.Abs(m.Mean() - truth[p])
			sumErr += errAbs
			if errAbs > maxErr {
				maxErr = errAbs
			}
		}
		counts := reuse.Counts()
		total := 0
		reused := 0
		for kind, n := range counts {
			total += n
			if kind == mc.Identity || kind == mc.Affine || kind == mc.CachedExact {
				reused += n
			}
		}
		rate := 0.0
		if total > 0 {
			rate = float64(reused) / float64(total)
		}
		fmt.Printf("%3d   %10.1f%%   %9.0f%%   %9.4f   %10.5f\n",
			k, 100*float64(k)/float64(worlds), 100*rate, maxErr, sumErr/float64(len(pts)))
	}
	fmt.Println("\nprobe cost is per candidate point; errors are vs direct simulation")
	fmt.Println("of E[overload]. Short fingerprints accept wrong mappings inside")
	fmt.Println("stochastic arrival windows (minority-mode worlds); k=32 keeps the")
	fmt.Println("max error near Monte Carlo noise while still probing only a small")
	fmt.Println("fraction of the worlds.")
	return nil
}

// runE5 exercises the Markov-chain analyzer of §2: fingerprints of
// consecutive capacity-chain steps reveal regions that a composed affine
// estimator can skip; the estimator's jump accuracy is validated against
// direct simulation.
func runE5() error {
	section("E5 — ablation: Markovian analysis of the capacity chain")
	cm := models.NewCapacityModel(models.DefaultCapacityConfig())
	cfg := core.DefaultConfig()
	seeds := capacityWorlds(0, cfg.Length)

	for _, schedule := range [][2]int{{16, 32}, {8, 40}, {52, 52}} {
		p1, p2 := schedule[0], schedule[1]
		chain := make([][]float64, models.Weeks)
		series := make([][]float64, len(seeds))
		for i, s := range seeds {
			series[i] = cm.Year(s, p1, p2)
		}
		for w := 0; w < models.Weeks; w++ {
			row := make([]float64, len(seeds))
			for i := range seeds {
				row[i] = series[i][w]
			}
			chain[w] = row
		}
		est, err := core.AnalyzeChain(cfg, chain)
		if err != nil {
			return err
		}
		fmt.Printf("\npurchases at (%d, %d): %d regions, %d/%d transitions skippable (%.0f%%)\n",
			p1, p2, len(est.Regions), est.SkippableSteps(), models.Weeks-1, 100*est.SkipFraction())
		for _, r := range est.Regions {
			fmt.Printf("  region weeks %2d..%2d: x_%d ≈ %.4f·x_%d %+0.1f (max step residual %.2g)\n",
				r.Start, r.End, r.End, r.Fit.A, r.Start, r.Fit.B, r.MaxStepResidual)
		}
		// Validate jumps on the next 16 worlds, which the analysis never saw.
		var maxRel float64
		for _, s := range capacityWorlds(cfg.Length, cfg.Length+16) {
			full := cm.Year(s, p1, p2)
			for _, r := range est.Regions {
				_, y, ok := est.Jump(r.Start, full[r.Start])
				if !ok {
					continue
				}
				rel := math.Abs(y-full[r.End]) / math.Max(1, math.Abs(full[r.End]))
				if rel > maxRel {
					maxRel = rel
				}
			}
		}
		fmt.Printf("  jump accuracy on 16 fresh worlds: max relative error %.4f\n", maxRel)
	}
	fmt.Println("\nThe regions break exactly at the stochastic purchase-arrival windows")
	fmt.Println("(\"the nondeterministic date when new hardware comes online\", §2); a")
	fmt.Println("schedule with no purchases (52, 52) yields a single year-long region.")
	return nil
}

// capacityWorlds returns the capacity site's world seeds lo..hi-1: the
// first k of them are the probes its fingerprints are taken at.
func capacityWorlds(lo, hi int) []uint64 {
	seeds := make([]uint64, hi-lo)
	for i := range seeds {
		seeds[i] = mc.WorldSeed(mc.DefaultSeedBase, "CapacityModel#0", lo+i)
	}
	return seeds
}
