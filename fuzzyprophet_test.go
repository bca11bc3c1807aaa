package fuzzyprophet

import (
	"context"
	"maps"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// figure2 is the paper's demo scenario.
const figure2 = `
DECLARE PARAMETER @current AS RANGE 0 TO 52 STEP BY 1;
DECLARE PARAMETER @purchase1 AS RANGE 0 TO 52 STEP BY 4;
DECLARE PARAMETER @purchase2 AS RANGE 0 TO 52 STEP BY 4;
DECLARE PARAMETER @feature AS SET (12,36,44);
SELECT DemandModel(@current, @feature) AS demand,
       CapacityModel(@current, @purchase1, @purchase2) AS capacity,
       CASE WHEN capacity < demand THEN 1 ELSE 0 END AS overload
INTO results;
GRAPH OVER @current EXPECT overload WITH bold red, EXPECT capacity WITH blue y2, EXPECT_STDDEV demand WITH orange y2;
OPTIMIZE SELECT @feature, @purchase1, @purchase2 FROM results
WHERE MAX(EXPECT overload) < 0.01 GROUP BY feature, purchase1, purchase2
FOR MAX @purchase1, MAX @purchase2;
`

func demoSystem(t *testing.T) *System {
	t.Helper()
	sys, err := New(WithDemoModels())
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestCompileAndInspect(t *testing.T) {
	sys := demoSystem(t)
	scn, err := sys.Compile(figure2)
	if err != nil {
		t.Fatal(err)
	}
	params := scn.Params()
	if len(params) != 4 || params[0].Name != "current" || len(params[0].Values) != 53 {
		t.Errorf("params = %+v", params)
	}
	if scn.SpaceSize() != 53*14*14*3 {
		t.Errorf("space = %d", scn.SpaceSize())
	}
	cols := scn.OutputColumns()
	if len(cols) != 3 || cols[2] != "overload" {
		t.Errorf("columns = %v", cols)
	}
	sql, err := scn.GeneratedSQL(map[string]any{
		"current": 5, "purchase1": 8, "purchase2": 16, "feature": 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql, "__worlds") {
		t.Errorf("generated SQL = %s", sql)
	}
}

func TestEvaluateSummaries(t *testing.T) {
	sys := demoSystem(t)
	scn, err := sys.Compile(figure2)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := scn.Evaluate(context.Background(), map[string]any{
		"current": 5, "purchase1": 16, "purchase2": 32, "feature": 36,
	}, WithWorlds(300))
	if err != nil {
		t.Fatal(err)
	}
	demand := sum["demand"]
	if demand.N != 300 {
		t.Errorf("N = %d", demand.N)
	}
	if math.Abs(demand.Mean-41500) > 1000 {
		t.Errorf("demand mean = %g", demand.Mean)
	}
	if demand.StdDev < 800 || demand.StdDev > 2500 {
		t.Errorf("demand stddev = %g", demand.StdDev)
	}
	over := sum["overload"]
	if over.Mean > 0.05 {
		t.Errorf("week-5 overload = %g", over.Mean)
	}
	if demand.Min >= demand.Max || demand.Median <= 0 || demand.P95 <= demand.Median {
		t.Errorf("summary order violated: %+v", demand)
	}
}

func TestRegisterCustomVG(t *testing.T) {
	sys, err := New()
	if err != nil {
		t.Fatal(err)
	}
	err = sys.RegisterVG("Doubler", 1, func(seed uint64, args []float64) (float64, error) {
		return 2 * args[0], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.CheckDeterminism("Doubler", 7, []any{21}); err != nil {
		t.Fatal(err)
	}
	scn, err := sys.Compile(`
DECLARE PARAMETER @x AS RANGE 0 TO 10 STEP BY 1;
SELECT Doubler(@x) AS d;`)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := scn.Evaluate(context.Background(), map[string]any{"x": 4}, WithWorlds(10))
	if err != nil {
		t.Fatal(err)
	}
	if sum["d"].Mean != 8 {
		t.Errorf("Doubler mean = %g", sum["d"].Mean)
	}
}

func TestVGInvocationCounting(t *testing.T) {
	sys := demoSystem(t)
	scn, err := sys.Compile(figure2)
	if err != nil {
		t.Fatal(err)
	}
	sys.ResetVGInvocations()
	if _, err := scn.Evaluate(context.Background(), map[string]any{
		"current": 5, "purchase1": 16, "purchase2": 32, "feature": 36,
	}, WithWorlds(50), WithoutReuse()); err != nil {
		t.Fatal(err)
	}
	if got := sys.VGInvocations(); got != 100 { // 2 sites × 50 worlds
		t.Errorf("invocations = %d, want 100", got)
	}
}

func TestSessionFlow(t *testing.T) {
	sys := demoSystem(t)
	scn, err := sys.Compile(figure2)
	if err != nil {
		t.Fatal(err)
	}
	session, err := scn.OpenSession(WithWorlds(60))
	if err != nil {
		t.Fatal(err)
	}
	if session.Axis() != "current" {
		t.Errorf("axis = %s", session.Axis())
	}
	if err := session.SetParam("purchase1", 12); err != nil {
		t.Fatal(err)
	}
	if err := session.SetParam("purchase1", 13); err == nil {
		t.Error("off-grid value should error")
	}
	g1, err := session.Render(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if g1.Stats.Recomputed != 53 {
		t.Errorf("first render stats = %+v", g1.Stats)
	}
	if len(g1.Series) != 3 || !g1.Series[1].SecondAxis {
		t.Errorf("series = %+v", g1.Series)
	}
	// Adjustment re-renders only portions.
	if err := session.SetParam("purchase1", 16); err != nil {
		t.Fatal(err)
	}
	g2, err := session.Render(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if g2.Stats.RecomputedFraction() >= 0.75 {
		t.Errorf("recomputed fraction = %g", g2.Stats.RecomputedFraction())
	}
	counts := session.ReuseCounts()
	if counts["identity"] == 0 && counts["cached"] == 0 {
		t.Errorf("reuse counts = %v", counts)
	}
	chart, err := session.Ascii(g2, 12)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(chart, "EXPECT overload") {
		t.Errorf("chart:\n%s", chart)
	}
	// Params reads every slider, moved or at its first declared value.
	want := map[string]any{"purchase1": int64(16), "purchase2": int64(0), "feature": int64(12)}
	if got := session.Params(); !maps.Equal(got, want) {
		t.Errorf("params = %v, want %v", got, want)
	}
}

// TestRenderedFrameIsTheCallers: a caller that rewrites a returned frame —
// a series' style words and Y values, the frame's axis values — changes
// neither the next render nor the scenario's GRAPH items it is built from.
func TestRenderedFrameIsTheCallers(t *testing.T) {
	sys := demoSystem(t)
	scn, err := sys.Compile(figure2)
	if err != nil {
		t.Fatal(err)
	}
	session, err := scn.OpenSession(WithWorlds(40))
	if err != nil {
		t.Fatal(err)
	}
	first, err := session.Render(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := range first.Series {
		first.Series[i].Style[0] = "mutated"
		first.Series[i].Y[0] = -1
	}
	first.X[0] = -1
	for _, g := range []func() (*Graph, error){
		func() (*Graph, error) { return session.Render(context.Background()) },
		func() (*Graph, error) {
			fresh, err := scn.OpenSession(WithWorlds(40))
			if err != nil {
				return nil, err
			}
			return fresh.Render(context.Background())
		},
	} {
		next, err := g()
		if err != nil {
			t.Fatal(err)
		}
		styles := [][]string{{"bold", "red"}, {"blue", "y2"}, {"orange", "y2"}}
		for i, srs := range next.Series {
			if strings.Join(srs.Style, " ") != strings.Join(styles[i], " ") || srs.Y[0] == -1 {
				t.Errorf("series %s: style %v, Y[0] %v after the caller rewrote a frame; want %v and a rendered Y", srs.Name, srs.Style, srs.Y[0], styles[i])
			}
		}
		if next.X[0] != 0 {
			t.Errorf("frame X[0] = %v after the caller rewrote a frame, want 0", next.X[0])
		}
	}
}

func TestSessionWithoutReuseStillWorks(t *testing.T) {
	sys := demoSystem(t)
	scn, err := sys.Compile(figure2)
	if err != nil {
		t.Fatal(err)
	}
	session, err := scn.OpenSession(WithWorlds(30), WithoutReuse())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := session.Render(context.Background()); err != nil {
		t.Fatal(err)
	}
	g, err := session.Render(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Without reuse, everything recomputes every time.
	if g.Stats.Recomputed != 53 {
		t.Errorf("no-reuse re-render stats = %+v", g.Stats)
	}
	if len(session.ReuseCounts()) != 0 {
		t.Error("no-reuse session should have empty counts")
	}
}

func TestOptimizeFacade(t *testing.T) {
	sys := demoSystem(t)
	scn, err := sys.Compile(`
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
FOR MAX @purchase1, MAX @purchase2;`)
	if err != nil {
		t.Fatal(err)
	}
	var lastDone int
	res, err := scn.Optimize(context.Background(), func(done, total int, pt map[string]any, outcome map[string]string) {
		lastDone = done
		if total != 9*53 {
			t.Errorf("total = %d", total)
		}
	}, WithWorlds(120))
	if err != nil {
		t.Fatal(err)
	}
	if lastDone != res.PointsEvaluated {
		t.Errorf("progress lastDone = %d, points = %d", lastDone, res.PointsEvaluated)
	}
	if len(res.Rows) != 9 {
		t.Errorf("rows = %d", len(res.Rows))
	}
	if len(res.Best) == 0 {
		t.Fatal("no best rows")
	}
	if !res.Best[0].Feasible {
		t.Error("best must be feasible")
	}
	if res.ReuseCounts["identity"] == 0 {
		t.Errorf("expected identity reuse in sweep: %v", res.ReuseCounts)
	}
	if _, ok := res.Best[0].Metrics["MAX(EXPECT(overload))"]; !ok {
		t.Errorf("metrics = %v", res.Best[0].Metrics)
	}
	if _, ok := res.Best[0].Group["purchase1"].(int64); !ok {
		t.Errorf("group values should be native int64: %T", res.Best[0].Group["purchase1"])
	}
}

func TestRenderProgressiveFacade(t *testing.T) {
	sys := demoSystem(t)
	scn, err := sys.Compile(figure2)
	if err != nil {
		t.Fatal(err)
	}
	session, err := scn.OpenSession(WithWorlds(128))
	if err != nil {
		t.Fatal(err)
	}
	var frames []int
	g, err := session.RenderProgressive(context.Background(), 32, func(g *Graph, worlds int) bool {
		frames = append(frames, worlds)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 3 || frames[0] != 32 || frames[2] != 128 {
		t.Errorf("frames = %v", frames)
	}
	if len(g.Series) != 3 {
		t.Errorf("final frame series = %d", len(g.Series))
	}
}

func TestExplorationMapFacade(t *testing.T) {
	sys := demoSystem(t)
	scn, err := sys.Compile(figure2)
	if err != nil {
		t.Fatal(err)
	}
	session, err := scn.OpenSession(WithWorlds(20))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := session.Render(context.Background()); err != nil {
		t.Fatal(err)
	}
	out, err := session.ExplorationMap("purchase1", "purchase2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "#") {
		t.Errorf("map missing rendered cell:\n%s", out)
	}
	if _, err := session.ExplorationMap("current", "purchase1"); err == nil {
		t.Error("axis dimension should error")
	}
}

func TestValueConversionErrors(t *testing.T) {
	sys := demoSystem(t)
	scn, err := sys.Compile(figure2)
	if err != nil {
		t.Fatal(err)
	}
	type odd struct{}
	if _, err := scn.Evaluate(context.Background(), map[string]any{"current": odd{}}, WithWorlds(10)); err == nil {
		t.Error("unsupported type should error")
	}
	session, err := scn.OpenSession(WithWorlds(10))
	if err != nil {
		t.Fatal(err)
	}
	if err := session.SetParam("purchase1", odd{}); err == nil {
		t.Error("unsupported type should error in SetParam")
	}
}

func TestSessionPersistence(t *testing.T) {
	sys := demoSystem(t)
	scn, err := sys.Compile(figure2)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := NewReuseCache()
	if err != nil {
		t.Fatal(err)
	}
	first, err := scn.OpenSession(WithWorlds(60), WithReuseCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.Render(context.Background()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "reuse.snap")
	if err := cache.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	// A "new process": the same render is served fully from the loaded
	// state.
	loaded, err := LoadReuseCacheFile(path)
	if err != nil {
		t.Fatal(err)
	}
	second, err := scn.OpenSession(WithWorlds(60), WithReuseCache(loaded))
	if err != nil {
		t.Fatal(err)
	}
	g, err := second.Render(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if g.Stats.Recomputed != 0 || g.Stats.Unchanged != 53 {
		t.Errorf("restored session stats = %+v, want all unchanged", g.Stats)
	}

	// Error path.
	junk := filepath.Join(t.TempDir(), "junk.snap")
	if err := os.WriteFile(junk, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadReuseCacheFile(junk); err == nil {
		t.Error("loading junk should error")
	}
}

func TestCalibratedDemoModels(t *testing.T) {
	// A system with triple the demand growth overloads much earlier.
	fast, err := New(WithCalibratedDemoModels(Calibration{DemandGrowth: 900}))
	if err != nil {
		t.Fatal(err)
	}
	slow, err := New(WithDemoModels())
	if err != nil {
		t.Fatal(err)
	}
	pt := map[string]any{"current": 26, "purchase1": 48, "purchase2": 48, "feature": 44}
	scnFast, err := fast.Compile(figure2)
	if err != nil {
		t.Fatal(err)
	}
	scnSlow, err := slow.Compile(figure2)
	if err != nil {
		t.Fatal(err)
	}
	sumFast, err := scnFast.Evaluate(context.Background(), pt, WithWorlds(200))
	if err != nil {
		t.Fatal(err)
	}
	sumSlow, err := scnSlow.Evaluate(context.Background(), pt, WithWorlds(200))
	if err != nil {
		t.Fatal(err)
	}
	if sumFast["demand"].Mean <= sumSlow["demand"].Mean+10000 {
		t.Errorf("growth override ineffective: %g vs %g", sumFast["demand"].Mean, sumSlow["demand"].Mean)
	}
	if sumFast["overload"].Mean <= sumSlow["overload"].Mean {
		t.Errorf("faster growth should overload more: %g vs %g",
			sumFast["overload"].Mean, sumSlow["overload"].Mean)
	}
	// Bigger initial capacity removes overload.
	big, err := New(WithCalibratedDemoModels(Calibration{InitialCapacity: 200000}))
	if err != nil {
		t.Fatal(err)
	}
	scnBig, err := big.Compile(figure2)
	if err != nil {
		t.Fatal(err)
	}
	sumBig, err := scnBig.Evaluate(context.Background(), pt, WithWorlds(100))
	if err != nil {
		t.Fatal(err)
	}
	if sumBig["overload"].Mean != 0 {
		t.Errorf("200k-core fleet should never overload at week 26: %g", sumBig["overload"].Mean)
	}
}

func TestOptimizeRequiresStatement(t *testing.T) {
	sys := demoSystem(t)
	scn, err := sys.Compile(`
DECLARE PARAMETER @p AS RANGE 0 TO 1 STEP BY 1;
SELECT Gaussian(@p, 1) AS g;`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := scn.Optimize(context.Background(), nil, WithWorlds(10)); err == nil {
		t.Error("missing OPTIMIZE should error")
	}
	if _, err := scn.OpenSession(WithWorlds(10)); err == nil {
		t.Error("missing GRAPH should error")
	}
}
