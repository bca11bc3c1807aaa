package online

import (
	"context"
	"math"
	"strings"
	"testing"

	"fuzzyprophet/internal/core"
	"fuzzyprophet/internal/mc"
	"fuzzyprophet/internal/models"
	"fuzzyprophet/internal/scenario"
	"fuzzyprophet/internal/storage"
	"fuzzyprophet/internal/value"
	"fuzzyprophet/internal/vg"
)

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

func newSession(t *testing.T, worlds int) *Session {
	t.Helper()
	reg := vg.NewRegistry()
	if err := vg.RegisterBuiltins(reg); err != nil {
		t.Fatal(err)
	}
	if err := models.RegisterDefaults(reg); err != nil {
		t.Fatal(err)
	}
	scn, err := scenario.Compile(figure2, reg)
	if err != nil {
		t.Fatal(err)
	}
	reuse, err := mc.NewReuse(core.DefaultConfig(), storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(scn, mc.Options{Worlds: worlds, Reuse: reuse})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSessionRequiresGraph(t *testing.T) {
	reg := vg.NewRegistry()
	if err := vg.RegisterBuiltins(reg); err != nil {
		t.Fatal(err)
	}
	scn, err := scenario.Compile("DECLARE PARAMETER @p AS RANGE 0 TO 1 STEP BY 1; SELECT Gaussian(@p, 1) AS g;", reg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSession(scn, mc.Options{Worlds: 10}); err == nil {
		t.Error("scenario without GRAPH should be rejected")
	}
}

func TestSetParamValidation(t *testing.T) {
	s := newSession(t, 20)
	if err := s.SetParam("current", value.Int(5)); err == nil {
		t.Error("axis parameter must not be settable")
	}
	if err := s.SetParam("nope", value.Int(5)); err == nil {
		t.Error("unknown parameter must error")
	}
	if err := s.SetParam("purchase1", value.Int(3)); err == nil {
		t.Error("off-grid value must error (step is 4)")
	}
	if err := s.SetParam("purchase1", value.Int(8)); err != nil {
		t.Error(err)
	}
	if v, ok := s.pins["purchase1"]; !ok || !v.Equal(value.Int(8)) {
		t.Errorf("param = %v, %v", v, ok)
	}
	if s.Axis() != "current" {
		t.Errorf("axis = %s", s.Axis())
	}
}

func TestFirstRenderShape(t *testing.T) {
	s := newSession(t, 150)
	if err := s.SetParam("purchase1", value.Int(12)); err != nil {
		t.Fatal(err)
	}
	if err := s.SetParam("purchase2", value.Int(24)); err != nil {
		t.Fatal(err)
	}
	if err := s.SetParam("feature", value.Int(36)); err != nil {
		t.Fatal(err)
	}
	g, err := s.Render(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(g.X) != 53 {
		t.Fatalf("x points = %d", len(g.X))
	}
	if len(g.Series) != 3 {
		t.Fatalf("series = %d", len(g.Series))
	}
	if g.Series[0].Name != "EXPECT overload" {
		t.Errorf("series0 = %s", g.Series[0].Name)
	}
	if !g.Series[1].SecondAxis {
		t.Error("capacity series should be on y2")
	}
	// First render computes everything.
	if g.Stats.Recomputed != 53 || g.Stats.Unchanged != 0 {
		t.Errorf("first render stats = %+v", g.Stats)
	}
	// Shape: overload ~0 early.
	over := g.Series[0].Points
	if over[2].Y > 0.05 {
		t.Errorf("early overload = %g", over[2].Y)
	}
	// Capacity jumps after purchases: late capacity > early capacity.
	capSeries := g.Series[1].Points
	if capSeries[50].Y <= capSeries[2].Y {
		t.Errorf("capacity should grow with purchases: %g vs %g", capSeries[50].Y, capSeries[2].Y)
	}
}

func TestSecondRenderIsUnchanged(t *testing.T) {
	s := newSession(t, 60)
	if _, err := s.Render(context.Background()); err != nil {
		t.Fatal(err)
	}
	g, err := s.Render(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if g.Stats.Unchanged != 53 || g.Stats.Recomputed != 0 {
		t.Errorf("identical re-render stats = %+v", g.Stats)
	}
}

// The paper's §3.2 claim: after an adjustment, only portions of the graph
// are re-rendered.
func TestAdjustmentRecomputesOnlyPortions(t *testing.T) {
	s := newSession(t, 60)
	if err := s.SetParam("purchase1", value.Int(16)); err != nil {
		t.Fatal(err)
	}
	if err := s.SetParam("purchase2", value.Int(32)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Render(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Move purchase1 by one step.
	if err := s.SetParam("purchase1", value.Int(20)); err != nil {
		t.Fatal(err)
	}
	g, err := s.Render(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if frac := float64(g.Stats.Recomputed) / float64(g.Stats.Points); frac >= 0.75 {
		t.Errorf("recomputed fraction = %g, want well under 1 (stats %+v)", frac, g.Stats)
	}
	if g.Stats.Recomputed == 0 {
		t.Error("moving a purchase inside the year must recompute some weeks")
	}
	if g.Stats.Remapped == 0 {
		t.Error("expected some weeks to be served by mappings")
	}
}

// Changing the feature date exploits demand-model mappings, the paper's
// "despite the slope of the usage graph changing" example.
func TestFeatureDateChangeReusesWeeks(t *testing.T) {
	s := newSession(t, 60)
	if err := s.SetParam("feature", value.Int(12)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Render(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.SetParam("feature", value.Int(36)); err != nil {
		t.Fatal(err)
	}
	g, err := s.Render(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Weeks before 12 and weeks at/after 43 (both ramps complete) are
	// identity-mapped; only the middle needs simulation.
	if g.Stats.Recomputed >= 40 {
		t.Errorf("feature change recomputed %d weeks, want fewer", g.Stats.Recomputed)
	}
}

// Correctness under reuse: the rendered series with a warm cache matches a
// cold render at the same point.
func TestReusedRenderMatchesColdRender(t *testing.T) {
	warm := newSession(t, 60)
	if _, err := warm.Render(context.Background()); err != nil { // purchase1=0
		t.Fatal(err)
	}
	if err := warm.SetParam("purchase1", value.Int(4)); err != nil {
		t.Fatal(err)
	}
	gWarm, err := warm.Render(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	cold := newSession(t, 60)
	if err := cold.SetParam("purchase1", value.Int(4)); err != nil {
		t.Fatal(err)
	}
	gCold, err := cold.Render(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for si := range gCold.Series {
		for pi := range gCold.Series[si].Points {
			a := gWarm.Series[si].Points[pi].Y
			b := gCold.Series[si].Points[pi].Y
			if math.Abs(a-b) > 1e-9*(1+math.Abs(b)) {
				t.Fatalf("series %s week %d: warm %g vs cold %g",
					gCold.Series[si].Name, pi, a, b)
			}
		}
	}
}

func TestPrefetchWarmsNeighbors(t *testing.T) {
	s := newSession(t, 30)
	if _, err := s.Render(context.Background()); err != nil {
		t.Fatal(err)
	}
	n, err := s.Prefetch(context.Background(), []string{"purchase1"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("prefetch evaluated nothing")
	}
	// Now moving to the prefetched neighbor renders without any fresh
	// simulation.
	if err := s.SetParam("purchase1", value.Int(4)); err != nil {
		t.Fatal(err)
	}
	g, err := s.Render(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if g.Stats.Recomputed != 0 {
		t.Errorf("after prefetch, recomputed = %d, want 0 (%+v)", g.Stats.Recomputed, g.Stats)
	}
}

func TestTimeToFirstAccurateGuess(t *testing.T) {
	s := newSession(t, 400)
	elapsed, worlds, err := s.TimeToFirstAccurateGuess(context.Background(), 0.25, 50)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed <= 0 {
		t.Error("elapsed must be positive")
	}
	if worlds < 50 || worlds > 400 {
		t.Errorf("worlds = %d", worlds)
	}
}

func TestChartRendering(t *testing.T) {
	s := newSession(t, 30)
	g, err := s.Render(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	out, err := Chart(g, 12)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "EXPECT overload") {
		t.Errorf("chart missing series name:\n%s", out)
	}
	if !strings.Contains(out, "@current") {
		t.Errorf("chart missing axis label:\n%s", out)
	}
	if !strings.Contains(out, "recomputed") {
		t.Errorf("chart missing render stats:\n%s", out)
	}
}
