package mc

import (
	"context"
	"math"
	"strings"
	"testing"

	"fuzzyprophet/internal/core"
	"fuzzyprophet/internal/guide"
	"fuzzyprophet/internal/models"
	"fuzzyprophet/internal/scenario"
	"fuzzyprophet/internal/sqlengine"
	"fuzzyprophet/internal/stats"
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

func testRegistry(t *testing.T) *vg.Registry {
	t.Helper()
	r := vg.NewRegistry()
	if err := vg.RegisterBuiltins(r); err != nil {
		t.Fatal(err)
	}
	if err := models.RegisterDefaults(r); err != nil {
		t.Fatal(err)
	}
	return r
}

func compileFigure2(t *testing.T) *scenario.Scenario {
	t.Helper()
	scn, err := scenario.Compile(figure2, testRegistry(t))
	if err != nil {
		t.Fatal(err)
	}
	return scn
}

func point(current, p1, p2, feature int64) guide.Point {
	return guide.Point{
		"current":   value.Int(current),
		"purchase1": value.Int(p1),
		"purchase2": value.Int(p2),
		"feature":   value.Int(feature),
	}
}

func TestEvaluatePointBasics(t *testing.T) {
	scn := compileFigure2(t)
	ev := NewEvaluator(scn, Options{Worlds: 200})
	res, err := ev.EvaluatePoint(context.Background(), point(5, 16, 32, 36))
	if err != nil {
		t.Fatal(err)
	}
	if res.Worlds != 200 {
		t.Errorf("worlds = %d", res.Worlds)
	}
	for _, col := range []string{"demand", "capacity", "overload"} {
		samples, ok := res.Columns[col]
		if !ok || len(samples) != 200 {
			t.Fatalf("column %s = %d samples", col, len(samples))
		}
	}
	// Week 5, purchases far away: capacity near initial, no overload.
	var over stats.Moments
	for _, x := range res.Columns["overload"] {
		over.Add(x)
	}
	if over.Mean() > 0.05 {
		t.Errorf("week-5 overload probability = %g, want ~0", over.Mean())
	}
	var dem stats.Moments
	for _, x := range res.Columns["demand"] {
		dem.Add(x)
	}
	if math.Abs(dem.Mean()-41500) > 1000 {
		t.Errorf("week-5 demand mean = %g, want ≈ 41500", dem.Mean())
	}
	sql, err := scn.GenerateSQL(point(5, 16, 32, 36))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql, "__worlds") {
		t.Errorf("generated SQL missing worlds table: %s", sql)
	}
	fresh := 0
	for _, k := range res.SiteOutcome {
		if k == Computed {
			fresh++
		}
	}
	if fresh != 2 {
		t.Errorf("fresh sites = %d, want 2 (no reuse engine)", fresh)
	}
}

func TestEvaluatePointDeterministic(t *testing.T) {
	scn := compileFigure2(t)
	a := NewEvaluator(scn, Options{Worlds: 50})
	b := NewEvaluator(scn, Options{Worlds: 50})
	pt := point(20, 8, 24, 12)
	ra, err := a.EvaluatePoint(context.Background(), pt)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.EvaluatePoint(context.Background(), pt)
	if err != nil {
		t.Fatal(err)
	}
	for col := range ra.Columns {
		for i := range ra.Columns[col] {
			if ra.Columns[col][i] != rb.Columns[col][i] {
				t.Fatalf("column %s world %d differs across evaluators", col, i)
			}
		}
	}
}

func TestSeedBaseChangesSamples(t *testing.T) {
	scn := compileFigure2(t)
	a := NewEvaluator(scn, Options{Worlds: 50, SeedBase: 1})
	b := NewEvaluator(scn, Options{Worlds: 50, SeedBase: 2})
	pt := point(20, 8, 24, 12)
	ra, _ := a.EvaluatePoint(context.Background(), pt)
	rb, _ := b.EvaluatePoint(context.Background(), pt)
	same := 0
	for i := range ra.Columns["demand"] {
		if ra.Columns["demand"][i] == rb.Columns["demand"][i] {
			same++
		}
	}
	if same == 50 {
		t.Error("different seed bases must give different samples")
	}
}

func TestWorkerCountsAgree(t *testing.T) {
	scn := compileFigure2(t)
	serial := NewEvaluator(scn, Options{Worlds: 64, Workers: 1})
	parallel := NewEvaluator(scn, Options{Worlds: 64, Workers: 8})
	pt := point(30, 12, 28, 44)
	rs, err := serial.EvaluatePoint(context.Background(), pt)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := parallel.EvaluatePoint(context.Background(), pt)
	if err != nil {
		t.Fatal(err)
	}
	for col := range rs.Columns {
		for i := range rs.Columns[col] {
			if rs.Columns[col][i] != rp.Columns[col][i] {
				t.Fatalf("parallel evaluation differs at %s[%d]", col, i)
			}
		}
	}
}

func TestReuseCachedExact(t *testing.T) {
	scn := compileFigure2(t)
	reuse, err := NewReuse(core.DefaultConfig(), storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(scn, Options{Worlds: 100, Reuse: reuse})
	pt := point(10, 16, 32, 36)
	r1, err := ev.EvaluatePoint(context.Background(), pt)
	if err != nil {
		t.Fatal(err)
	}
	if r1.SiteOutcome["DemandModel#0"] != Computed {
		t.Errorf("first evaluation should compute, got %v", r1.SiteOutcome)
	}
	r2, err := ev.EvaluatePoint(context.Background(), pt)
	if err != nil {
		t.Fatal(err)
	}
	for site, kind := range r2.SiteOutcome {
		if kind != CachedExact {
			t.Errorf("site %s second evaluation = %v, want cached", site, kind)
		}
	}
	for col := range r1.Columns {
		for i := range r1.Columns[col] {
			if r1.Columns[col][i] != r2.Columns[col][i] {
				t.Fatal("cached evaluation changed the samples")
			}
		}
	}
}

// The headline behaviour: moving a purchase date re-uses weeks the move
// cannot affect, via identity mappings, and the re-mapped samples are
// exactly what direct simulation would produce.
func TestReuseIdentityAcrossPurchaseMove(t *testing.T) {
	scn := compileFigure2(t)
	reuse, err := NewReuse(core.DefaultConfig(), storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(scn, Options{Worlds: 100, Reuse: reuse})

	// Evaluate week 5 with purchase1 = 20, then move purchase1 to 28.
	// Week 5 precedes any arrival, so CapacityModel's outputs coincide.
	if _, err := ev.EvaluatePoint(context.Background(), point(5, 20, 40, 36)); err != nil {
		t.Fatal(err)
	}
	res, err := ev.EvaluatePoint(context.Background(), point(5, 28, 40, 36))
	if err != nil {
		t.Fatal(err)
	}
	if res.SiteOutcome["CapacityModel#0"] != Identity {
		t.Errorf("capacity site = %v, want identity reuse", res.SiteOutcome["CapacityModel#0"])
	}
	// Demand does not depend on purchases at all, so its argument tuple is
	// unchanged: an exact cache hit, cheaper than even an identity map.
	if res.SiteOutcome["DemandModel#0"] != CachedExact {
		t.Errorf("demand site = %v, want exact cache hit", res.SiteOutcome["DemandModel#0"])
	}

	// Ground truth: direct simulation without reuse.
	direct := NewEvaluator(scn, Options{Worlds: 100})
	want, err := direct.EvaluatePoint(context.Background(), point(5, 28, 40, 36))
	if err != nil {
		t.Fatal(err)
	}
	for col := range want.Columns {
		for i := range want.Columns[col] {
			if res.Columns[col][i] != want.Columns[col][i] {
				t.Fatalf("identity-reused samples differ from direct simulation at %s[%d]", col, i)
			}
		}
	}
}

func TestReuseSavesVGInvocations(t *testing.T) {
	reg := testRegistry(t)
	scn, err := scenario.Compile(figure2, reg)
	if err != nil {
		t.Fatal(err)
	}
	reuse, err := NewReuse(core.DefaultConfig(), storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const worlds = 200
	ev := NewEvaluator(scn, Options{Worlds: worlds, Reuse: reuse})

	if _, err := ev.EvaluatePoint(context.Background(), point(5, 20, 40, 36)); err != nil {
		t.Fatal(err)
	}
	before := reg.TotalInvocations()
	if _, err := ev.EvaluatePoint(context.Background(), point(5, 24, 40, 36)); err != nil {
		t.Fatal(err)
	}
	after := reg.TotalInvocations()
	spent := after - before
	// The moved-purchase point costs only the capacity site's fingerprint
	// (k seeds); the demand site is an exact cache hit with zero
	// invocations.
	k := int64(core.DefaultConfig().Length)
	if spent > k {
		t.Errorf("reused point spent %d invocations, want <= %d", spent, k)
	}
	counts := reuse.Counts()
	if counts[Identity] != 1 || counts[CachedExact] != 1 {
		t.Errorf("counts = %v, want identity=1 cached=1", counts)
	}
}

func TestReuseStatsAndReset(t *testing.T) {
	scn := compileFigure2(t)
	reuse, _ := NewReuse(core.DefaultConfig(), storage.Options{})
	ev := NewEvaluator(scn, Options{Worlds: 50, Reuse: reuse})
	if _, err := ev.EvaluatePoint(context.Background(), point(5, 20, 40, 36)); err != nil {
		t.Fatal(err)
	}
	if got := reuse.Counts()[Computed]; got != 2 {
		t.Errorf("computed = %d", got)
	}
	if reuse.StoreStats().Entries != 2 {
		t.Errorf("store entries = %d", reuse.StoreStats().Entries)
	}
	if reuse.Index() == nil {
		t.Error("Index accessor nil")
	}
}

func TestEvaluateErrorsPropagate(t *testing.T) {
	reg := testRegistry(t)
	scn, err := scenario.Compile(`
DECLARE PARAMETER @p AS RANGE -5 TO 5 STEP BY 1;
SELECT Gaussian(0, @p) AS g;`, reg)
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(scn, Options{Worlds: 10})
	// Negative stddev parameter: VG invocation fails, error must surface.
	if _, err := ev.EvaluatePoint(context.Background(), guide.Point{"p": value.Int(-1)}); err == nil {
		t.Error("VG error should propagate")
	}
	// Works for the valid part of the space.
	if _, err := ev.EvaluatePoint(context.Background(), guide.Point{"p": value.Int(1)}); err != nil {
		t.Error(err)
	}
}

func TestEvaluateErrorsPropagateWithReuse(t *testing.T) {
	reg := testRegistry(t)
	scn, err := scenario.Compile(`
DECLARE PARAMETER @p AS RANGE -5 TO 5 STEP BY 1;
SELECT Gaussian(0, @p) AS g;`, reg)
	if err != nil {
		t.Fatal(err)
	}
	reuse, _ := NewReuse(core.DefaultConfig(), storage.Options{})
	ev := NewEvaluator(scn, Options{Worlds: 10, Reuse: reuse})
	if _, err := ev.EvaluatePoint(context.Background(), guide.Point{"p": value.Int(-1)}); err == nil {
		t.Error("VG error should propagate through the fingerprint path")
	}
}

func TestDefaultsApplied(t *testing.T) {
	o := Options{}.WithDefaults()
	if o.Worlds != 1000 || o.SeedBase != 20110612 || o.Workers < 1 {
		t.Errorf("defaults = %+v", o)
	}
}

func TestReuseKindString(t *testing.T) {
	names := map[ReuseKind]string{
		Computed: "computed", CachedExact: "cached",
		Identity: "identity", Affine: "affine",
		ReuseKind(9): "ReuseKind(9)",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
}

func TestStaticTableJoin(t *testing.T) {
	reg := testRegistry(t)
	scn, err := scenario.Compile(`
DECLARE PARAMETER @w AS RANGE 0 TO 5 STEP BY 1;
SELECT region, Gaussian(100, 1) * share AS local;`, reg)
	if err == nil {
		// The FROM-less form cannot reference region/share; expect the
		// error at evaluation time instead of compile time, so recompile
		// with the FROM clause.
		_ = scn
	}
	scn, err = scenario.Compile(`
DECLARE PARAMETER @w AS RANGE 0 TO 5 STEP BY 1;
SELECT region, Gaussian(100, 1) * share AS local FROM regions;`, reg)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := sqlengine.NewTable("regions", []string{"region", "share"}, [][]value.Value{
		{value.Str("east"), value.Float(0.75)},
		{value.Str("west"), value.Float(0.25)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := scn.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(scn, Options{Worlds: 40})
	res, err := ev.EvaluatePoint(context.Background(), guide.Point{"w": value.Int(0)})
	if err != nil {
		t.Fatal(err)
	}
	// One row per (world × region): 80 samples for the numeric column;
	// the categorical region column is excluded from aggregation.
	if got := len(res.Columns["local"]); got != 80 {
		t.Fatalf("local samples = %d, want 80", got)
	}
	if _, ok := res.Columns["region"]; ok {
		t.Error("categorical column should not be aggregated")
	}
	// The shares partition the Gaussian: mean over all rows ≈ 100 × 0.5.
	var m stats.Moments
	for _, x := range res.Columns["local"] {
		m.Add(x)
	}
	if math.Abs(m.Mean()-50) > 2 {
		t.Errorf("mean = %g, want ≈ 50", m.Mean())
	}
}

func TestAffineReuseOnRevenueModel(t *testing.T) {
	// The revenue model's units at two prices are exactly proportional for
	// a fixed seed — the affine-mapping showcase.
	reg := testRegistry(t)
	scn, err := scenario.Compile(`
DECLARE PARAMETER @week AS RANGE 0 TO 10 STEP BY 1;
DECLARE PARAMETER @price AS SET (8, 10, 12);
SELECT UnitsModel(@week, @price) AS units;`, reg)
	if err != nil {
		t.Fatal(err)
	}
	reuse, _ := NewReuse(core.DefaultConfig(), storage.Options{})
	ev := NewEvaluator(scn, Options{Worlds: 300, Reuse: reuse})
	pt1 := guide.Point{"week": value.Int(3), "price": value.Int(10)}
	pt2 := guide.Point{"week": value.Int(3), "price": value.Int(12)}
	if _, err := ev.EvaluatePoint(context.Background(), pt1); err != nil {
		t.Fatal(err)
	}
	res, err := ev.EvaluatePoint(context.Background(), pt2)
	if err != nil {
		t.Fatal(err)
	}
	if res.SiteOutcome["UnitsModel#0"] != Affine {
		t.Fatalf("units site = %v, want affine", res.SiteOutcome["UnitsModel#0"])
	}
	// Affine-mapped samples match direct simulation to high precision.
	direct := NewEvaluator(scn, Options{Worlds: 300})
	want, err := direct.EvaluatePoint(context.Background(), pt2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Columns["units"] {
		a, b := res.Columns["units"][i], want.Columns["units"][i]
		if math.Abs(a-b) > 1e-6*(1+math.Abs(b)) {
			t.Fatalf("affine remap error too large at world %d: %g vs %g", i, a, b)
		}
	}
}
