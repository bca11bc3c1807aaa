package optimize

import (
	"context"
	"testing"

	"fuzzyprophet/internal/core"
	"fuzzyprophet/internal/guide"
	"fuzzyprophet/internal/mc"
	"fuzzyprophet/internal/models"
	"fuzzyprophet/internal/scenario"
	"fuzzyprophet/internal/sqlparser"
	"fuzzyprophet/internal/storage"
	"fuzzyprophet/internal/value"
	"fuzzyprophet/internal/vg"
)

// reducedFigure2 is the paper's scenario on a coarser purchase grid so the
// full offline sweep stays fast in tests; the threshold is the prose's 5%.
const reducedFigure2 = `
DECLARE PARAMETER @current AS RANGE 0 TO 52 STEP BY 1;
DECLARE PARAMETER @purchase1 AS RANGE 0 TO 48 STEP BY 12;
DECLARE PARAMETER @purchase2 AS RANGE 0 TO 48 STEP BY 12;
DECLARE PARAMETER @feature AS SET (12,36);
SELECT DemandModel(@current, @feature) AS demand,
       CapacityModel(@current, @purchase1, @purchase2) AS capacity,
       CASE WHEN capacity < demand THEN 1 ELSE 0 END AS overload
INTO results;
OPTIMIZE SELECT @feature, @purchase1, @purchase2 FROM results
WHERE MAX(EXPECT overload) < 0.05
GROUP BY feature, purchase1, purchase2
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

func compileReduced(t *testing.T) *scenario.Scenario {
	t.Helper()
	scn, err := scenario.Compile(reducedFigure2, testRegistry(t))
	if err != nil {
		t.Fatal(err)
	}
	return scn
}

func intOf(t *testing.T, p guide.Point, name string) int64 {
	t.Helper()
	n, err := p[name].AsInt()
	if err != nil {
		t.Fatalf("param %s: %v", name, err)
	}
	return n
}

func TestRunReducedFigure2(t *testing.T) {
	scn := compileReduced(t)
	reuse, err := mc.NewReuse(core.DefaultConfig(), storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	progressCalls := 0
	res, err := Run(context.Background(), scn, Options{
		MC: mc.Options{Worlds: 300, Reuse: reuse},
		Progress: func(done, total int, pt guide.Point, pr *mc.PointResult) {
			progressCalls++
			if done < 1 || done > total {
				t.Errorf("progress done=%d total=%d", done, total)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantGroups := 2 * 5 * 5
	if len(res.Rows) != wantGroups {
		t.Fatalf("rows = %d, want %d", len(res.Rows), wantGroups)
	}
	if res.PointsEvaluated != wantGroups*53 {
		t.Errorf("points = %d, want %d", res.PointsEvaluated, wantGroups*53)
	}
	if progressCalls != res.PointsEvaluated {
		t.Errorf("progress calls = %d", progressCalls)
	}
	if got := res.GroupParams; len(got) != 3 || got[0] != "feature" {
		t.Errorf("group params = %v", got)
	}
	if got := res.FreeParams; len(got) != 1 || got[0] != "current" {
		t.Errorf("free params = %v", got)
	}

	nFeasible := 0
	for _, row := range res.Rows {
		if row.Feasible {
			nFeasible++
		}
	}
	if nFeasible == 0 {
		t.Fatal("no feasible groups; calibration broken")
	}
	if nFeasible == len(res.Rows) {
		t.Fatal("every group feasible; constraint not binding")
	}

	// Known-structure anchors: the earliest schedule is feasible, the
	// latest is not.
	find := func(f, p1, p2 int64) GroupRow {
		for _, row := range res.Rows {
			if intOf(t, row.Group, "feature") == f &&
				intOf(t, row.Group, "purchase1") == p1 &&
				intOf(t, row.Group, "purchase2") == p2 {
				return row
			}
		}
		t.Fatalf("group (%d,%d,%d) missing", f, p1, p2)
		return GroupRow{}
	}
	if !find(12, 0, 12).Feasible {
		t.Error("early schedule (0,12) with feature 12 should be feasible")
	}
	if find(12, 48, 48).Feasible {
		t.Error("latest schedule (48,48) should be infeasible")
	}
	for _, row := range res.Rows {
		if _, ok := row.Metrics["MAX(EXPECT(overload))"]; !ok {
			t.Fatalf("metrics missing constraint term: %v", row.Metrics)
		}
	}

	// Lexicographic optimum: every feasible row is dominated.
	if len(res.Best) == 0 {
		t.Fatal("no best rows despite feasible groups")
	}
	bp1 := intOf(t, res.Best[0].Group, "purchase1")
	bp2 := intOf(t, res.Best[0].Group, "purchase2")
	for _, row := range res.Rows {
		if !row.Feasible {
			continue
		}
		p1 := intOf(t, row.Group, "purchase1")
		p2 := intOf(t, row.Group, "purchase2")
		if p1 > bp1 || (p1 == bp1 && p2 > bp2) {
			t.Errorf("feasible row (%d,%d) lexicographically beats best (%d,%d)", p1, p2, bp1, bp2)
		}
	}
	for _, b := range res.Best {
		if !b.Feasible {
			t.Error("best row not feasible")
		}
		if intOf(t, b.Group, "purchase1") != bp1 || intOf(t, b.Group, "purchase2") != bp2 {
			t.Error("best rows must tie on all goal values")
		}
	}
	// The purchase dates should be interior: a timely-but-not-immediate
	// schedule (the scenario's whole point).
	if bp1 == 0 && bp2 == 0 {
		t.Error("optimum at the earliest dates; cost/risk trade-off missing")
	}
	if res.Elapsed <= 0 {
		t.Error("elapsed not recorded")
	}
}

func TestRunRequiresOptimize(t *testing.T) {
	reg := testRegistry(t)
	scn, err := scenario.Compile("DECLARE PARAMETER @p AS RANGE 0 TO 1 STEP BY 1; SELECT Gaussian(@p, 1) AS g;", reg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), scn, Options{MC: mc.Options{Worlds: 10}}); err == nil {
		t.Error("scenario without OPTIMIZE should be rejected")
	}
}

// Fingerprint reuse must cut VG invocations substantially relative to a
// naive sweep of the identical space (the offline demo's headline).
func TestReuseSavesInvocationsOverSweep(t *testing.T) {
	const tiny = `
DECLARE PARAMETER @current AS RANGE 0 TO 52 STEP BY 1;
DECLARE PARAMETER @purchase1 AS RANGE 0 TO 48 STEP BY 24;
DECLARE PARAMETER @purchase2 AS RANGE 0 TO 48 STEP BY 24;
DECLARE PARAMETER @feature AS SET (12);
SELECT DemandModel(@current, @feature) AS demand,
       CapacityModel(@current, @purchase1, @purchase2) AS capacity,
       CASE WHEN capacity < demand THEN 1 ELSE 0 END AS overload
INTO results;
OPTIMIZE SELECT @feature, @purchase1, @purchase2 FROM results
WHERE MAX(EXPECT overload) < 0.05
GROUP BY feature, purchase1, purchase2
FOR MAX @purchase1, MAX @purchase2;
`
	runWith := func(withReuse bool) (int64, *Result) {
		reg := testRegistry(t)
		scn, err := scenario.Compile(tiny, reg)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{MC: mc.Options{Worlds: 100}}
		if withReuse {
			reuse, err := mc.NewReuse(core.DefaultConfig(), storage.Options{})
			if err != nil {
				t.Fatal(err)
			}
			opts.MC.Reuse = reuse
		}
		res, err := Run(context.Background(), scn, opts)
		if err != nil {
			t.Fatal(err)
		}
		return reg.TotalInvocations(), res
	}
	naiveInv, naiveRes := runWith(false)
	reuseInv, reuseRes := runWith(true)
	if reuseInv*2 >= naiveInv {
		t.Errorf("reuse spent %d invocations vs naive %d; want <50%%", reuseInv, naiveInv)
	}
	// Same optimum either way (reuse must not change the answer).
	if len(naiveRes.Best) == 0 || len(reuseRes.Best) == 0 {
		t.Fatal("missing best rows")
	}
	np1 := intOf(t, naiveRes.Best[0].Group, "purchase1")
	rp1 := intOf(t, reuseRes.Best[0].Group, "purchase1")
	np2 := intOf(t, naiveRes.Best[0].Group, "purchase2")
	rp2 := intOf(t, reuseRes.Best[0].Group, "purchase2")
	if np1 != rp1 || np2 != rp2 {
		t.Errorf("optimum changed under reuse: naive (%d,%d) vs reuse (%d,%d)", np1, np2, rp1, rp2)
	}
}

func TestExtractTermsValidation(t *testing.T) {
	mustExpr := func(src string) sqlparser.Expr {
		e, err := sqlparser.ParseExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	if _, err := extractTerms(mustExpr("MAX(EXPECT overload) < 0.01"), 1); err != nil {
		t.Errorf("canonical constraint rejected: %v", err)
	}
	terms, err := extractTerms(mustExpr("MAX(EXPECT overload) < 0.01 AND MIN(EXPECT capacity) > 100"), 1)
	if err != nil || len(terms) != 2 {
		t.Errorf("two terms: %v, %v", terms, err)
	}
	if _, err := extractTerms(mustExpr("EXPECT(overload) < 0.01"), 1); err == nil {
		t.Error("bare inner aggregate with free params should error")
	}
	if _, err := extractTerms(mustExpr("EXPECT(overload) < 0.01"), 0); err != nil {
		t.Errorf("bare inner aggregate with no free params should work: %v", err)
	}
	if _, err := extractTerms(mustExpr("MAX(overload) < 0.01"), 1); err == nil {
		t.Error("outer aggregate without inner should error")
	}
	if _, err := extractTerms(mustExpr("MAX(EXPECT(1 + 2)) < 0.01"), 1); err == nil {
		t.Error("inner aggregate of non-column should error")
	}
	if _, err := extractTerms(mustExpr("1 < 2"), 1); err == nil {
		t.Error("constraint without aggregates should error")
	}
}

func TestEvalConstraintWithGroupParams(t *testing.T) {
	e, err := sqlparser.ParseExpr("MAX(EXPECT overload) < 0.01 AND @purchase1 > 4")
	if err != nil {
		t.Fatal(err)
	}
	metrics := map[string]float64{"MAX(EXPECT(overload))": 0.001}
	group := guide.Point{"purchase1": value.Int(8)}
	ok, err := evalConstraint(e, metrics, group)
	if err != nil || !ok {
		t.Errorf("constraint = %v, %v", ok, err)
	}
	group["purchase1"] = value.Int(0)
	ok, err = evalConstraint(e, metrics, group)
	if err != nil || ok {
		t.Errorf("constraint should fail on @purchase1=0: %v, %v", ok, err)
	}
	// Bare column names referencing group params also resolve (the paper
	// writes GROUP BY feature, purchase1 without @).
	e2, _ := sqlparser.ParseExpr("MAX(EXPECT overload) < 0.01 AND purchase1 = 0")
	ok, err = evalConstraint(e2, metrics, group)
	if err != nil || !ok {
		t.Errorf("bare column constraint = %v, %v", ok, err)
	}
}

func TestSelectBestTiesAndErrors(t *testing.T) {
	rows := []GroupRow{
		{Group: guide.Point{"a": value.Int(1), "b": value.Int(9)}, Feasible: true},
		{Group: guide.Point{"a": value.Int(2), "b": value.Int(5)}, Feasible: true},
		{Group: guide.Point{"a": value.Int(2), "b": value.Int(7)}, Feasible: true},
		{Group: guide.Point{"a": value.Int(3), "b": value.Int(1)}, Feasible: false},
	}
	goals := []sqlparser.Goal{{Maximize: true, Param: "a"}, {Maximize: true, Param: "b"}}
	best, err := selectBest(rows, goals)
	if err != nil {
		t.Fatal(err)
	}
	if len(best) != 1 {
		t.Fatalf("best = %v", best)
	}
	if n, _ := best[0].Group["b"].AsInt(); n != 7 {
		t.Errorf("best b = %d, want 7", n)
	}
	// MIN goal flips the order.
	minGoals := []sqlparser.Goal{{Maximize: false, Param: "a"}}
	best, err = selectBest(rows, minGoals)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := best[0].Group["a"].AsInt(); n != 1 {
		t.Errorf("min best a = %d", n)
	}
	// Ties on all goals are all returned.
	tieGoals := []sqlparser.Goal{{Maximize: true, Param: "a"}}
	best, err = selectBest(rows, tieGoals)
	if err != nil {
		t.Fatal(err)
	}
	if len(best) != 2 {
		t.Errorf("tie best = %v", best)
	}
	// Goal on a non-grouped parameter errors.
	if _, err := selectBest(rows, []sqlparser.Goal{{Maximize: true, Param: "zzz"}}); err == nil {
		t.Error("goal on missing param should error")
	}
	// No feasible rows: nil, no error.
	none, err := selectBest([]GroupRow{{Feasible: false}}, goals)
	if err != nil || none != nil {
		t.Errorf("no-feasible best = %v, %v", none, err)
	}
}

func TestBudgetedExploration(t *testing.T) {
	scn := compileReduced(t)
	reuse, err := mc.NewReuse(core.DefaultConfig(), storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), scn, Options{
		MC:          mc.Options{Worlds: 80, Reuse: reuse},
		GroupBudget: 10,
		BudgetSeed:  7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.GroupsExplored != 10 || res.GroupsTotal != 50 {
		t.Errorf("explored %d/%d", res.GroupsExplored, res.GroupsTotal)
	}
	if res.GroupsExplored == res.GroupsTotal {
		t.Error("budgeted run must not claim exhaustiveness")
	}
	if len(res.Rows) != 10 {
		t.Errorf("rows = %d", len(res.Rows))
	}
	if res.PointsEvaluated != 10*53 {
		t.Errorf("points = %d", res.PointsEvaluated)
	}
	// Deterministic in the seed.
	res2, err := Run(context.Background(), scn, Options{
		MC:          mc.Options{Worlds: 80},
		GroupBudget: 10,
		BudgetSeed:  7,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Rows {
		for _, p := range res.GroupParams {
			if !res.Rows[i].Group[p].Equal(res2.Rows[i].Group[p]) {
				t.Fatal("budgeted sampling not deterministic")
			}
		}
	}
	// A budget covering the space degrades to exhaustive.
	res3, err := Run(context.Background(), scn, Options{MC: mc.Options{Worlds: 20}, GroupBudget: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res3.GroupsExplored != res3.GroupsTotal {
		t.Error("budget >= space should be exhaustive")
	}
}

func TestGroupByMismatchRejected(t *testing.T) {
	// GROUP BY repeats a parameter: compile passes (names are declared)
	// but Run rejects the degenerate partition.
	src := `
DECLARE PARAMETER @current AS RANGE 0 TO 4 STEP BY 1;
DECLARE PARAMETER @p AS RANGE 0 TO 4 STEP BY 2;
SELECT Gaussian(@current, 1) AS g, Gaussian(@p, 1) AS h INTO results;
OPTIMIZE SELECT @p FROM results WHERE MAX(EXPECT g) < 100 GROUP BY p, p FOR MAX @p;
`
	scn, err := scenario.Compile(src, testRegistry(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), scn, Options{MC: mc.Options{Worlds: 10}}); err == nil {
		t.Error("duplicate GROUP BY parameter should error")
	}
}
