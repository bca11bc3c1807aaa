package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"fuzzyprophet/internal/guide"
	"fuzzyprophet/internal/models"
	"fuzzyprophet/internal/sqlengine"
	"fuzzyprophet/internal/sqlparser"
	"fuzzyprophet/internal/value"
	"fuzzyprophet/internal/vg"
)

// figure2 is the paper's example scenario (Figure 2), verbatim modulo
// whitespace.
const figure2 = `
-- DEFINITION --
DECLARE PARAMETER @current AS RANGE 0 TO 52 STEP BY 1;
DECLARE PARAMETER @purchase1 AS RANGE 0 TO 52 STEP BY 4;
DECLARE PARAMETER @purchase2 AS RANGE 0 TO 52 STEP BY 4;
DECLARE PARAMETER @feature AS SET (12,36,44);

SELECT DemandModel(@current, @feature) AS demand,
       CapacityModel(@current, @purchase1, @purchase2) AS capacity,
       CASE WHEN capacity < demand THEN 1 ELSE 0 END AS overload
INTO results;

-- ONLINE MODE --
GRAPH OVER @current
      EXPECT overload WITH bold red,
      EXPECT capacity WITH blue y2,
      EXPECT_STDDEV demand WITH orange y2;

-- OFFLINE MODE --
OPTIMIZE SELECT @feature, @purchase1, @purchase2
FROM results
WHERE MAX(EXPECT overload) < 0.01
GROUP BY feature, purchase1, purchase2
FOR MAX @purchase1, MAX @purchase2
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

func compileFigure2(t *testing.T) *Scenario {
	t.Helper()
	scn, err := Compile(figure2, testRegistry(t))
	if err != nil {
		t.Fatal(err)
	}
	return scn
}

func TestCompileFigure2(t *testing.T) {
	scn := compileFigure2(t)
	if scn.Space.Size() != 53*14*14*3 {
		t.Errorf("space size = %d, want %d", scn.Space.Size(), 53*14*14*3)
	}
	if len(scn.Sites) != 2 {
		t.Fatalf("sites = %+v", scn.Sites)
	}
	if scn.Sites[0].ID != "DemandModel#0" || scn.Sites[1].ID != "CapacityModel#0" {
		t.Errorf("site IDs = %s, %s", scn.Sites[0].ID, scn.Sites[1].ID)
	}
	if scn.Sites[0].Column != "__vg_0" || scn.Sites[1].Column != "__vg_1" {
		t.Errorf("site columns = %s, %s", scn.Sites[0].Column, scn.Sites[1].Column)
	}
	if got := scn.OutputCols; len(got) != 3 || got[0] != "demand" || got[2] != "overload" {
		t.Errorf("outputs = %v", got)
	}
	if scn.ResultsTable != "results" {
		t.Errorf("results table = %q", scn.ResultsTable)
	}
	if scn.Graph == nil || scn.Graph.Over != "current" || len(scn.Graph.Items) != 3 {
		t.Errorf("graph = %+v", scn.Graph)
	}
	if scn.Optimize == nil || len(scn.Optimize.Goals) != 2 {
		t.Errorf("optimize = %+v", scn.Optimize)
	}
	// The rewritten query reads from the worlds table and has no VG calls.
	if scn.Exec.From[0].Name != WorldsTable {
		t.Errorf("exec FROM = %+v", scn.Exec.From)
	}
	sql := scn.Exec.SQL()
	if strings.Contains(sql, "DemandModel") || strings.Contains(sql, "CapacityModel") {
		t.Errorf("VG calls not rewritten: %s", sql)
	}
	if !strings.Contains(sql, "__vg_0") || !strings.Contains(sql, "__vg_1") {
		t.Errorf("site columns missing: %s", sql)
	}
	if scn.Exec.Into != "" {
		t.Error("INTO must be stripped from the exec query")
	}
}

func TestSiteArgValues(t *testing.T) {
	scn := compileFigure2(t)
	pt := guide.Point{
		"current":   value.Int(5),
		"purchase1": value.Int(8),
		"purchase2": value.Int(16),
		"feature":   value.Int(12),
	}
	vals, key, err := scn.Sites[1].ArgValues(pt)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 3 || !vals[0].Equal(value.Int(5)) || !vals[2].Equal(value.Int(16)) {
		t.Errorf("vals = %v", vals)
	}
	if key != "(5,8,16)" {
		t.Errorf("key = %q", key)
	}
	// Missing parameter errors.
	if _, _, err := scn.Sites[1].ArgValues(guide.Point{"current": value.Int(5)}); err == nil {
		t.Error("missing parameter should error")
	}
}

func TestGenerateSQLPure(t *testing.T) {
	scn := compileFigure2(t)
	pt := scn.DefaultPoint()
	sql, err := scn.GenerateSQL(pt)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sql, "@") {
		t.Errorf("generated SQL still has parameters: %s", sql)
	}
	// It must re-parse cleanly (pure TSQL contract).
	if _, err := sqlparser.Parse(sql); err != nil {
		t.Errorf("generated SQL does not parse: %v\n%s", err, sql)
	}
}

func TestGenerateSQLSubstitutesDirectParams(t *testing.T) {
	// A query that uses a parameter outside VG arguments: the generated
	// text must substitute it as a literal.
	src := `
DECLARE PARAMETER @w AS RANGE 0 TO 5 STEP BY 1;
SELECT Gaussian(@w, 1) AS g, @w * 2 AS scaled WHERE @w < 10;`
	scn, err := Compile(src, testRegistry(t))
	if err != nil {
		t.Fatal(err)
	}
	sql, err := scn.GenerateSQL(guide.Point{"w": value.Int(3)})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sql, "@") {
		t.Errorf("parameters remain: %s", sql)
	}
	if !strings.Contains(sql, "(3 * 2)") {
		t.Errorf("literal substitution missing: %s", sql)
	}
	// Missing point parameter errors.
	if _, err := scn.GenerateSQL(guide.Point{}); err == nil {
		t.Error("incomplete point should error")
	}
}

func TestDefaultPoint(t *testing.T) {
	scn := compileFigure2(t)
	pt := scn.DefaultPoint()
	if !pt["current"].Equal(value.Int(0)) || !pt["feature"].Equal(value.Int(12)) {
		t.Errorf("default point = %v", pt)
	}
}

func TestSiteDeduplication(t *testing.T) {
	src := `
DECLARE PARAMETER @w AS RANGE 0 TO 5 STEP BY 1;
SELECT Gaussian(@w, 1) AS a, Gaussian(@w, 1) AS b, Gaussian(@w, 2) AS c;`
	scn, err := Compile(src, testRegistry(t))
	if err != nil {
		t.Fatal(err)
	}
	// Identical calls share a site; the different one gets its own.
	if len(scn.Sites) != 2 {
		t.Fatalf("sites = %+v", scn.Sites)
	}
	sql := scn.Exec.SQL()
	if !strings.Contains(sql, "__vg_0 AS a") || !strings.Contains(sql, "__vg_0 AS b") {
		t.Errorf("dedup not applied: %s", sql)
	}
}

func TestCompileErrors(t *testing.T) {
	reg := testRegistry(t)
	cases := []struct {
		name string
		src  string
		frag string
	}{
		{"no select", "DECLARE PARAMETER @p AS RANGE 0 TO 1 STEP BY 1;", "no SELECT"},
		{"two selects", "SELECT 1; SELECT 2;", "multiple SELECT"},
		{"undeclared param", "SELECT Gaussian(@x, 1) AS g;", "not declared"},
		{"undeclared graph param", "SELECT 1 AS a; GRAPH OVER @z EXPECT a;", "undeclared"},
		{"graph unknown column", "DECLARE PARAMETER @p AS RANGE 0 TO 1 STEP BY 1; SELECT 1 AS a; GRAPH OVER @p EXPECT zz;", "does not produce"},
		{"two graphs", "DECLARE PARAMETER @p AS RANGE 0 TO 1 STEP BY 1; SELECT 1 AS a; GRAPH OVER @p EXPECT a; GRAPH OVER @p EXPECT a;", "multiple GRAPH"},
		{"optimize from mismatch", `DECLARE PARAMETER @p AS RANGE 0 TO 1 STEP BY 1;
			SELECT 1 AS a INTO results;
			OPTIMIZE SELECT @p FROM elsewhere WHERE MAX(EXPECT a) < 1 FOR MAX @p;`, "materializes INTO"},
		{"optimize no constraint param", `DECLARE PARAMETER @p AS RANGE 0 TO 1 STEP BY 1;
			SELECT 1 AS a INTO results;
			OPTIMIZE SELECT @zz FROM results WHERE MAX(EXPECT a) < 1 FOR MAX @p;`, "undeclared"},
		{"optimize bad column", `DECLARE PARAMETER @p AS RANGE 0 TO 1 STEP BY 1;
			SELECT 1 AS a INTO results;
			OPTIMIZE SELECT @p FROM results WHERE MAX(EXPECT b) < 1 FOR MAX @p;`, "does not produce"},
		{"optimize goal undeclared", `DECLARE PARAMETER @p AS RANGE 0 TO 1 STEP BY 1;
			SELECT 1 AS a INTO results;
			OPTIMIZE SELECT @p FROM results WHERE MAX(EXPECT a) < 1 FOR MAX @qq;`, "undeclared"},
		{"optimize groupby undeclared", `DECLARE PARAMETER @p AS RANGE 0 TO 1 STEP BY 1;
			SELECT 1 AS a INTO results;
			OPTIMIZE SELECT @p FROM results WHERE MAX(EXPECT a) < 1 GROUP BY zz FOR MAX @p;`, "declared parameter"},
		{"aggregate in query", `DECLARE PARAMETER @p AS RANGE 0 TO 1 STEP BY 1;
			SELECT SUM(1) AS a;`, "aggregate in scenario query"},
		{"vg arity", `DECLARE PARAMETER @p AS RANGE 0 TO 1 STEP BY 1;
			SELECT Gaussian(@p) AS g;`, "expects 2 arguments"},
		{"vg column arg", `DECLARE PARAMETER @p AS RANGE 0 TO 1 STEP BY 1;
			SELECT Gaussian(somecol, 1) AS g;`, "column reference"},
		{"nested vg", `DECLARE PARAMETER @p AS RANGE 0 TO 1 STEP BY 1;
			SELECT Gaussian(Gaussian(@p, 1), 1) AS g;`, "nested VG"},
		{"vg aggregate arg", `DECLARE PARAMETER @p AS RANGE 0 TO 1 STEP BY 1;
			SELECT 1 AS a WHERE Gaussian(ABS(SUM(@p)), 1) > 0;`, "aggregate in ABS(SUM(@p))"},
	}
	for _, c := range cases {
		_, err := Compile(c.src, reg)
		if err == nil {
			t.Errorf("%s: expected error containing %q", c.name, c.frag)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: error %q does not contain %q", c.name, err, c.frag)
		}
	}
}

func TestCompileNilRegistry(t *testing.T) {
	if _, err := Compile("SELECT 1;", nil); err == nil {
		t.Error("nil registry should error")
	}
}

func TestCompileParseErrorPropagates(t *testing.T) {
	if _, err := Compile("SELEC 1;", testRegistry(t)); err == nil {
		t.Error("parse error should propagate")
	}
}

func TestAddTable(t *testing.T) {
	scn := compileFigure2(t)
	tbl, err := sqlengine.NewTable("regions", []string{"name", "share"}, [][]value.Value{
		{value.Str("east"), value.Float(0.6)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := scn.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	if err := scn.AddTable(tbl); err == nil {
		t.Error("duplicate table should error")
	}
	if err := scn.AddTable(nil); err == nil {
		t.Error("nil table should error")
	}
	reserved, _ := sqlengine.NewTable(WorldsTable, []string{"a"}, nil)
	if err := scn.AddTable(reserved); err == nil {
		t.Error("reserved name should error")
	}
	if len(scn.StaticTables) != 1 {
		t.Errorf("static tables = %d", len(scn.StaticTables))
	}
}

func TestScalarBuiltinArgsAllowed(t *testing.T) {
	src := `
DECLARE PARAMETER @w AS RANGE 0 TO 5 STEP BY 1;
SELECT Gaussian(ABS(@w - 3), 1) AS g;`
	scn, err := Compile(src, testRegistry(t))
	if err != nil {
		t.Fatal(err)
	}
	pt := guide.Point{"w": value.Int(1)}
	vals, key, err := scn.Sites[0].ArgValues(pt)
	if err != nil {
		t.Fatal(err)
	}
	if f, _ := vals[0].AsFloat(); f != 2 {
		t.Errorf("ABS(@w-3) at w=1 = %v", vals[0])
	}
	if key != "(2,1)" {
		t.Errorf("key = %q", key)
	}
}

// TestPlanSharedAcrossRecompiles asserts the compiled-plan cache carries
// plans across re-compilations of identical content — the fpserver
// re-registration path: a planner re-deploying an unchanged scenario must
// pick up the already-warm execution plan, not compile a cold one.
func TestPlanSharedAcrossRecompiles(t *testing.T) {
	reg := testRegistry(t)
	a, err := Compile(figure2, reg)
	if err != nil {
		t.Fatal(err)
	}
	// Whitespace-only differences share a fingerprint and must share a plan.
	b, err := Compile(figure2+"\n\n", reg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Plan() == nil {
		t.Fatal("nil plan")
	}
	if a.Plan() != b.Plan() {
		t.Error("re-compiled identical scenario did not share the cached plan")
	}
	if a.Plan() != a.Plan() {
		t.Error("Plan is not stable per scenario")
	}
	// A genuinely different script must not share.
	c, err := Compile(strings.Replace(figure2, "@feature AS SET (12,36,44)", "@feature AS SET (12,36)", 1), reg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Plan() == a.Plan() {
		t.Error("different scenarios share one plan")
	}
}

// TestFingerprintCoversTables: a scenario without side tables keeps the
// fingerprint of its script alone; side tables join it canonically, so
// different rows or value kinds change it and the order tables were added
// in does not.
func TestFingerprintCoversTables(t *testing.T) {
	scn := compileFigure2(t)
	sum := sha256.Sum256([]byte(sqlparser.Print(scn.Script)))
	bare := hex.EncodeToString(sum[:])
	if got := scn.Fingerprint(); got != bare {
		t.Fatalf("table-free fingerprint %s, want the script's %s", got, bare)
	}
	table := func(name string, v value.Value) *sqlengine.Table {
		tbl, err := sqlengine.NewTable(name, []string{"region", "share"}, [][]value.Value{{value.Str("east"), v}})
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	with := func(tables ...*sqlengine.Table) string {
		s := compileFigure2(t)
		for _, tbl := range tables {
			if err := s.AddTable(tbl); err != nil {
				t.Fatal(err)
			}
		}
		return s.Fingerprint()
	}
	a, b := table("a", value.Float(0.5)), table("b", value.Int(2))
	ab := with(a, b)
	if ab == bare {
		t.Error("adding tables kept the script's fingerprint")
	}
	if got := with(b, a); got != ab {
		t.Error("the order tables were added in changed the fingerprint")
	}
	// A fingerprint read before AddTable does not outlive it.
	read := compileFigure2(t)
	if got := read.Fingerprint(); got != bare {
		t.Fatalf("table-free fingerprint %s, want %s", got, bare)
	}
	for _, tbl := range []*sqlengine.Table{a, b} {
		if err := read.AddTable(tbl); err != nil {
			t.Fatal(err)
		}
	}
	if got := read.Fingerprint(); got != ab {
		t.Errorf("fingerprint read before AddTable stayed %s, want %s", got, ab)
	}
	for _, other := range []*sqlengine.Table{table("b", value.Int(3)), table("b", value.Float(2)), table("c", value.Int(2))} {
		if with(a, other) == ab {
			t.Errorf("table %s with row %v kept the fingerprint", other.Name, other.Rows[0])
		}
	}
}
