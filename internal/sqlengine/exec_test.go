package sqlengine

import (
	"math"
	"strings"
	"testing"

	"fuzzyprophet/internal/sqlparser"
	"fuzzyprophet/internal/value"
)

func mustTable(t *testing.T, name string, cols []string, rows [][]value.Value) *Table {
	t.Helper()
	tbl, err := NewTable(name, cols, rows)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func testEngine(t *testing.T) *Engine {
	t.Helper()
	cat := NewCatalog()
	cat.Put(mustTable(t, "nums", []string{"n", "grp"}, [][]value.Value{
		{value.Int(1), value.Str("a")},
		{value.Int(2), value.Str("a")},
		{value.Int(3), value.Str("b")},
		{value.Int(4), value.Str("b")},
		{value.Int(5), value.Str("b")},
	}))
	cat.Put(mustTable(t, "names", []string{"grp", "label"}, [][]value.Value{
		{value.Str("a"), value.Str("alpha")},
		{value.Str("b"), value.Str("beta")},
	}))
	return New(cat)
}

// execScript compiles the script and returns the result of its last
// SELECT (nil when there is none).
func execScript(e *Engine, script *sqlparser.Script, params map[string]value.Value) (*Result, error) {
	res, err := CompileScript(script).Exec(e, params)
	if err != nil || res == nil {
		return nil, err
	}
	defer res.Release()
	return res.Result(), nil
}

func runQuery(t *testing.T, e *Engine, src string, params map[string]value.Value) *Result {
	t.Helper()
	script, err := sqlparser.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	res, err := execScript(e, script, params)
	if err != nil {
		t.Fatalf("exec %q: %v", src, err)
	}
	return res
}

func wantErr(t *testing.T, e *Engine, src string, fragment string) {
	t.Helper()
	script, err := sqlparser.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	_, err = execScript(e, script, nil)
	if err == nil {
		t.Fatalf("exec %q: expected error containing %q", src, fragment)
	}
	if !strings.Contains(err.Error(), fragment) {
		t.Fatalf("exec %q: error %q does not contain %q", src, err, fragment)
	}
}

func intAt(t *testing.T, res *Result, row int, col string) int64 {
	t.Helper()
	i := res.ColIndex(col)
	if i < 0 {
		t.Fatalf("no column %q in %v", col, res.Cols)
	}
	n, err := res.Rows[row][i].AsInt()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func floatAt(t *testing.T, res *Result, row int, col string) float64 {
	t.Helper()
	i := res.ColIndex(col)
	if i < 0 {
		t.Fatalf("no column %q in %v", col, res.Cols)
	}
	f, err := res.Rows[row][i].AsFloat()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestScalarSelectNoFrom(t *testing.T) {
	e := testEngine(t)
	res := runQuery(t, e, "SELECT 1 + 2 AS three, 'x' AS s;", nil)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if intAt(t, res, 0, "three") != 3 {
		t.Error("1+2 wrong")
	}
}

func TestAliasVisibility(t *testing.T) {
	e := testEngine(t)
	// Figure 2 pattern: later items reference earlier aliases.
	res := runQuery(t, e, `SELECT 10 AS demand, 7 AS capacity,
		CASE WHEN capacity < demand THEN 1 ELSE 0 END AS overload;`, nil)
	if intAt(t, res, 0, "overload") != 1 {
		t.Error("alias-visible CASE failed")
	}
}

func TestSelectFromWhere(t *testing.T) {
	e := testEngine(t)
	res := runQuery(t, e, "SELECT n FROM nums WHERE n > 2;", nil)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if intAt(t, res, 0, "n") != 3 {
		t.Error("first row wrong")
	}
}

func TestParams(t *testing.T) {
	e := testEngine(t)
	res := runQuery(t, e, "SELECT n FROM nums WHERE n = @target;",
		map[string]value.Value{"target": value.Int(4)})
	if len(res.Rows) != 1 || intAt(t, res, 0, "n") != 4 {
		t.Errorf("param filter result = %v", res.Rows)
	}
	wantErr(t, e, "SELECT @missing;", "unbound parameter")
}

func TestAggregatesWholeTable(t *testing.T) {
	e := testEngine(t)
	res := runQuery(t, e, `SELECT COUNT(*) AS c, SUM(n) AS s, AVG(n) AS a,
		MIN(n) AS lo, MAX(n) AS hi, STDDEV(n) AS sd FROM nums;`, nil)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if intAt(t, res, 0, "c") != 5 || intAt(t, res, 0, "s") != 15 {
		t.Error("count/sum wrong")
	}
	if floatAt(t, res, 0, "a") != 3 {
		t.Error("avg wrong")
	}
	if intAt(t, res, 0, "lo") != 1 || intAt(t, res, 0, "hi") != 5 {
		t.Error("min/max wrong")
	}
	if math.Abs(floatAt(t, res, 0, "sd")-math.Sqrt(2.5)) > 1e-12 {
		t.Errorf("stddev = %g", floatAt(t, res, 0, "sd"))
	}
}

func TestProbabilisticAggregates(t *testing.T) {
	e := testEngine(t)
	// EXPECT ≡ AVG; EXPECT_STDDEV ≡ STDDEV; PROB over 0/1 indicator.
	res := runQuery(t, e, `SELECT EXPECT(n) AS ev, EXPECT_STDDEV(n) AS esd,
		PROB(CASE WHEN n > 3 THEN 1 ELSE 0 END) AS p FROM nums;`, nil)
	if floatAt(t, res, 0, "ev") != 3 {
		t.Error("EXPECT wrong")
	}
	if math.Abs(floatAt(t, res, 0, "esd")-math.Sqrt(2.5)) > 1e-12 {
		t.Error("EXPECT_STDDEV wrong")
	}
	if math.Abs(floatAt(t, res, 0, "p")-0.4) > 1e-12 {
		t.Errorf("PROB = %g", floatAt(t, res, 0, "p"))
	}
}

func TestGroupBy(t *testing.T) {
	e := testEngine(t)
	res := runQuery(t, e, `SELECT grp, COUNT(*) AS c, SUM(n) AS s
		FROM nums GROUP BY grp ORDER BY grp;`, nil)
	if len(res.Rows) != 2 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	if res.Rows[0][0].AsString() != "a" || intAt(t, res, 0, "c") != 2 || intAt(t, res, 0, "s") != 3 {
		t.Errorf("group a = %v", res.Rows[0])
	}
	if res.Rows[1][0].AsString() != "b" || intAt(t, res, 1, "c") != 3 || intAt(t, res, 1, "s") != 12 {
		t.Errorf("group b = %v", res.Rows[1])
	}
}

func TestGroupByHaving(t *testing.T) {
	e := testEngine(t)
	res := runQuery(t, e, `SELECT grp, COUNT(*) AS c FROM nums
		GROUP BY grp HAVING COUNT(*) > 2;`, nil)
	if len(res.Rows) != 1 || res.Rows[0][0].AsString() != "b" {
		t.Errorf("having result = %v", res.Rows)
	}
}

func TestAggregateOverEmptyInput(t *testing.T) {
	e := testEngine(t)
	res := runQuery(t, e, "SELECT COUNT(*) AS c, SUM(n) AS s, AVG(n) AS a FROM nums WHERE n > 100;", nil)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if intAt(t, res, 0, "c") != 0 {
		t.Error("COUNT over empty must be 0")
	}
	if !res.Rows[0][1].IsNull() || !res.Rows[0][2].IsNull() {
		t.Error("SUM/AVG over empty must be NULL")
	}
}

func TestJoin(t *testing.T) {
	e := testEngine(t)
	res := runQuery(t, e, `SELECT n, label FROM nums JOIN names ON nums.grp = names.grp
		WHERE n >= 3 ORDER BY n;`, nil)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0][1].AsString() != "beta" {
		t.Errorf("join label = %v", res.Rows[0])
	}
}

func TestCrossJoinCount(t *testing.T) {
	e := testEngine(t)
	res := runQuery(t, e, "SELECT COUNT(*) AS c FROM nums, names;", nil)
	if intAt(t, res, 0, "c") != 10 {
		t.Errorf("cross join count = %d", intAt(t, res, 0, "c"))
	}
}

func TestAmbiguousColumn(t *testing.T) {
	e := testEngine(t)
	wantErr(t, e, "SELECT grp FROM nums, names;", "ambiguous")
	// Qualified reference resolves fine.
	res := runQuery(t, e, "SELECT COUNT(*) AS c FROM nums, names WHERE nums.grp = names.grp;", nil)
	if intAt(t, res, 0, "c") != 5 {
		t.Errorf("qualified join count = %d", intAt(t, res, 0, "c"))
	}
}

func TestTableAlias(t *testing.T) {
	e := testEngine(t)
	res := runQuery(t, e, "SELECT x.n FROM nums AS x WHERE x.n = 1;", nil)
	if len(res.Rows) != 1 {
		t.Errorf("alias rows = %d", len(res.Rows))
	}
	// Original name no longer binds once aliased.
	wantErr(t, e, "SELECT nums.n FROM nums AS x;", "unknown column")
}

func TestOrderByDescAndLimit(t *testing.T) {
	e := testEngine(t)
	res := runQuery(t, e, "SELECT n FROM nums ORDER BY n DESC LIMIT 2;", nil)
	if len(res.Rows) != 2 || intAt(t, res, 0, "n") != 5 || intAt(t, res, 1, "n") != 4 {
		t.Errorf("order/limit = %v", res.Rows)
	}
}

func TestOrderByAggregate(t *testing.T) {
	e := testEngine(t)
	res := runQuery(t, e, "SELECT grp FROM nums GROUP BY grp ORDER BY SUM(n) DESC;", nil)
	if res.Rows[0][0].AsString() != "b" {
		t.Errorf("order by aggregate = %v", res.Rows)
	}
}

func TestInto(t *testing.T) {
	e := testEngine(t)
	runQuery(t, e, "SELECT n * 2 AS dbl INTO doubled FROM nums;", nil)
	tbl, ok := e.Catalog.Get("doubled")
	if !ok {
		t.Fatal("INTO did not materialize")
	}
	if len(tbl.Rows) != 5 || tbl.Cols[0] != "dbl" {
		t.Errorf("materialized = %v %v", tbl.Cols, tbl.Rows)
	}
	// Re-query the materialized table.
	res := runQuery(t, e, "SELECT SUM(dbl) AS s FROM doubled;", nil)
	if intAt(t, res, 0, "s") != 30 {
		t.Errorf("sum of doubled = %v", res.Rows)
	}
}

func TestCaseExpression(t *testing.T) {
	e := testEngine(t)
	res := runQuery(t, e, `SELECT n, CASE WHEN n < 3 THEN 'small' WHEN n < 5 THEN 'mid' ELSE 'big' END AS size
		FROM nums ORDER BY n;`, nil)
	want := []string{"small", "small", "mid", "mid", "big"}
	for i, w := range want {
		if res.Rows[i][1].AsString() != w {
			t.Errorf("row %d size = %v, want %s", i, res.Rows[i][1], w)
		}
	}
}

func TestCaseWithoutElseYieldsNull(t *testing.T) {
	e := testEngine(t)
	res := runQuery(t, e, "SELECT CASE WHEN FALSE THEN 1 END AS v;", nil)
	if !res.Rows[0][0].IsNull() {
		t.Error("CASE without ELSE should be NULL")
	}
}

func TestBuiltinScalarFunctions(t *testing.T) {
	e := testEngine(t)
	res := runQuery(t, e, `SELECT ABS(-3) AS a, SQRT(16) AS sq, POWER(2, 10) AS p,
		FLOOR(2.7) AS f, CEILING(2.1) AS c, ROUND(2.5) AS r, SIGN(-9) AS sg,
		LEAST(3, 1, 2) AS lo, GREATEST(3, 1, 2) AS hi, COALESCE(NULL, NULL, 7) AS co,
		EXP(0) AS ex, LN(1) AS l;`, nil)
	checks := map[string]float64{
		"a": 3, "sq": 4, "p": 1024, "f": 2, "c": 3, "r": 3, "sg": -1,
		"lo": 1, "hi": 3, "co": 7, "ex": 1, "l": 0,
	}
	for col, want := range checks {
		if got := floatAt(t, res, 0, col); got != want {
			t.Errorf("%s = %g, want %g", col, got, want)
		}
	}
}

func TestBuiltinErrors(t *testing.T) {
	e := testEngine(t)
	wantErr(t, e, "SELECT SQRT(-1);", "SQRT")
	wantErr(t, e, "SELECT LN(0);", "LN")
	wantErr(t, e, "SELECT NoSuchFn(1);", "unknown function")
	wantErr(t, e, "SELECT ABS(1, 2);", "expects 1 argument")
}

func TestNullSemantics(t *testing.T) {
	e := testEngine(t)
	res := runQuery(t, e, `SELECT NULL + 1 AS a, NULL = NULL AS b,
		COALESCE(NULL, 2) AS c, NULL IS NULL AS d, 1 IS NOT NULL AS ee;`, nil)
	if !res.Rows[0][0].IsNull() {
		t.Error("NULL + 1 should be NULL")
	}
	if !res.Rows[0][1].IsNull() {
		t.Error("NULL = NULL should be NULL")
	}
	if intAt(t, res, 0, "c") != 2 {
		t.Error("COALESCE failed")
	}
	b, _ := res.Rows[0][3].AsBool()
	if !b {
		t.Error("NULL IS NULL should be TRUE")
	}
	b, _ = res.Rows[0][4].AsBool()
	if !b {
		t.Error("1 IS NOT NULL should be TRUE")
	}
}

func TestThreeValuedLogic(t *testing.T) {
	e := testEngine(t)
	res := runQuery(t, e, `SELECT (FALSE AND NULL) AS a, (TRUE OR NULL) AS b,
		(TRUE AND NULL) AS c, (FALSE OR NULL) AS d, (NULL AND FALSE) AS ee, (NULL OR TRUE) AS f;`, nil)
	av, _ := res.Rows[0][0].AsBool()
	if av {
		t.Error("FALSE AND NULL should be FALSE")
	}
	bv, _ := res.Rows[0][1].AsBool()
	if !bv {
		t.Error("TRUE OR NULL should be TRUE")
	}
	if !res.Rows[0][2].IsNull() || !res.Rows[0][3].IsNull() {
		t.Error("TRUE AND NULL / FALSE OR NULL should be NULL")
	}
	ev := res.Rows[0][4]
	if evb, _ := ev.AsBool(); ev.IsNull() || evb {
		t.Error("NULL AND FALSE should be FALSE")
	}
	fv := res.Rows[0][5]
	if fvb, _ := fv.AsBool(); fv.IsNull() || !fvb {
		t.Error("NULL OR TRUE should be TRUE")
	}
}

func TestBetweenAndIn(t *testing.T) {
	e := testEngine(t)
	res := runQuery(t, e, "SELECT n FROM nums WHERE n BETWEEN 2 AND 4 ORDER BY n;", nil)
	if len(res.Rows) != 3 {
		t.Errorf("between rows = %d", len(res.Rows))
	}
	res = runQuery(t, e, "SELECT n FROM nums WHERE n NOT IN (1, 3, 5) ORDER BY n;", nil)
	if len(res.Rows) != 2 || intAt(t, res, 0, "n") != 2 {
		t.Errorf("not in rows = %v", res.Rows)
	}
}

func TestNotOperator(t *testing.T) {
	e := testEngine(t)
	res := runQuery(t, e, "SELECT n FROM nums WHERE NOT n > 2 ORDER BY n;", nil)
	if len(res.Rows) != 2 {
		t.Errorf("NOT rows = %d", len(res.Rows))
	}
}

func TestUnknownTable(t *testing.T) {
	e := testEngine(t)
	wantErr(t, e, "SELECT x FROM missing;", "unknown table")
}

func TestAggregateOutsideGrouping(t *testing.T) {
	e := testEngine(t)
	// Aggregate inside WHERE is not a grouping context.
	wantErr(t, e, "SELECT n FROM nums WHERE SUM(n) > 3;", "aggregation context")
}

func TestNestedAggregateRejected(t *testing.T) {
	e := testEngine(t)
	wantErr(t, e, "SELECT SUM(SUM(n)) FROM nums;", "nested aggregate")
}

func TestCountStarOnlyForCount(t *testing.T) {
	e := testEngine(t)
	wantErr(t, e, "SELECT SUM(*) FROM nums;", "COUNT(*)")
}

func TestMixedAggregateAndScalarExpression(t *testing.T) {
	e := testEngine(t)
	res := runQuery(t, e, "SELECT SUM(n) * 2 + COUNT(*) AS v FROM nums;", nil)
	if intAt(t, res, 0, "v") != 35 {
		t.Errorf("mixed agg expr = %v", res.Rows)
	}
}

func TestGroupByExpression(t *testing.T) {
	e := testEngine(t)
	res := runQuery(t, e, "SELECT n % 2 AS parity, COUNT(*) AS c FROM nums GROUP BY n % 2 ORDER BY parity;", nil)
	if len(res.Rows) != 2 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	if intAt(t, res, 0, "parity") != 0 || intAt(t, res, 0, "c") != 2 {
		t.Errorf("parity 0 = %v", res.Rows[0])
	}
	if intAt(t, res, 1, "parity") != 1 || intAt(t, res, 1, "c") != 3 {
		t.Errorf("parity 1 = %v", res.Rows[1])
	}
}

func TestResultColumnHelpers(t *testing.T) {
	e := testEngine(t)
	res := runQuery(t, e, "SELECT n FROM nums ORDER BY n;", nil)
	if res.ColIndex("n") != 0 {
		t.Error("ColIndex for n should be 0")
	}
	if res.ColIndex("zzz") != -1 {
		t.Error("ColIndex for missing should be -1")
	}
}

func TestExecScriptSkipsMetadataStatements(t *testing.T) {
	e := testEngine(t)
	res := runQuery(t, e, `DECLARE PARAMETER @p AS RANGE 0 TO 1 STEP BY 1;
SELECT 42 AS v;
GRAPH OVER @p EXPECT v;`, nil)
	if intAt(t, res, 0, "v") != 42 {
		t.Error("script execution wrong")
	}
}

func TestCatalogBasics(t *testing.T) {
	c := NewCatalog()
	tbl := &Table{Name: "t", Cols: []string{"a"}}
	c.Put(tbl)
	if _, ok := c.Get("t"); !ok {
		t.Error("Get after Put failed")
	}
	if _, ok := c.Get("u"); ok {
		t.Error("Get of an absent table should miss")
	}
}

func TestNewTableValidation(t *testing.T) {
	if _, err := NewTable("", []string{"a"}, nil); err == nil {
		t.Error("empty name should error")
	}
	if _, err := NewTable("t", nil, nil); err == nil {
		t.Error("no columns should error")
	}
	if _, err := NewTable("t", []string{"a", "a"}, nil); err == nil {
		t.Error("duplicate columns should error")
	}
	if _, err := NewTable("t", []string{"a"}, [][]value.Value{{value.Int(1), value.Int(2)}}); err == nil {
		t.Error("row width mismatch should error")
	}
	if _, err := NewTable("t", []string{"a", "b"}, nil); err != nil {
		t.Fatal(err)
	}
}
