package sqlengine

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"fuzzyprophet/internal/sqlparser"
	"fuzzyprophet/internal/value"
)

// Differential suite: every query runs as a compiled Plan and through the
// row reference executor over identical catalogs; the two must agree
// exactly — same error-ness, same row count, same values (NULLs included).
// The fixtures deliberately lean on NULL-handling edge cases: NULLs in
// filters, group keys, aggregate inputs, join keys, ORDER BY keys and IN
// lists.

// diffData builds one catalog instance; each engine gets its own so INTO
// materializations cannot leak across paths.
func diffData(t *testing.T) *Catalog {
	t.Helper()
	cat := NewCatalog()
	null := value.Null
	cat.Put(mustTable(t, "t", []string{"a", "b", "g", "s", "flag", "mixed"}, [][]value.Value{
		{value.Int(1), value.Float(1.5), value.Str("x"), value.Str("one"), value.Bool(true), value.Int(10)},
		{value.Int(2), null, value.Str("y"), value.Str("two"), value.Bool(false), value.Float(2.5)},
		{null, value.Float(-3.25), value.Str("x"), null, value.Bool(true), value.Int(7)},
		{value.Int(4), value.Float(0), null, value.Str("four"), null, value.Float(-1)},
		{value.Int(2), value.Float(8), value.Str("y"), value.Str("two"), value.Bool(false), null},
		{null, null, null, null, null, null},
		{value.Int(-7), value.Float(1.5), value.Str("z"), value.Str("seven"), value.Bool(true), value.Int(10)},
	}))
	cat.Put(mustTable(t, "dim", []string{"g", "label", "weight"}, [][]value.Value{
		{value.Str("x"), value.Str("ex"), value.Float(0.5)},
		{value.Str("y"), value.Str("why"), value.Float(2)},
		// "z" intentionally missing; NULL key never joins.
		{null, value.Str("none"), value.Float(9)},
	}))
	cat.Put(mustTable(t, "empty", []string{"a", "b"}, nil))
	// Integers beyond 2^53: value.Compare widens to float64 and treats
	// adjacent huge ints as equal; the columnar engine must order and pick
	// MIN/MAX representatives identically.
	cat.Put(mustTable(t, "bigint", []string{"v", "tag"}, [][]value.Value{
		{value.Int(9007199254740993), value.Str("b")},
		{value.Int(9007199254740992), value.Str("a")},
		{value.Int(-9007199254740993), value.Str("c")},
		{null, value.Str("n")},
	}))
	cat.Put(mustTable(t, "allnull", []string{"v"}, [][]value.Value{{null}, {null}}))
	// A NaN join key compares equal to everything under the engines'
	// two-way comparison, which no hash key can express.
	cat.Put(mustTable(t, "nan", []string{"k", "tag"}, [][]value.Value{
		{value.Float(math.NaN()), value.Str("nan")},
		{value.Float(1.5), value.Str("one-half")},
		{null, value.Str("null")},
	}))
	return cat
}

// runBothEngines executes src as a compiled plan and on the row reference
// executor over fresh identical catalogs and asserts the outcomes match. It
// returns the plan's result for any additional assertions.
func runBothEngines(t *testing.T, src string, params map[string]value.Value) *Result {
	t.Helper()
	script, err := sqlparser.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	rres, rerr := New(diffData(t)).ExecScriptRow(script, params)

	// Compile once, execute twice on one engine — the second pass reuses the
	// plan's buffers, so any cross-execution buffer contamination shows up
	// as a mismatch here.
	plan := CompileScript(script)
	comp := New(diffData(t))
	var cres *Result
	for pass := 0; pass < 2; pass++ {
		pres, perr := plan.Exec(comp, params)
		cres = nil
		if perr == nil && pres != nil {
			cres = pres.Result()
			pres.Release()
		}
		compareOutcomes(t, src, cres, perr, rres, rerr)
		if perr != nil {
			break
		}
	}
	return cres
}

// compareOutcomes asserts both paths agreed: same error-ness, and on
// success identical column names and cell values (NULL matches only NULL,
// numerics compare with INT→FLOAT widening).
func compareOutcomes(t *testing.T, src string, vres *Result, verr error, rres *Result, rerr error) {
	t.Helper()
	if (verr == nil) != (rerr == nil) {
		t.Fatalf("%s:\nplan err = %v\nrow err  = %v", src, verr, rerr)
	}
	if verr != nil {
		return
	}
	if strings.Join(vres.Cols, ",") != strings.Join(rres.Cols, ",") {
		t.Fatalf("%s: cols %v vs %v", src, vres.Cols, rres.Cols)
	}
	if len(vres.Rows) != len(rres.Rows) {
		t.Fatalf("%s: %d rows (plan) vs %d rows (row)", src, len(vres.Rows), len(rres.Rows))
	}
	for i := range vres.Rows {
		for j := range vres.Cols {
			a, b := vres.Rows[i][j], rres.Rows[i][j]
			if a.IsNull() != b.IsNull() || (!a.IsNull() && !a.Equal(b)) {
				t.Fatalf("%s: row %d col %s: plan %v vs row %v", src, i, vres.Cols[j], a, b)
			}
		}
	}
}

// TestDifferentialFixedQueries covers every dialect feature once, with the
// NULL-heavy fixtures.
func TestDifferentialFixedQueries(t *testing.T) {
	queries := []string{
		// Projection, alias visibility, scalar expressions over NULLs.
		"SELECT a, b, a + b AS apb, a * 2 AS a2, a2 + 1 AS a3 FROM t;",
		"SELECT a - b AS d, -a AS neg, b / 2 AS half FROM t;",
		"SELECT a % 2 AS m FROM t WHERE a IS NOT NULL;",
		"SELECT CASE WHEN a > 1 THEN 'big' WHEN a = 1 THEN 'one' ELSE 'small' END AS c FROM t;",
		"SELECT CASE WHEN a > 1 THEN b END AS c FROM t;",
		"SELECT COALESCE(a, b, -1) AS c, ABS(b) AS ab FROM t;",
		"SELECT UPPER(s) AS u, LEN(s) AS l, CONCAT(s, '-', g) AS cat FROM t;",
		// WHERE with three-valued logic, IS NULL, BETWEEN, IN.
		"SELECT a FROM t WHERE b > 0;",
		"SELECT a FROM t WHERE b > 0 OR flag;",
		"SELECT a FROM t WHERE NOT (b > 0) AND a IS NOT NULL;",
		"SELECT a FROM t WHERE a BETWEEN 1 AND 3;",
		"SELECT a FROM t WHERE a NOT BETWEEN 1 AND 3;",
		"SELECT a FROM t WHERE a IN (1, 2, NULL);",
		"SELECT a FROM t WHERE a NOT IN (1, 2);",
		"SELECT a FROM t WHERE g IS NULL;",
		"SELECT a FROM t WHERE s IS NOT NULL AND flag;",
		// NULL on one side of AND/OR makes the row engine convert the other
		// side leniently (a non-boolean string counts as false, not error).
		"SELECT NULL AND 'x' AS a, NULL OR 'x' AS b;",
		"SELECT NULL AND s AS x, NULL OR s AS y FROM t;",
		"SELECT b FROM t WHERE g AND b > 0;",
		"SELECT a, mixed FROM t WHERE mixed > 0;",
		// Aggregates over NULL-containing, empty and all-NULL inputs.
		"SELECT COUNT(*) AS n, COUNT(a) AS na, COUNT(b) AS nb FROM t;",
		"SELECT SUM(a) AS sa, SUM(b) AS sb, SUM(mixed) AS sm FROM t;",
		"SELECT AVG(b) AS avgb, STDDEV(b) AS sdb, MIN(a) AS mina, MAX(a) AS maxa FROM t;",
		"SELECT EXPECT(b) AS e, EXPECT_STDDEV(b) AS es, PROB(flag) AS p FROM t WHERE flag IS NOT NULL;",
		"SELECT MIN(s) AS mins, MAX(s) AS maxs FROM t;",
		"SELECT COUNT(*) AS n, SUM(a) AS s, AVG(a) AS av, MIN(a) AS mn FROM empty;",
		"SELECT COUNT(v) AS n, SUM(v) AS s, AVG(v) AS av FROM allnull;",
		"SELECT SUM(a + b) AS sab, COUNT(a + b) AS nab FROM t;",
		"SELECT SUM(CASE WHEN b > 0 THEN 1 ELSE 0 END) AS pos FROM t;",
		// GROUP BY on NULL-containing keys, HAVING, aggregate arithmetic.
		"SELECT g, COUNT(*) AS n FROM t GROUP BY g;",
		"SELECT g, COUNT(*) AS n, SUM(a) AS sa, AVG(b) AS ab FROM t GROUP BY g ORDER BY g;",
		"SELECT g, COUNT(*) AS n FROM t GROUP BY g HAVING COUNT(*) > 1;",
		"SELECT g, SUM(a) * 1.0 / COUNT(a) AS manual_avg FROM t GROUP BY g HAVING COUNT(a) > 0;",
		"SELECT g, s, COUNT(*) AS n FROM t GROUP BY g, s ORDER BY g, s;",
		"SELECT a % 2 AS parity, COUNT(*) AS n FROM t WHERE a IS NOT NULL GROUP BY a % 2 ORDER BY parity;",
		// Huge integers: float64-widened comparison semantics must match.
		"SELECT v, tag FROM bigint ORDER BY v, tag;",
		"SELECT MIN(v) AS mn, MAX(v) AS mx FROM bigint;",
		"SELECT DISTINCT v FROM bigint;",
		// DISTINCT including NULL rows and INT/FLOAT key collapsing.
		"SELECT DISTINCT g FROM t ORDER BY g;",
		"SELECT DISTINCT g, s FROM t;",
		"SELECT DISTINCT b FROM t ORDER BY b DESC;",
		// ORDER BY with NULLs first, multiple keys, DESC, LIMIT.
		"SELECT a, b FROM t ORDER BY a, b DESC;",
		"SELECT a, b FROM t ORDER BY b DESC, a LIMIT 3;",
		"SELECT a, a * a AS sq FROM t WHERE a IS NOT NULL ORDER BY sq DESC LIMIT 2;",
		"SELECT g, COUNT(*) AS n FROM t GROUP BY g ORDER BY n DESC, g LIMIT 2;",
		// Joins: cross, inner, left (NULL keys never match), alias use.
		"SELECT COUNT(*) AS n FROM t, dim;",
		"SELECT t.a, dim.label FROM t JOIN dim ON t.g = dim.g ORDER BY t.a;",
		"SELECT t.a, dim.label FROM t LEFT JOIN dim ON t.g = dim.g ORDER BY t.a;",
		"SELECT t.a FROM t LEFT JOIN dim ON t.g = dim.g WHERE dim.label IS NULL ORDER BY t.a;",
		"SELECT x.a, y.weight FROM t x JOIN dim y ON x.g = y.g WHERE y.weight > 1 ORDER BY x.a;",
		"SELECT COUNT(*) AS n FROM t JOIN dim ON t.b > dim.weight;",
		// Equality joins with swapped/expression keys (the hash path) and
		// all-NULL key sides.
		"SELECT t.a, dim.label FROM t JOIN dim ON dim.g = t.g ORDER BY t.a;",
		"SELECT t.a FROM t JOIN dim ON t.b = dim.weight * 4 ORDER BY t.a;",
		"SELECT COUNT(*) AS n FROM allnull JOIN dim ON allnull.v = dim.weight;",
		"SELECT dim.label FROM dim LEFT JOIN allnull ON dim.weight = allnull.v ORDER BY dim.label;",
		// GROUP BY over a hash equi-join with NULL keys on both sides: the
		// NULL t.g rows and dim's NULL-g row must never match (row-engine
		// semantics), and the grouped aggregates must see exactly the
		// joined multiplicities.
		"SELECT dim.label, COUNT(*) AS n, SUM(t.a) AS s FROM t JOIN dim ON t.g = dim.g GROUP BY dim.label ORDER BY dim.label;",
		"SELECT dim.label, COUNT(t.a) AS n, AVG(t.b) AS avgb FROM t LEFT JOIN dim ON t.g = dim.g GROUP BY dim.label ORDER BY dim.label;",
		"SELECT t.g, COUNT(*) AS n FROM t JOIN dim ON t.g = dim.g GROUP BY t.g HAVING COUNT(*) > 1 ORDER BY t.g;",
		// INTO materialization and re-query.
		"SELECT g, COUNT(*) AS n INTO agg FROM t GROUP BY g; SELECT g, n FROM agg ORDER BY n DESC, g;",
		"SELECT a, b INTO copy FROM t WHERE a IS NOT NULL; SELECT SUM(a) AS s FROM copy;",
		"SELECT a + 1 AS a1, b INTO x FROM t WHERE a > 1 ORDER BY a DESC LIMIT 3; SELECT x.a1, dim.label FROM x, dim WHERE x.b IS NOT NULL;",
		"SELECT DISTINCT g INTO gs FROM t; SELECT gs.g, dim.label FROM gs LEFT JOIN dim ON gs.g = dim.g;",
		// Scalar SELECT with no FROM.
		"SELECT 1 + 2 AS three, NULL AS nothing, 'x' AS letter;",
		// Parameters.
		"SELECT a FROM t WHERE a > @lo ORDER BY a;",
		// Three- and four-table FROMs in their natural (first-table-major)
		// order: cross × cross with pruned columns, hash then theta, LEFT
		// JOINs padding through an empty middle table, NaN keys (hash path
		// aborts), mixed-family boxed keys (never hashable), NULL keys.
		"SELECT t.a, dim.label, bigint.tag FROM t, dim, bigint;",
		"SELECT t.a, dim.label, d2.weight FROM t JOIN dim ON t.g = dim.g JOIN dim d2 ON d2.weight > t.b;",
		"SELECT t.a, dim.label, nan.tag FROM t LEFT JOIN dim ON t.g = dim.g LEFT JOIN nan ON t.b = nan.k;",
		"SELECT t.a, nan.tag, dim.label FROM t JOIN nan ON nan.k = t.b, dim WHERE dim.g IS NOT NULL;",
		"SELECT t.a, dim.label FROM t, empty, dim;",
		"SELECT t.a, e.b, dim.label FROM t LEFT JOIN empty e ON t.a = e.a JOIN dim ON t.g = dim.g;",
		"SELECT t.a, dim.label, e.a FROM t JOIN dim ON t.g = dim.g LEFT JOIN empty e ON e.b > dim.weight;",
		"SELECT t.a, dim.label, b.tag FROM t JOIN dim ON t.mixed = dim.weight * 5, bigint b WHERE b.v IS NOT NULL;",
		"SELECT x.a, y.label, z.tag, w.v FROM t x JOIN dim y ON x.g = y.g, bigint z LEFT JOIN allnull w ON w.v = z.v WHERE x.a IS NOT NULL;",
		"SELECT x.a, y.label, z.tag, n.tag AS ntag FROM t x LEFT JOIN dim y ON x.g = y.g LEFT JOIN bigint z ON z.v > x.a LEFT JOIN nan n ON n.k = y.weight * 3;",
		"SELECT dim.label, COUNT(*) AS n, SUM(t.a) AS s FROM t JOIN dim ON t.g = dim.g, bigint GROUP BY dim.label ORDER BY dim.label;",
		// Non-grouped ORDER BY keys: huge ints, an expression that is not
		// projected, and one that would divide by zero only on a row
		// DISTINCT already dropped (keys evaluate over the survivors).
		"SELECT DISTINCT v FROM bigint ORDER BY v DESC LIMIT 2;",
		"SELECT b.v, b.tag, t.a FROM bigint b, t WHERE t.a = 2 ORDER BY b.v DESC, b.tag;",
		"SELECT DISTINCT g FROM t WHERE a IS NOT NULL ORDER BY a * -1;",
		"SELECT DISTINCT g FROM t ORDER BY 1 / (b + 3.25);",
	}
	// DISTINCT / ORDER BY (alias and NULL keys, ASC and DESC) / LIMIT in
	// every combination, over a join and under a WHERE.
	for _, distinct := range []string{"", "DISTINCT "} {
		for _, order := range []string{"", " ORDER BY lab DESC, t.a", " ORDER BY t.b, lab"} {
			for _, limit := range []string{"", " LIMIT 3", " LIMIT 0"} {
				queries = append(queries, "SELECT "+distinct+"t.g, dim.label AS lab FROM t LEFT JOIN dim ON t.g = dim.g WHERE t.b IS NOT NULL OR t.a > 1"+order+limit+";")
			}
		}
	}
	params := map[string]value.Value{"lo": value.Int(1)}
	for _, q := range queries {
		runBothEngines(t, q, params)
	}
}

// TestDifferentialErrors checks that queries that must fail fail on both
// paths (compareOutcomes inside runBothEngines asserts error parity).
func TestDifferentialErrors(t *testing.T) {
	for _, q := range []string{
		"SELECT a / 0 FROM t;",
		"SELECT 1 % 0;",
		"SELECT unknown_col FROM t;",
		"SELECT g FROM t, dim;", // ambiguous
		"SELECT a FROM missing;",
		"SELECT SUM(a) FROM t WHERE SUM(a) > 0;",
		"SELECT SUM(SUM(a)) FROM t;",
		"SELECT MAX(*) FROM t;",
		"SELECT NOSUCHFUNC(a) FROM t;",
		"SELECT s + 1 FROM t;",
		"SELECT a FROM t WHERE s AND flag;",
		"SELECT a FROM t ORDER BY SUM(a);",
		"SELECT @missing FROM t;",
		// The same failures past the second table and in the post-operators.
		"SELECT g FROM t, bigint, dim;", // ambiguous
		"SELECT t.a FROM t, dim, missing;",
		"SELECT t.a FROM t JOIN dim ON t.g = dim.weight, bigint;",      // string = float
		"SELECT t.a FROM t, bigint JOIN dim ON t.g = dim.weight;",      // same, as the third table
		"SELECT t.a FROM t JOIN dim ON t.g = b.tag, bigint b;",         // ON sees only the tables so far
		"SELECT t.a FROM t, dim JOIN bigint b ON b.v / (t.a - 1) > 0;", // division by zero in a theta ON
		"SELECT a FROM t ORDER BY s + 1;",
		"SELECT DISTINCT a FROM t ORDER BY 1 / (a - 4) LIMIT 1;",
		"SELECT a AS c, b AS c INTO dup FROM t;",
		"SELECT a INTO x FROM t; SELECT nosuch FROM x;",
	} {
		runBothEngines(t, q, nil)
	}
}

// randomColumnExpr generates numeric expressions over t's columns (which
// include NULLs and a mixed-kind column), reusing the literal generators of
// the oracle test.
func randomColumnExpr(r *rand.Rand, depth int) sqlparser.Expr {
	if depth <= 0 {
		switch r.Intn(8) {
		case 0:
			return sqlparser.ColumnRef{Name: "a"}
		case 1:
			return sqlparser.ColumnRef{Name: "b"}
		case 2:
			return sqlparser.ColumnRef{Name: "mixed"}
		case 3:
			return sqlparser.Literal{Val: value.Null}
		case 4, 5:
			return sqlparser.Literal{Val: value.Int(int64(r.Intn(9) - 4))}
		default:
			return sqlparser.Literal{Val: value.Float(float64(r.Intn(64)-32) / 4)}
		}
	}
	switch r.Intn(4) {
	case 0:
		ops := []string{"+", "-", "*", "/"}
		return sqlparser.Binary{Op: ops[r.Intn(len(ops))],
			L: randomColumnExpr(r, depth-1), R: randomColumnExpr(r, depth-1)}
	case 1:
		return sqlparser.Unary{Op: "-", X: randomColumnExpr(r, depth-1)}
	case 2:
		n := 1 + r.Intn(2)
		whens := make([]sqlparser.When, n)
		for i := range whens {
			whens[i] = sqlparser.When{Cond: randomColumnBool(r, depth-1), Then: randomColumnExpr(r, depth-1)}
		}
		c := sqlparser.Case{Whens: whens}
		if r.Intn(2) == 0 {
			c.Else = randomColumnExpr(r, depth-1)
		}
		return c
	default:
		return sqlparser.Case{Whens: []sqlparser.When{{
			Cond: sqlparser.IsNull{X: randomColumnExpr(r, depth-1)},
			Then: randomColumnExpr(r, depth-1),
		}}, Else: randomColumnExpr(r, depth-1)}
	}
}

func randomColumnBool(r *rand.Rand, depth int) sqlparser.Expr {
	if depth <= 0 || r.Intn(4) == 0 {
		ops := []string{"=", "<>", "<", "<=", ">", ">="}
		return sqlparser.Binary{Op: ops[r.Intn(len(ops))],
			L: randomColumnExpr(r, 0), R: randomColumnExpr(r, 0)}
	}
	switch r.Intn(5) {
	case 0:
		return sqlparser.Binary{Op: "AND", L: randomColumnBool(r, depth-1), R: randomColumnBool(r, depth-1)}
	case 1:
		return sqlparser.Binary{Op: "OR", L: randomColumnBool(r, depth-1), R: randomColumnBool(r, depth-1)}
	case 2:
		return sqlparser.IsNull{X: randomColumnExpr(r, depth-1), Not: r.Intn(2) == 0}
	case 3:
		return sqlparser.Between{X: randomColumnExpr(r, depth-1),
			Lo: randomColumnExpr(r, 0), Hi: randomColumnExpr(r, 0), Not: r.Intn(2) == 0}
	default:
		items := make([]sqlparser.Expr, 1+r.Intn(3))
		for i := range items {
			items[i] = randomColumnExpr(r, 0)
		}
		return sqlparser.InList{X: randomColumnExpr(r, depth-1), Items: items, Not: r.Intn(2) == 0}
	}
}

// TestDifferentialRandomQueries fuzzes whole SELECTs — projections over one
// to three tables, filters, grouping with aggregates, DISTINCT, ordering,
// LIMIT, and INTO followed by a re-select — through both paths.
func TestDifferentialRandomQueries(t *testing.T) {
	r := rand.New(rand.NewSource(20110612))
	for i := 0; i < 400; i++ {
		runBothEngines(t, randomQuery(r, i%3 == 0), nil)
	}
}

var randomAggs = []string{"SUM", "AVG", "COUNT", "MIN", "MAX", "STDDEV", "EXPECT", "PROB"}

// Joined tables share no column name with t, so the generated
// expressions' unqualified references stay unambiguous.
var randomFroms = []string{
	"t", "t", "t",
	"t, allnull",
	"t LEFT JOIN bigint ON a = v",
	"t JOIN bigint ON b < v",
	"t, allnull n LEFT JOIN bigint ON b > bigint.v",
	"t JOIN bigint ON mixed <> v LEFT JOIN nan ON k = b",
}

// randomQuery builds one SELECT script from r: projections over one to
// three tables, filters, grouping with aggregates, DISTINCT, ordering,
// LIMIT, and INTO followed by a re-select.
func randomQuery(r *rand.Rand, grouped bool) string {
	var sb strings.Builder
	from := randomFroms[r.Intn(len(randomFroms))]
	into := r.Intn(8) == 0
	if grouped {
		agg1 := randomAggs[r.Intn(len(randomAggs))]
		agg2 := randomAggs[r.Intn(len(randomAggs))]
		fmt.Fprintf(&sb, "SELECT g, %s(%s) AS m1, %s(%s) AS m2",
			agg1, randomColumnExpr(r, 2).SQL(), agg2, randomColumnExpr(r, 1).SQL())
	} else {
		sb.WriteString("SELECT ")
		if r.Intn(4) == 0 {
			sb.WriteString("DISTINCT ")
		}
		fmt.Fprintf(&sb, "%s AS x, %s AS y", randomColumnExpr(r, 3).SQL(), randomColumnExpr(r, 2).SQL())
	}
	if into {
		sb.WriteString(" INTO scratch")
	}
	fmt.Fprintf(&sb, " FROM %s", from)
	if r.Intn(2) == 0 {
		fmt.Fprintf(&sb, " WHERE %s", randomColumnBool(r, 2).SQL())
	}
	if grouped {
		sb.WriteString(" GROUP BY g")
		if r.Intn(3) == 0 {
			fmt.Fprintf(&sb, " HAVING COUNT(*) >= %d", r.Intn(3))
		}
		if r.Intn(2) == 0 {
			sb.WriteString(" ORDER BY m1 DESC, g")
		}
	} else {
		switch r.Intn(3) {
		case 0:
			sb.WriteString(" ORDER BY x")
		case 1:
			sb.WriteString(" ORDER BY y DESC, x")
		}
		if r.Intn(4) == 0 {
			fmt.Fprintf(&sb, " LIMIT %d", r.Intn(5))
		}
	}
	sb.WriteString(";")
	if into && grouped {
		sb.WriteString(" SELECT g, m2 FROM scratch, allnull;")
	} else if into {
		sb.WriteString(" SELECT y, x FROM scratch WHERE x IS NOT NULL;")
	}
	return sb.String()
}

// FuzzPlanMatchesRow drives randomQuery with the fuzz input as its random
// stream. Whatever query comes out, neither path may panic, and the
// compiled plan must agree with the row reference: equal results, or both
// fail.
func FuzzPlanMatchesRow(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3})
	f.Add([]byte("SELECT g, SUM(a) FROM t GROUP BY g"))
	f.Fuzz(func(t *testing.T, data []byte) {
		grouped := len(data) > 0 && data[0]%3 == 0
		runBothEngines(t, randomQuery(rand.New(&byteSource{data: data}), grouped), nil)
	})
}

// byteSource is a rand.Source that reads its stream from a byte slice, so
// the fuzzer's mutations steer the generator's choices; an exhausted slice
// reads as zeros.
type byteSource struct{ data []byte }

func (s *byteSource) Int63() int64 {
	var b [8]byte
	n := copy(b[:], s.data)
	s.data = s.data[n:]
	return int64(binary.LittleEndian.Uint64(b[:]) >> 1)
}

func (s *byteSource) Seed(int64) {}
