package sqlengine

import "testing"

// TestDifferentialGroupedShapes covers the grouped shapes randomQuery never
// emits, through runBothEngines. The grouped Plan evaluates in phases —
// HAVING over every group, the items over the groups HAVING keeps, the
// ORDER BY keys over the rows DISTINCT keeps — and each case pins one
// phase boundary against the row reference, which evaluates group by
// group. Over t, GROUP BY g makes four groups: x (a 1, NULL), y (a 2, 2),
// NULL (a 4, NULL) and z (a -7).
func TestDifferentialGroupedShapes(t *testing.T) {
	for _, q := range []string{
		// DISTINCT over grouped rows, with and without ORDER BY / LIMIT.
		"SELECT DISTINCT COUNT(*) AS n FROM t GROUP BY g;",
		"SELECT DISTINCT COUNT(*) AS n, MAX(flag) AS f FROM t GROUP BY g ORDER BY n DESC, f LIMIT 2;",
		// An ORDER BY aggregate absent from the items, and one that would
		// divide by zero only on groups DISTINCT drops (y and NULL repeat
		// x's count; their SUM(a) is 4).
		"SELECT g FROM t GROUP BY g ORDER BY SUM(a) DESC, g;",
		"SELECT g FROM t GROUP BY g ORDER BY COUNT(b), AVG(b) DESC LIMIT 3;",
		"SELECT DISTINCT COUNT(*) AS n FROM t GROUP BY g ORDER BY 1 / (SUM(a) - 4);",
		// A HAVING aggregate absent from the items, alone and beside item
		// aggregates.
		"SELECT g FROM t GROUP BY g HAVING MAX(b) > 1;",
		"SELECT g, COUNT(*) AS n FROM t GROUP BY g HAVING MIN(a) < 2 AND STDDEV(b) IS NOT NULL ORDER BY g;",
		// Chained aggregate aliases.
		"SELECT g, SUM(a) AS s, s * 2 AS d, d + COUNT(*) AS e FROM t GROUP BY g ORDER BY e, g;",
		"SELECT SUM(a) AS s, s / COUNT(a) AS mean, mean - AVG(a) AS zero FROM t;",
		// An item that divides by zero only in groups HAVING drops (x, NULL
		// and z have COUNT(a) = 1).
		"SELECT g, 1 / (COUNT(a) - 1) AS inv FROM t GROUP BY g HAVING COUNT(a) > 1;",
		// A group-level CASE guards a division per group.
		"SELECT g, CASE WHEN COUNT(a) = 1 THEN 0 ELSE 1 / (COUNT(a) - 1) END AS c FROM t GROUP BY g;",
		// ORDER BY a base column (the group's first row) and an item alias.
		"SELECT g, COUNT(*) AS n FROM t GROUP BY g ORDER BY s, n;",
		// HAVING drops every group; a GROUP BY over no rows.
		"SELECT g, COUNT(*) AS n FROM t GROUP BY g HAVING COUNT(*) > 5 ORDER BY n;",
		"SELECT g, SUM(a) AS s FROM t WHERE 1 = 0 GROUP BY g ORDER BY s;",
		// The one group of an aggregate over no rows: HAVING on it, and a
		// bare column (no representative row, so both fail).
		"SELECT COUNT(*) AS n, SUM(a) AS s FROM empty HAVING COUNT(*) = 0;",
		"SELECT COUNT(*) AS n FROM t WHERE a > 100 HAVING COUNT(*) > 0;",
		"SELECT a, COUNT(*) AS n FROM empty;",
		// HAVING does not see item aliases; aggregate arguments do not
		// either.
		"SELECT g, COUNT(*) AS n FROM t GROUP BY g HAVING n > 1;",
		"SELECT g, a + 1 AS x, SUM(x) AS s FROM t GROUP BY g;",
		// Aggregate errors in each phase.
		"SELECT g FROM t GROUP BY g HAVING SUM(s) > 0;",
		"SELECT g, SUM(SUM(a)) AS s FROM t GROUP BY g;",
		"SELECT g FROM t GROUP BY g ORDER BY MAX(*);",
		// A grouped INTO with DISTINCT, read back.
		"SELECT DISTINCT COUNT(*) AS n INTO counts FROM t GROUP BY g; SELECT n FROM counts ORDER BY n;",
	} {
		runBothEngines(t, q, nil)
	}
}
