package scenario

import (
	"slices"
	"testing"

	"fuzzyprophet/internal/benchfix"
	"fuzzyprophet/internal/sqlparser"
)

// TestPassThrough: an output column passes a site's vector through exactly
// when its item is the bare VG call and the query keeps every world row
// once, in world order. Any expression over the call, a filter, a join, a
// grouping or a row-order change passes nothing through.
func TestPassThrough(t *testing.T) {
	reg, err := benchfix.Registry()
	if err != nil {
		t.Fatal(err)
	}
	const params = "DECLARE PARAMETER @current AS RANGE 0 TO 52 STEP BY 1;\n" +
		"DECLARE PARAMETER @p AS RANGE 0 TO 48 STEP BY 8;\n"
	examples := sqlparser.ExampleScenarios()
	for _, tc := range []struct {
		name string
		src  string
		want []int // per output column: a site index, or -1
	}{
		// demand and capacity are the two sites; overload is an expression.
		{"capacityplanning", examples["capacityplanning"], []int{0, 1, -1}},
		{"featurerelease", examples["featurerelease"], []int{0, -1, -1}},
		{"pricing", examples["pricing"], []int{0, 1}},
		{"quickstart", examples["quickstart"], []int{0, -1, -1}},
		// A cross join with the regions table repeats every world.
		{"serverfleet", examples["serverfleet"], []int{-1, -1, -1, -1}},
		{"expression over the call", params +
			"SELECT CapacityModel(@current, @p, @p) + 0 AS c;", []int{-1}},
		{"where filter", params +
			"SELECT CapacityModel(@current, @p, @p) AS c WHERE c > 0;", []int{-1}},
		{"static-table join", params +
			"SELECT CapacityModel(@current, @p, @p) AS c, share FROM regions;", []int{-1, -1}},
		{"group by", params +
			"SELECT CapacityModel(@current, @p, @p) AS c GROUP BY c;", []int{-1}},
		{"distinct", params +
			"SELECT DISTINCT CapacityModel(@current, @p, @p) AS c;", []int{-1}},
		{"order by", params +
			"SELECT CapacityModel(@current, @p, @p) AS c ORDER BY c;", []int{-1}},
		{"limit", params +
			"SELECT CapacityModel(@current, @p, @p) AS c LIMIT 10;", []int{-1}},
		{"same call twice", params +
			"SELECT DemandModel(@current, 12) AS a, CapacityModel(@current, @p, @p) AS c, DemandModel(@current, 12) AS b;",
			[]int{0, 1, 0}},
		{"shared output name", params +
			"SELECT DemandModel(@current, 12) AS x, CapacityModel(@current, @p, @p) AS x;", []int{-1, -1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			scn, err := Compile(tc.src, reg)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(scn.PassThrough, tc.want) {
				t.Fatalf("PassThrough = %v, want %v (outputs %v)", scn.PassThrough, tc.want, scn.OutputCols)
			}
			for i, si := range scn.PassThrough {
				if si >= 0 && scn.Exec.Items[i].Expr != (sqlparser.ColumnRef{Name: scn.Sites[si].Column}) {
					t.Errorf("column %s passes through %s but reads %s", scn.OutputCols[i], scn.Sites[si].Column, scn.Exec.Items[i].Expr.SQL())
				}
			}
		})
	}
}
