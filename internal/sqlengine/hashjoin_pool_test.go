package sqlengine_test

import (
	"testing"

	"fuzzyprophet/internal/sqlengine"
	"fuzzyprophet/internal/sqlparser"
	"fuzzyprophet/internal/value"
)

// equiJoinFixture builds a worlds-like fact table joined to a small
// dimension on an equality key — the shape whose build table the compiled
// plan pools.
func equiJoinFixture(t *testing.T, rows int) (*sqlengine.Engine, *sqlparser.Script) {
	t.Helper()
	ord := make([]int64, rows)
	key := make([]value.Value, rows)
	val := make([]float64, rows)
	regions := []string{"us-east", "us-west", "europe", "asia"}
	for i := range ord {
		ord[i] = int64(i)
		key[i] = value.Str(regions[i%len(regions)])
		val[i] = float64(i) * 1.5
	}
	fact, err := sqlengine.NewColTable("fact", []string{"w", "region", "load"}, []*sqlengine.Column{
		sqlengine.IntColumn(ord), sqlengine.ValuesColumn(key), sqlengine.FloatColumn(val),
	})
	if err != nil {
		t.Fatal(err)
	}
	dim, err := sqlengine.NewTable("dim", []string{"region", "cap"}, [][]value.Value{
		{value.Str("us-east"), value.Float(100)},
		{value.Str("us-west"), value.Float(80)},
		{value.Str("europe"), value.Float(60)},
		{value.Str("asia"), value.Float(40)},
	})
	if err != nil {
		t.Fatal(err)
	}
	cat := sqlengine.NewCatalog()
	cat.PutColumns(fact)
	cat.Put(dim)
	script, err := sqlparser.Parse("SELECT fact.w, fact.load, dim.cap FROM fact JOIN dim ON fact.region = dim.region;")
	if err != nil {
		t.Fatal(err)
	}
	return sqlengine.New(cat), script
}

// TestEquiJoinPlanPooledBuild: repeated executions of a compiled equi-join
// plan reuse the pooled build table — the per-build-row key-string
// allocations are gone, leaving only the per-distinct-key map inserts.
func TestEquiJoinPlanPooledBuild(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	e, script := equiJoinFixture(t, 512)
	plan := sqlengine.CompileScript(script)
	run := func() {
		res, err := plan.Exec(e, nil)
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
	}
	run() // warm up
	allocs := testing.AllocsPerRun(50, run)
	// 4 distinct keys re-inserted per execution plus small fixed slack; the
	// old per-build-row encoding allocated >512.
	if allocs > 16 {
		t.Errorf("equi-join plan: %v allocs per execution, want <= 16 (pooled build table)", allocs)
	}
}

// TestEquiJoinPlanStableAcrossExecutions: the pooled build state must not
// leak rows between executions — three consecutive runs produce identical
// results.
func TestEquiJoinPlanStableAcrossExecutions(t *testing.T) {
	e, script := equiJoinFixture(t, 64)
	plan := sqlengine.CompileScript(script)
	ref, err := plan.Exec(e, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Result()
	ref.Release()
	if len(want.Rows) != 64 {
		t.Fatalf("join produced %d rows, want 64", len(want.Rows))
	}
	for pass := 0; pass < 3; pass++ {
		res, err := plan.Exec(e, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := res.Result()
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("pass %d: %d rows, want %d", pass, len(got.Rows), len(want.Rows))
		}
		for i := range got.Rows {
			for j := range got.Cols {
				if !got.Rows[i][j].Equal(want.Rows[i][j]) {
					t.Fatalf("pass %d row %d col %d: %v != %v", pass, i, j, got.Rows[i][j], want.Rows[i][j])
				}
			}
		}
		res.Release()
	}
}
