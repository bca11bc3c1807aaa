package sqlengine_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"fuzzyprophet/internal/benchfix"
	"fuzzyprophet/internal/rng"
	"fuzzyprophet/internal/scenario"
	"fuzzyprophet/internal/sqlengine"
	"fuzzyprophet/internal/sqlparser"
)

// Scenario-level differential tests and the engine render benchmarks: the
// pure TSQL the Query Generator emits for the five example scenarios runs
// over a materialized possible-worlds table as a compiled plan and on the
// row reference executor. This
// is exactly the per-point render workload of the online mode, isolated
// from VG sampling cost.

// scenarioFixture is one compiled example scenario with its generated SQL
// and synthesized per-site world vectors.
type scenarioFixture struct {
	name    string
	script  *sqlparser.Script
	statics []*sqlengine.Table
	worlds  *sqlengine.ColTable
}

// buildScenarioFixtures compiles the bundled scenarios, generates the pure
// TSQL for their default points and materializes a worlds table with
// deterministic synthetic sample vectors (the engine does not care whether
// they came from a real VG-Function).
func buildScenarioFixtures(tb testing.TB, worlds int) []scenarioFixture {
	tb.Helper()
	reg, err := benchfix.Registry()
	if err != nil {
		tb.Fatal(err)
	}
	var out []scenarioFixture
	for _, name := range sqlparser.ExampleScenarioNames() {
		src := sqlparser.ExampleScenarios()[name]
		scn, err := scenario.Compile(src, reg)
		if err != nil {
			tb.Fatalf("%s: %v", name, err)
		}
		if name == "serverfleet" {
			regions, err := benchfix.RegionsTable()
			if err != nil {
				tb.Fatal(err)
			}
			if err := scn.AddTable(regions); err != nil {
				tb.Fatal(err)
			}
		}
		sql, err := scn.GenerateSQL(scn.DefaultPoint())
		if err != nil {
			tb.Fatalf("%s: %v", name, err)
		}
		script, err := sqlparser.Parse(sql)
		if err != nil {
			tb.Fatalf("%s: generated SQL does not parse: %v\n%s", name, err, sql)
		}
		cols := []string{scenario.WorldColumn}
		ord := make([]int64, worlds)
		for i := range ord {
			ord[i] = int64(i)
		}
		columns := []*sqlengine.Column{sqlengine.IntColumn(ord)}
		for si, site := range scn.Sites {
			samples := make([]float64, worlds)
			src := rng.Derive(20110612, "bench."+name+"."+site.ID, uint64(si))
			for i := range samples {
				// Magnitudes in the rough range of the demo models, so CASE
				// thresholds in the scenarios flip both ways.
				samples[i] = src.Normal(45000, 20000)
			}
			cols = append(cols, site.Column)
			columns = append(columns, sqlengine.FloatColumn(samples))
		}
		wt, err := sqlengine.NewColTable(scenario.WorldsTable, cols, columns)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, scenarioFixture{name: name, script: script, statics: scn.StaticTables, worlds: wt})
	}
	if len(out) != 5 {
		tb.Fatalf("expected the five example scenarios, got %d", len(out))
	}
	return out
}

func (f *scenarioFixture) engine() *sqlengine.Engine {
	cat := sqlengine.NewCatalog()
	for _, t := range f.statics {
		cat.Put(t)
	}
	cat.PutColumns(f.worlds)
	return sqlengine.New(cat)
}

// assertSameResults fails unless two results agree exactly (NULL matches
// only NULL).
func assertSameResults(tb testing.TB, name, labelA, labelB string, a, b *sqlengine.Result) {
	tb.Helper()
	if strings.Join(a.Cols, ",") != strings.Join(b.Cols, ",") {
		tb.Fatalf("%s: cols %v (%s) vs %v (%s)", name, a.Cols, labelA, b.Cols, labelB)
	}
	if len(a.Rows) != len(b.Rows) {
		tb.Fatalf("%s: %d rows (%s) vs %d rows (%s)", name, len(a.Rows), labelA, len(b.Rows), labelB)
	}
	for i := range a.Rows {
		for j := range a.Cols {
			av, bv := a.Rows[i][j], b.Rows[i][j]
			if av.IsNull() != bv.IsNull() || (!av.IsNull() && !av.Equal(bv)) {
				tb.Fatalf("%s: world %d col %s: %s %v vs %s %v", name, i, a.Cols[j], labelA, av, labelB, bv)
			}
		}
	}
}

// TestScenarioSQLDifferential renders every example scenario's generated
// TSQL as a compiled plan and on the row oracle and asserts identical
// per-world outputs.
func TestScenarioSQLDifferential(t *testing.T) {
	for _, f := range buildScenarioFixtures(t, 200) {
		rres, rerr := f.engine().ExecScriptRow(f.script, nil)
		if rerr != nil {
			t.Fatalf("%s: %v", f.name, rerr)
		}

		plan := sqlengine.CompileScript(f.script)
		e := f.engine()
		for pass := 0; pass < 2; pass++ { // second pass reuses warm buffers
			pres, perr := plan.Exec(e, nil)
			if perr != nil {
				t.Fatalf("%s (compiled pass %d): %v", f.name, pass, perr)
			}
			cres := pres.Result()
			pres.Release()
			assertSameResults(t, f.name, "compiled", "row", cres, rres)
		}
	}
}

// TestPlanMatchesGeneratedSQL asserts executing the compiled plan with
// parameter bindings is exactly the generated-SQL render: same columns,
// same per-world values.
func TestPlanMatchesGeneratedSQL(t *testing.T) {
	reg, err := benchfix.Registry()
	if err != nil {
		t.Fatal(err)
	}
	scn, err := scenario.Compile(sqlparser.ExampleScenarios()["capacityplanning"], reg)
	if err != nil {
		t.Fatal(err)
	}
	pt := scn.DefaultPoint()
	sql, err := scn.GenerateSQL(pt)
	if err != nil {
		t.Fatal(err)
	}
	script, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	// A tiny deterministic worlds table: the engine does not care that the
	// samples came from a test vector.
	worlds := 16
	cols := []string{scenario.WorldColumn}
	ord := make([]int64, worlds)
	demand := make([]float64, worlds)
	capacity := make([]float64, worlds)
	for i := 0; i < worlds; i++ {
		ord[i] = int64(i)
		demand[i] = float64(40000 + 1000*i)
		capacity[i] = float64(52000 - 500*i)
	}
	columns := []*sqlengine.Column{sqlengine.IntColumn(ord)}
	cols = append(cols, scn.Sites[0].Column, scn.Sites[1].Column)
	columns = append(columns, sqlengine.FloatColumn(demand), sqlengine.FloatColumn(capacity))
	wt, err := sqlengine.NewColTable(scenario.WorldsTable, cols, columns)
	if err != nil {
		t.Fatal(err)
	}
	mkEngine := func() *sqlengine.Engine {
		cat := sqlengine.NewCatalog()
		cat.PutColumns(wt)
		return sqlengine.New(cat)
	}
	ref, err := mkEngine().ExecScriptRow(script, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := scn.Plan().ExecCounted(mkEngine(), pt, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Release()
	if strings.Join(got.Cols, ",") != strings.Join(ref.Cols, ",") {
		t.Fatalf("cols %v vs %v", got.Cols, ref.Cols)
	}
	if got.NumRows() != len(ref.Rows) {
		t.Fatalf("%d vs %d rows", got.NumRows(), len(ref.Rows))
	}
	for i := range ref.Rows {
		for j := range got.Cols {
			a, b := got.Columns[j].Value(i), ref.Rows[i][j]
			if a.IsNull() != b.IsNull() || (!a.IsNull() && !a.Equal(b)) {
				t.Fatalf("world %d col %s: plan %v vs generated-SQL %v", i, got.Cols[j], a, b)
			}
		}
	}
}

// TestScenarioPlanConcurrentRenders exercises the render configuration the
// fpserver session manager runs: many goroutines executing ONE shared
// compiled plan (each with its own engine/catalog, as mc evaluators have).
// Run under -race this asserts the plan's pooled states are properly
// isolated; results must match the row oracle exactly.
func TestScenarioPlanConcurrentRenders(t *testing.T) {
	for _, f := range buildScenarioFixtures(t, 200) {
		rres, rerr := f.engine().ExecScriptRow(f.script, nil)
		if rerr != nil {
			t.Fatalf("%s: %v", f.name, rerr)
		}
		plan := sqlengine.CompileScript(f.script)
		const goroutines = 8
		const rendersEach = 10
		var wg sync.WaitGroup
		errCh := make(chan error, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				e := f.engine()
				for k := 0; k < rendersEach; k++ {
					pres, err := plan.Exec(e, nil)
					if err != nil {
						errCh <- fmt.Errorf("%s: %w", f.name, err)
						return
					}
					cres := pres.Result()
					pres.Release()
					if len(cres.Rows) != len(rres.Rows) {
						errCh <- fmt.Errorf("%s: %d vs %d rows", f.name, len(cres.Rows), len(rres.Rows))
						return
					}
					for i := range cres.Rows {
						for j := range cres.Cols {
							a, b := cres.Rows[i][j], rres.Rows[i][j]
							if a.IsNull() != b.IsNull() || (!a.IsNull() && !a.Equal(b)) {
								errCh <- fmt.Errorf("%s: world %d col %s: %v vs %v", f.name, i, cres.Cols[j], a, b)
								return
							}
						}
					}
				}
			}()
		}
		wg.Wait()
		select {
		case err := <-errCh:
			t.Fatal(err)
		default:
		}
	}
}

// BenchmarkEngineRender1000 times the 1000-world render path — parse-free
// execution of each scenario's generated TSQL — on the row reference
// executor and as a compiled plan (the Monte Carlo executor's
// configuration). CI runs it once per push; bench/ judges the plan's
// execution time end to end (sqlengine.plan_exec_us.*).
func BenchmarkEngineRender1000(b *testing.B) {
	for _, f := range buildScenarioFixtures(b, 1000) {
		for _, mode := range []string{"compiled", "row"} {
			b.Run(f.name+"/"+mode, func(b *testing.B) {
				e := f.engine()
				plan := sqlengine.CompileScript(f.script)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if mode == "row" {
						if _, err := e.ExecScriptRow(f.script, nil); err != nil {
							b.Fatal(err)
						}
						continue
					}
					res, err := plan.Exec(e, nil)
					if err != nil {
						b.Fatal(err)
					}
					res.Release()
				}
			})
		}
	}
}
