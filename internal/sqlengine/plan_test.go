package sqlengine_test

import (
	"strings"
	"testing"

	"fuzzyprophet/internal/sqlengine"
	"fuzzyprophet/internal/sqlparser"
	"fuzzyprophet/internal/value"
)

// TestPlanAllocationFree asserts the compiled render path performs (near)
// zero allocations per execution after warm-up. The bound is deliberately
// loose (sync.Pool may be drained by a concurrent GC);
// BenchmarkEngineRender1000 reports the exact counts.
func TestPlanAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	for _, f := range buildScenarioFixtures(t, 1000) {
		plan := sqlengine.CompileScript(f.script)
		e := f.engine()
		run := func() {
			res, err := plan.Exec(e, nil)
			if err != nil {
				t.Fatal(err)
			}
			res.Release()
		}
		run() // warm up buffers and pools
		allocs := testing.AllocsPerRun(50, run)
		if allocs > 8 {
			t.Errorf("%s: %v allocs per compiled execution, want (near) zero", f.name, allocs)
		}
	}
}

// TestPlanBufferReuse asserts consecutive executions reuse the same
// backing buffers (the allocation-free mechanism) and still produce
// correct, stable results.
func TestPlanBufferReuse(t *testing.T) {
	for _, f := range buildScenarioFixtures(t, 100) {
		plan := sqlengine.CompileScript(f.script)
		e := f.engine()
		ref, err := plan.Exec(e, nil)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		want := ref.Result()
		ref.Release()
		for pass := 0; pass < 3; pass++ {
			res, err := plan.Exec(e, nil)
			if err != nil {
				t.Fatalf("%s pass %d: %v", f.name, pass, err)
			}
			got := res.Result()
			res.Release()
			if strings.Join(got.Cols, ",") != strings.Join(want.Cols, ",") {
				t.Fatalf("%s pass %d: cols %v vs %v", f.name, pass, got.Cols, want.Cols)
			}
			if len(got.Rows) != len(want.Rows) {
				t.Fatalf("%s pass %d: %d vs %d rows", f.name, pass, len(got.Rows), len(want.Rows))
			}
			for i := range got.Rows {
				for j := range got.Cols {
					a, b := got.Rows[i][j], want.Rows[i][j]
					if a.IsNull() != b.IsNull() || (!a.IsNull() && !a.Equal(b)) {
						t.Fatalf("%s pass %d row %d col %s: %v vs %v", f.name, pass, i, got.Cols[j], a, b)
					}
				}
			}
		}
	}
}

// TestIntoTableDetachedFromPlanBuffers: the table an INTO registers must
// not alias the plan's pooled buffers — the next execution of the same plan
// (here on another engine, with another binding) would rewrite it.
func TestIntoTableDetachedFromPlanBuffers(t *testing.T) {
	script, err := sqlparser.Parse("SELECT w + @k AS v INTO snap FROM fact;")
	if err != nil {
		t.Fatal(err)
	}
	plan := sqlengine.CompileScript(script)
	engine := func() *sqlengine.Engine {
		fact, err := sqlengine.NewColTable("fact", []string{"w"}, []*sqlengine.Column{sqlengine.IntColumn([]int64{0, 1, 2, 3})})
		if err != nil {
			t.Fatal(err)
		}
		cat := sqlengine.NewCatalog()
		cat.PutColumns(fact)
		return sqlengine.New(cat)
	}
	first, second := engine(), engine()
	for _, run := range []struct {
		e *sqlengine.Engine
		k int64
	}{{first, 1}, {second, 100}} {
		res, err := plan.Exec(run.e, map[string]value.Value{"k": value.Int(run.k)})
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
	}
	snap, ok := first.Catalog.GetColumns("snap")
	if !ok {
		t.Fatal("INTO did not register snap")
	}
	for i := 0; i < snap.NumRows(); i++ {
		if got := snap.Columns[0].Value(i); !got.Equal(value.Int(int64(i) + 1)) {
			t.Fatalf("snap.v[%d] = %v after a later execution, want %d", i, got, i+1)
		}
	}
}
