package sqlengine_test

import (
	"testing"

	"fuzzyprophet/internal/benchfix"
	"fuzzyprophet/internal/scenario"
	"fuzzyprophet/internal/sqlengine"
	"fuzzyprophet/internal/sqlparser"
)

// Site arguments run as one-row Plans (scenario.Site.ArgValues). Their
// values and canonical key name a basis in the store, in spill manifests
// and in reuse snapshots, so they must not move by a byte against the row
// evaluator.

func compileExample(tb testing.TB, name string) *scenario.Scenario {
	tb.Helper()
	reg, err := benchfix.Registry()
	if err != nil {
		tb.Fatal(err)
	}
	scn, err := scenario.Compile(sqlparser.ExampleScenarios()[name], reg)
	if err != nil {
		tb.Fatalf("%s: %v", name, err)
	}
	return scn
}

// TestSiteArgValuesMatchRowEvaluator walks every shipped scenario's whole
// parameter space: each site's argument values must have the row
// evaluator's kinds and literals, and its key must be their canonical
// rendering.
func TestSiteArgValuesMatchRowEvaluator(t *testing.T) {
	for _, name := range sqlparser.ExampleScenarioNames() {
		scn := compileExample(t, name)
		points := scn.Space.Points()
		for _, pt := range points {
			for i := range scn.Sites {
				site := &scn.Sites[i]
				vals, key, err := site.ArgValues(pt)
				if err != nil {
					t.Fatalf("%s %s at %v: %v", name, site.ID, pt, err)
				}
				if len(vals) != len(site.Args) {
					t.Fatalf("%s %s: %d values for %d arguments", name, site.ID, len(vals), len(site.Args))
				}
				want := []byte{'('}
				for j, a := range site.Args {
					v, err := sqlengine.EvalConstRow(a, pt)
					if err != nil {
						t.Fatalf("%s %s argument %d at %v: row evaluator: %v", name, site.ID, j, pt, err)
					}
					got, ref := vals[j].AppendSQLLiteral(nil), v.AppendSQLLiteral(nil)
					if vals[j].Kind() != v.Kind() || string(got) != string(ref) {
						t.Fatalf("%s %s argument %d at %v: plan %s (kind %v), row %s (kind %v)",
							name, site.ID, j, pt, got, vals[j].Kind(), ref, v.Kind())
					}
					if j > 0 {
						want = append(want, ',')
					}
					want = append(want, ref...)
				}
				if want = append(want, ')'); key != string(want) {
					t.Fatalf("%s %s at %v: key %q, row evaluator's %q", name, site.ID, pt, key, want)
				}
			}
		}
		t.Logf("%s: %d points × %d sites", name, len(points), len(scn.Sites))
	}
}

// TestArgValuesAllocs bounds a warm ArgValues call on capacityplanning's
// sites at two allocations: the values slice and the key string. The
// one-row plan's buffers come from its pool.
func TestArgValuesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	scn := compileExample(t, "capacityplanning")
	pt := scn.DefaultPoint()
	for i := range scn.Sites {
		site := &scn.Sites[i]
		call := func() {
			if _, _, err := site.ArgValues(pt); err != nil {
				t.Fatal(err)
			}
		}
		call() // warm the plan's pool
		if allocs := testing.AllocsPerRun(200, call); allocs > 2 {
			t.Errorf("%s: %v allocs per ArgValues call, want at most 2", site.ID, allocs)
		}
	}
}
