package sqlengine_test

import (
	"os"
	"path/filepath"
	"testing"

	"fuzzyprophet/internal/colstore"
	"fuzzyprophet/internal/sqlengine"
	"fuzzyprophet/internal/sqlparser"
)

// TestPlanOverMappedColumn: a float column backed by a memory-mapped
// spill-tier view (colstore.Mapped.Float64s — a read-only PROT_READ
// mapping on unix) executes through a compiled plan identically to the
// same data in a heap slice. This is the contract the storage spill tier
// relies on when it feeds promoted bases straight into the worlds table:
// plan kernels only READ input columns, so zero-copy views are safe.
func TestPlanOverMappedColumn(t *testing.T) {
	const rows = 512
	heap := make([]float64, rows)
	ord := make([]int64, rows)
	for i := range heap {
		heap[i] = float64(i)*0.25 - 30
		ord[i] = int64(i)
	}
	path := filepath.Join(t.TempDir(), "load.col")
	data, err := colstore.Encode(&colstore.Column{Kind: colstore.KindFloat64, Floats: heap})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := colstore.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	mapped, err := m.Float64s()
	if err != nil {
		t.Fatal(err)
	}

	script, err := sqlparser.Parse("SELECT fact.w, fact.load * 2.0 + 1.0 AS scaled FROM fact WHERE fact.load > 0.0;")
	if err != nil {
		t.Fatal(err)
	}
	plan := sqlengine.CompileScript(script)

	exec := func(vals []float64) [][]float64 {
		t.Helper()
		fact, err := sqlengine.NewColTable("fact", []string{"w", "load"}, []*sqlengine.Column{
			sqlengine.IntColumn(ord), sqlengine.FloatColumn(vals),
		})
		if err != nil {
			t.Fatal(err)
		}
		cat := sqlengine.NewCatalog()
		cat.PutColumns(fact)
		res, err := plan.Exec(sqlengine.New(cat), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Release()
		var out [][]float64
		for _, col := range []string{"w", "scaled"} {
			c, err := res.Column(col)
			if err != nil {
				t.Fatal(err)
			}
			fs, err := c.Float64s()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, append([]float64(nil), fs...))
		}
		return out
	}

	want := exec(heap)
	got := exec(mapped)
	if len(want[0]) == 0 {
		t.Fatal("query produced no rows")
	}
	for c := range want {
		if len(got[c]) != len(want[c]) {
			t.Fatalf("column %d: %d rows over mapped input, want %d", c, len(got[c]), len(want[c]))
		}
		for i := range want[c] {
			if got[c][i] != want[c][i] {
				t.Fatalf("column %d row %d = %v over mapped input, want %v", c, i, got[c][i], want[c][i])
			}
		}
	}
	// The mapped slice itself must be untouched (kernels never write input
	// columns — a write to a PROT_READ mapping would have faulted anyway).
	for i := range heap {
		if mapped[i] != heap[i] {
			t.Fatalf("mapped input mutated at %d", i)
		}
	}
}
