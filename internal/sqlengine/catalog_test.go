package sqlengine

import (
	"math"
	"testing"

	"fuzzyprophet/internal/value"
)

// sameCell reports exact equality, kind included: Int(3) differs from
// Float(3), -0 from +0, and NaN equals only NaN with the same bits.
func sameCell(a, b value.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case value.KindNull:
		return true
	case value.KindInt:
		x, _ := a.AsInt()
		y, _ := b.AsInt()
		return x == y
	case value.KindFloat:
		x, _ := a.AsFloat()
		y, _ := b.AsFloat()
		return math.Float64bits(x) == math.Float64bits(y)
	case value.KindString:
		return a.AsString() == b.AsString()
	default:
		x, _ := a.AsBool()
		y, _ := b.AsBool()
		return x == y
	}
}

// TestCatalogPutRoundTrip: Put converts a row table to columns once, and
// every later read — the Plan's columns and the row executor's rows — sees
// each cell exactly as it was put. The fixtures carry the conversion's edge
// cases: an INT/FLOAT mix, integers beyond 2^53, -0, NaN, infinities,
// NULLs in every kind, an all-NULL column and an empty table.
func TestCatalogPutRoundTrip(t *testing.T) {
	null := value.Null
	negZero := math.Copysign(0, -1)
	tables := []struct {
		tbl   *Table
		kinds []ColKind
	}{
		{mustTable(t, "mixed", []string{"m", "i", "f"}, [][]value.Value{
			{value.Int(10), value.Int(1), value.Float(1.5)},
			{value.Float(2.5), null, value.Float(negZero)},
			{value.Int(7), value.Int(-3), null},
			{null, value.Int(0), value.Float(0)},
			{value.Float(-1), value.Int(4), value.Float(math.NaN())},
			{value.Int(3), value.Int(5), value.Float(math.Inf(-1))},
			{value.Float(3), value.Int(6), value.Float(math.Inf(1))},
		}), []ColKind{ColBoxed, ColInt, ColFloat}},
		{mustTable(t, "bigint", []string{"v", "w"}, [][]value.Value{
			{value.Int(9007199254740993), value.Int(math.MaxInt64)},
			{value.Int(9007199254740992), value.Int(math.MinInt64)},
			{value.Int(-9007199254740993), value.Float(9007199254740992)},
			{null, value.Int(9007199254740993)},
		}), []ColKind{ColInt, ColBoxed}},
		{mustTable(t, "kinds", []string{"s", "b", "n"}, [][]value.Value{
			{value.Str("x"), value.Bool(true), null},
			{value.Str(""), null, null},
			{null, value.Bool(false), null},
		}), []ColKind{ColString, ColBool, ColNull}},
		{mustTable(t, "empty", []string{"a", "b"}, nil), []ColKind{ColNull, ColNull}},
	}
	cat := NewCatalog()
	for _, tc := range tables {
		cat.Put(tc.tbl)
	}
	// The catalog owns its copy: rewriting the source rows after Put must
	// not reach it.
	want := map[string][][]value.Value{}
	for _, tc := range tables {
		rows := make([][]value.Value, len(tc.tbl.Rows))
		for i, r := range tc.tbl.Rows {
			rows[i] = append([]value.Value(nil), r...)
			for j := range r {
				r[j] = value.Str("overwritten")
			}
		}
		want[tc.tbl.Name] = rows
	}
	for _, tc := range tables {
		name := tc.tbl.Name
		ct, ok := cat.GetColumns(name)
		if !ok {
			t.Fatalf("%s: not in catalog", name)
		}
		rt, ok := cat.Get(name)
		if !ok {
			t.Fatalf("%s: Get missed", name)
		}
		rows := want[name]
		if ct.NumRows() != len(rows) || len(rt.Rows) != len(rows) {
			t.Fatalf("%s: %d column rows, %d boxed rows, want %d", name, ct.NumRows(), len(rt.Rows), len(rows))
		}
		for j, col := range ct.Columns {
			if col.kind != tc.kinds[j] {
				t.Errorf("%s.%s: stored as %v, want %v", name, ct.Cols[j], col.kind, tc.kinds[j])
			}
			for i, w := range rows {
				if got := col.Value(i); !sameCell(got, w[j]) {
					t.Errorf("%s.%s row %d: column holds %v (%v), want %v (%v)", name, ct.Cols[j], i, got, got.Kind(), w[j], w[j].Kind())
				}
				if got := rt.Rows[i][j]; !sameCell(got, w[j]) {
					t.Errorf("%s.%s row %d: Get returns %v (%v), want %v (%v)", name, ct.Cols[j], i, got, got.Kind(), w[j], w[j].Kind())
				}
			}
		}
	}
}
