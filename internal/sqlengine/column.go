package sqlengine

import (
	"fmt"

	"fuzzyprophet/internal/value"
)

// ColKind identifies the physical representation of a Column.
type ColKind uint8

// The supported column representations. Typed columns hold an unboxed
// vector plus an optional null bitmap; ColBoxed is the graceful-degradation
// representation for columns whose non-NULL values mix kinds (boxed values
// carry their own NULLs); ColNull is an all-NULL column with no backing
// storage.
const (
	ColNull ColKind = iota
	ColFloat
	ColInt
	ColString
	ColBool
	ColBoxed
)

// String returns the kind's name.
func (k ColKind) String() string {
	switch k {
	case ColNull:
		return "NULL"
	case ColFloat:
		return "FLOAT"
	case ColInt:
		return "INT"
	case ColString:
		return "STRING"
	case ColBool:
		return "BOOL"
	case ColBoxed:
		return "BOXED"
	default:
		return fmt.Sprintf("ColKind(%d)", uint8(k))
	}
}

// bitmap is a fixed-size bit set used as a column null bitmap: bit i set
// means row i is NULL.
type bitmap []uint64

func newBitmap(n int) bitmap { return make(bitmap, (n+63)/64) }

func (b bitmap) get(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

func (b bitmap) set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

func (b bitmap) setAll(n int) {
	for i := range b {
		b[i] = ^uint64(0)
	}
	// Clear the tail bits past n so any() stays exact.
	if tail := n & 63; tail != 0 && len(b) > 0 {
		b[len(b)-1] = (1 << uint(tail)) - 1
	}
}

func (b bitmap) clear(i int) { b[i>>6] &^= 1 << (uint(i) & 63) }

func (b bitmap) any() bool {
	for _, w := range b {
		if w != 0 {
			return true
		}
	}
	return false
}

// Column is one typed vector of a columnar table or intermediate result:
// the unit of work of the engine. Columns are immutable once built, so they
// may be shared freely between catalog tables, intermediate relations and
// results; the exception is a Plan's pooled output buffers, which are
// rewritten after the execution's PlanResult is released.
type Column struct {
	kind  ColKind
	n     int
	f     []float64
	i     []int64
	s     []string
	b     []bool
	v     []value.Value
	nulls bitmap // nil when the column has no NULLs (typed kinds only)
}

// FloatColumn wraps a float64 vector as a column without copying. The
// caller must not mutate vals afterwards.
func FloatColumn(vals []float64) *Column {
	return &Column{kind: ColFloat, n: len(vals), f: vals}
}

// SetFloats repoints c at vals as a no-null float column, reusing the
// header allocation. It is the update-in-place companion of FloatColumn for
// owners of long-lived tables (the Monte Carlo executor's per-point worlds
// table); the column must not be concurrently read while repointed.
func (c *Column) SetFloats(vals []float64) {
	*c = Column{kind: ColFloat, n: len(vals), f: vals}
}

// SetInts is SetFloats for int64 vectors.
func (c *Column) SetInts(vals []int64) {
	*c = Column{kind: ColInt, n: len(vals), i: vals}
}

// IntColumn wraps an int64 vector as a column without copying.
func IntColumn(vals []int64) *Column {
	return &Column{kind: ColInt, n: len(vals), i: vals}
}

// BoolColumn wraps a bool vector as a column without copying.
func BoolColumn(vals []bool) *Column {
	return &Column{kind: ColBool, n: len(vals), b: vals}
}

// nullColumn returns an all-NULL column of length n.
func nullColumn(n int) *Column { return &Column{kind: ColNull, n: n} }

// ValuesColumn builds a column from boxed values, choosing the densest
// representation that preserves every value exactly: a single non-NULL kind
// yields a typed vector (with a null bitmap when needed); mixed kinds —
// including INT mixed with FLOAT, whose distinction the row engine
// preserves — fall back to the boxed representation.
func ValuesColumn(vals []value.Value) *Column {
	n := len(vals)
	kind := ColNull
	for _, v := range vals {
		var k ColKind
		switch v.Kind() {
		case value.KindNull:
			continue
		case value.KindInt:
			k = ColInt
		case value.KindFloat:
			k = ColFloat
		case value.KindString:
			k = ColString
		case value.KindBool:
			k = ColBool
		default:
			k = ColBoxed
		}
		if kind == ColNull {
			kind = k
		} else if kind != k {
			kind = ColBoxed
			break
		}
	}
	switch kind {
	case ColNull:
		return nullColumn(n)
	case ColBoxed:
		return &Column{kind: ColBoxed, n: n, v: vals}
	}
	c := &Column{kind: kind, n: n}
	var nulls bitmap
	switch kind {
	case ColInt:
		c.i = make([]int64, n)
	case ColFloat:
		c.f = make([]float64, n)
	case ColString:
		c.s = make([]string, n)
	case ColBool:
		c.b = make([]bool, n)
	}
	for idx, v := range vals {
		if v.IsNull() {
			if nulls == nil {
				nulls = newBitmap(n)
			}
			nulls.set(idx)
			continue
		}
		switch kind {
		case ColInt:
			c.i[idx], _ = v.AsInt()
		case ColFloat:
			c.f[idx], _ = v.AsFloat()
		case ColString:
			c.s[idx] = v.AsString()
		case ColBool:
			c.b[idx], _ = v.AsBool()
		}
	}
	c.nulls = nulls
	return c
}

// Len returns the number of rows.
func (c *Column) Len() int { return c.n }

// IsNull reports whether row i is NULL.
func (c *Column) IsNull(i int) bool {
	switch c.kind {
	case ColNull:
		return true
	case ColBoxed:
		return c.v[i].IsNull()
	default:
		return c.nulls != nil && c.nulls.get(i)
	}
}

// Value boxes row i.
func (c *Column) Value(i int) value.Value {
	if c.IsNull(i) {
		return value.Null
	}
	switch c.kind {
	case ColFloat:
		return value.Float(c.f[i])
	case ColInt:
		return value.Int(c.i[i])
	case ColString:
		return value.Str(c.s[i])
	case ColBool:
		return value.Bool(c.b[i])
	case ColBoxed:
		return c.v[i]
	default:
		return value.Null
	}
}

// hasNulls reports whether any row is NULL.
func (c *Column) hasNulls() bool {
	switch c.kind {
	case ColNull:
		return c.n > 0
	case ColBoxed:
		for _, v := range c.v {
			if v.IsNull() {
				return true
			}
		}
		return false
	default:
		return c.nulls != nil && c.nulls.any()
	}
}

// AllStrings reports whether every row is a non-NULL string — the
// categorical-column test the Monte Carlo executor uses to skip columns
// with no distribution to aggregate.
func (c *Column) AllStrings() bool {
	switch c.kind {
	case ColString:
		return !c.hasNulls()
	case ColBoxed:
		for _, v := range c.v {
			if v.Kind() != value.KindString {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// Float64s converts the column to a fresh float64 vector, applying the
// value system's numeric coercions per row (bools become 0/1, numeric
// strings parse). A NULL or non-numeric row is an error naming the row.
func (c *Column) Float64s() ([]float64, error) {
	out := make([]float64, c.n)
	switch c.kind {
	case ColFloat:
		if c.nulls == nil || !c.nulls.any() {
			copy(out, c.f)
			return out, nil
		}
	case ColInt:
		if c.nulls == nil || !c.nulls.any() {
			for i, v := range c.i {
				out[i] = float64(v)
			}
			return out, nil
		}
	}
	for i := 0; i < c.n; i++ {
		f, err := c.Value(i).AsFloat()
		if err != nil {
			return nil, fmt.Errorf("row %d: %w", i, err)
		}
		out[i] = f
	}
	return out, nil
}

// gather returns a new column holding rows idx[0], idx[1], … of c; -1
// entries produce NULL rows (LEFT JOIN padding for the null-extended side).
func (c *Column) gather(idx []int) *Column {
	return gatherPadInto(new(colSlot), c, idx)
}

// appendKey appends row i's canonical grouping key to dst — the same
// encoding as value.AppendKey, so the row and columnar engines group and
// de-duplicate identically.
func (c *Column) appendKey(dst []byte, i int) []byte {
	if c.IsNull(i) {
		return value.AppendNullKey(dst)
	}
	switch c.kind {
	case ColFloat:
		return value.AppendFloatKey(dst, c.f[i])
	case ColInt:
		return value.AppendFloatKey(dst, float64(c.i[i]))
	case ColString:
		return value.AppendStringKey(dst, c.s[i])
	case ColBool:
		return value.AppendBoolKey(dst, c.b[i])
	default:
		return value.AppendKey(dst, c.Value(i))
	}
}

// isTypedNumeric reports whether the column is an unboxed numeric vector.
func (c *Column) isTypedNumeric() bool { return c.kind == ColFloat || c.kind == ColInt }

// floats returns the rows as a float64 view: the backing vector for
// ColFloat (not to be mutated), a converted copy for ColInt. Only valid for
// typed numeric columns; NULL rows hold unspecified values.
func (c *Column) floats() []float64 {
	if c.kind == ColFloat {
		return c.f
	}
	out := make([]float64, c.n)
	for i, v := range c.i {
		out[i] = float64(v)
	}
	return out
}
