package sqlengine

import (
	"fmt"

	"fuzzyprophet/internal/value"
)

// ColTable is a named columnar relation: the engine's primary physical
// table layout. The Monte Carlo executor materializes the possible-worlds
// table in this form directly from the VG sample vectors (one float column
// per call site, no row transpose), and INTO targets of the vectorized
// executor are stored this way.
type ColTable struct {
	Name    string
	Cols    []string
	Columns []*Column
}

// NewColTable constructs a columnar table, validating the schema the same
// way NewTable does and additionally that every column has the same length.
func NewColTable(name string, cols []string, columns []*Column) (*ColTable, error) {
	if name == "" {
		return nil, fmt.Errorf("sqlengine: table needs a name")
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("sqlengine: table %q needs at least one column", name)
	}
	if len(columns) != len(cols) {
		return nil, fmt.Errorf("sqlengine: table %q has %d column vectors, want %d", name, len(columns), len(cols))
	}
	seen := map[string]bool{}
	for _, c := range cols {
		if seen[c] {
			return nil, fmt.Errorf("sqlengine: table %q has duplicate column %q", name, c)
		}
		seen[c] = true
	}
	n := columns[0].Len()
	for i, c := range columns {
		if c.Len() != n {
			return nil, fmt.Errorf("sqlengine: table %q column %q has %d rows, want %d", name, cols[i], c.Len(), n)
		}
	}
	return &ColTable{Name: name, Cols: cols, Columns: columns}, nil
}

// NumRows returns the number of rows.
func (ct *ColTable) NumRows() int {
	if len(ct.Columns) == 0 {
		return 0
	}
	return ct.Columns[0].Len()
}

// columnsFromRows converts a row table into columnar form, detecting a
// typed representation per column.
func columnsFromRows(t *Table) *ColTable {
	cols := make([]*Column, len(t.Cols))
	for j := range t.Cols {
		vals := make([]value.Value, len(t.Rows))
		for i, row := range t.Rows {
			vals[i] = row[j]
		}
		cols[j] = ValuesColumn(vals)
	}
	return &ColTable{Name: t.Name, Cols: append([]string(nil), t.Cols...), Columns: cols}
}
