// Package sqlengine is the relational substrate standing in for the paper's
// Microsoft SQL Server install: an in-memory engine that evaluates the pure
// TSQL batches Fuzzy Prophet's Query Generator produces.
//
// The engine supports the dialect subset of package sqlparser: SELECT with
// projection (including the dialect's left-to-right alias visibility),
// FROM over catalog tables with cross and inner joins, WHERE, GROUP BY with
// the standard aggregates plus the probabilistic aggregates EXPECT,
// EXPECT_STDDEV and PROB, HAVING, ORDER BY, LIMIT and INTO materialization.
//
// The probabilistic aggregates are defined over a *worlds* axis: the Query
// Generator lays Monte Carlo worlds out as rows, so within the engine
// EXPECT(x) ≡ AVG(x), EXPECT_STDDEV(x) ≡ STDDEV(x) and PROB(x) ≡ AVG(x) of
// a 0/1 indicator — the engine implements them under their own names so
// queries stay faithful to the paper's surface syntax.
//
// Execution is columnar: tables store typed column vectors (Column) with
// null bitmaps, and every SELECT compiles to a Plan (plan.go) whose one
// expression operator (veval.go) evaluates WHERE, select items, HAVING,
// ORDER BY keys, join conditions and aggregate arguments into pooled
// buffers. Filters produce selection vectors instead of copied rows, and
// expressions and aggregates run over whole vectors in tight loops.
// Constant expressions — VG site arguments, OPTIMIZE constraints — run as
// Plans with no FROM, over the one-row relation such a Plan binds. That
// operator is the only expression evaluator outside tests: the row-at-a-time
// executor the differential suite checks the Plan against lives in the
// package's _test.go files.
package sqlengine

import (
	"fmt"
	"sync"

	"fuzzyprophet/internal/value"
)

// Table is a named in-memory relation in row layout: the convenience
// construction API (tests, static side tables). The catalog converts it to
// columnar form once, when it is put.
type Table struct {
	Name string
	Cols []string
	Rows [][]value.Value
}

// NewTable constructs a table, validating that all rows match the column
// count.
func NewTable(name string, cols []string, rows [][]value.Value) (*Table, error) {
	if name == "" {
		return nil, fmt.Errorf("sqlengine: table needs a name")
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("sqlengine: table %q needs at least one column", name)
	}
	seen := map[string]bool{}
	for _, c := range cols {
		if seen[c] {
			return nil, fmt.Errorf("sqlengine: table %q has duplicate column %q", name, c)
		}
		seen[c] = true
	}
	for i, r := range rows {
		if len(r) != len(cols) {
			return nil, fmt.Errorf("sqlengine: table %q row %d has %d values, want %d", name, i, len(r), len(cols))
		}
	}
	return &Table{Name: name, Cols: cols, Rows: rows}, nil
}

// Catalog is a thread-safe name → table map over columnar storage.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*ColTable
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: make(map[string]*ColTable)}
}

// Put stores or replaces a table given in row form, converting it to
// columns.
func (c *Catalog) Put(t *Table) {
	c.PutColumns(columnsFromRows(t))
}

// PutColumns stores or replaces a table given in columnar form — the
// zero-transpose path the Monte Carlo executor uses for the possible-worlds
// table. The columns must not be mutated afterwards.
func (c *Catalog) PutColumns(ct *ColTable) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tables[ct.Name] = ct
}

// GetColumns returns the named table.
func (c *Catalog) GetColumns(name string) (*ColTable, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ct, ok := c.tables[name]
	return ct, ok
}

// Engine evaluates SELECT statements against a catalog: a Plan executes
// over the engine it is given, binding its FROM tables by name.
type Engine struct {
	Catalog *Catalog
}

// New returns an engine over the given catalog.
func New(catalog *Catalog) *Engine { return &Engine{Catalog: catalog} }

// colBinding names one column of an intermediate relation, qualified by the
// table alias it came from ("" for computed columns).
type colBinding struct {
	table string
	name  string
}

// lookupBinding resolves a (table, name) reference against a schema.
// Unqualified names must be unambiguous. The Plan and the test-side row
// executor both resolve through it, so name-resolution errors are identical.
func lookupBinding(schema []colBinding, table, name string) (int, error) {
	found := -1
	for i, b := range schema {
		if b.name != name {
			continue
		}
		if table != "" && b.table != table {
			continue
		}
		if found >= 0 {
			return -1, fmt.Errorf("sqlengine: ambiguous column reference %q", name)
		}
		found = i
	}
	if found < 0 {
		if table != "" {
			return -1, fmt.Errorf("sqlengine: unknown column %s.%s", table, name)
		}
		return -1, fmt.Errorf("sqlengine: unknown column %q", name)
	}
	return found, nil
}

// findBinding is lookupBinding without error construction: it returns -1
// for unknown or ambiguous references. Hot callers that only need to know
// whether a reference resolves (the compiled plans' bind pass) use it to
// stay allocation-free; lookupBinding still produces the user-facing error.
func findBinding(schema []colBinding, table, name string) int {
	found := -1
	for i, b := range schema {
		if b.name != name {
			continue
		}
		if table != "" && b.table != table {
			continue
		}
		if found >= 0 {
			return -1 // ambiguous
		}
		found = i
	}
	return found
}
