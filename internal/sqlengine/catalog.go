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
// null bitmaps, and every SELECT compiles to a Plan (plan.go) — pre-bound
// operator kernels over pooled buffers, with a general-expression operator
// (veval.go) for everything the kernel compiler does not specialize. Filters
// produce selection vectors instead of copied rows, and expressions and
// aggregates run over whole vectors in tight loops. The original
// row-at-a-time executor (exec.go, eval.go) is retained as the semantic
// reference for differential testing and as the before-measurement of the
// engine benchmark, reached only through ExecScriptRow / ExecSelectRow; the
// Table rows API remains as a thin compatibility shim over the columnar
// storage.
package sqlengine

import (
	"fmt"
	"sync"

	"fuzzyprophet/internal/value"
)

// Table is a named in-memory relation in the legacy row layout. It remains
// the convenience construction API (tests, static side tables); the catalog
// converts it to columnar form on demand and caches both layouts.
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

// catEntry holds a catalog table in up to two layouts; whichever was not
// supplied at Put time is materialized lazily and cached.
type catEntry struct {
	rows *Table
	cols *ColTable
}

// Catalog is a thread-safe name → table map over columnar storage.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*catEntry
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: make(map[string]*catEntry)}
}

// Put stores or replaces a table given in row form. The table must not be
// mutated afterwards.
func (c *Catalog) Put(t *Table) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tables[t.Name] = &catEntry{rows: t}
}

// PutColumns stores or replaces a table given in columnar form — the
// zero-transpose path the Monte Carlo executor uses for the possible-worlds
// table. The columns must not be mutated afterwards.
func (c *Catalog) PutColumns(ct *ColTable) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tables[ct.Name] = &catEntry{cols: ct}
}

// Get returns the named table in row form, converting from columnar
// storage on first access.
func (c *Catalog) Get(name string) (*Table, bool) {
	c.mu.RLock()
	e, ok := c.tables[name]
	if ok && e.rows != nil {
		c.mu.RUnlock()
		return e.rows, true
	}
	c.mu.RUnlock()
	if !ok {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok = c.tables[name]
	if !ok {
		return nil, false
	}
	if e.rows == nil {
		e.rows = rowsFromColumns(e.cols)
	}
	return e.rows, true
}

// GetColumns returns the named table in columnar form, converting from row
// storage on first access.
func (c *Catalog) GetColumns(name string) (*ColTable, bool) {
	c.mu.RLock()
	e, ok := c.tables[name]
	if ok && e.cols != nil {
		c.mu.RUnlock()
		return e.cols, true
	}
	c.mu.RUnlock()
	if !ok {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok = c.tables[name]
	if !ok {
		return nil, false
	}
	if e.cols == nil {
		e.cols = columnsFromRows(e.rows)
	}
	return e.cols, true
}

// colBinding names one column of an intermediate relation, qualified by the
// table alias it came from ("" for computed columns).
type colBinding struct {
	table string
	name  string
}

// lookupBinding resolves a (table, name) reference against a schema.
// Unqualified names must be unambiguous. Both the row and the columnar
// executors resolve through it, so name-resolution errors are identical.
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

// relation is an intermediate result of the row executor: a schema plus
// boxed rows.
type relation struct {
	schema []colBinding
	rows   [][]value.Value
}

// lookup resolves a (table, name) reference against the schema.
func (r *relation) lookup(table, name string) (int, error) {
	return lookupBinding(r.schema, table, name)
}
