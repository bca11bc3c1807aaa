package sqlengine

import (
	"fmt"
	"sort"

	"fuzzyprophet/internal/sqlparser"
	"fuzzyprophet/internal/stats"
	"fuzzyprophet/internal/value"
)

// Engine evaluates SELECT statements against a catalog. Every statement
// runs as a compiled Plan; the row-at-a-time executor in this file and
// eval.go is the semantic reference the differential suite and the engine
// benchmark compare against, reached only through ExecScriptRow and
// ExecSelectRow.
type Engine struct {
	Catalog  *Catalog
	Resolver FuncResolver // optional; consulted before scalar builtins
}

// New returns an engine over the given catalog.
func New(catalog *Catalog) *Engine { return &Engine{Catalog: catalog} }

// Result is the output of a query: named columns plus rows.
type Result struct {
	Cols []string
	Rows [][]value.Value
}

// ColIndex returns the index of the named output column, or -1.
func (r *Result) ColIndex(name string) int {
	for i, c := range r.Cols {
		if c == name {
			return i
		}
	}
	return -1
}

// Column returns all values of the named column.
func (r *Result) Column(name string) ([]value.Value, error) {
	i := r.ColIndex(name)
	if i < 0 {
		return nil, fmt.Errorf("sqlengine: result has no column %q", name)
	}
	out := make([]value.Value, len(r.Rows))
	for j, row := range r.Rows {
		out[j] = row[i]
	}
	return out, nil
}

// ExecScript runs every SELECT statement in the script in order, binding
// params, and returns the result of the last one (nil when there is none).
// GRAPH and OPTIMIZE statements are metadata for the surrounding modes and
// are skipped; DECLARE PARAMETER statements are skipped (parameter binding
// is the caller's job). It is a convenience over CompileScript: callers that
// execute a script more than once compile it once and Exec the plan.
func (e *Engine) ExecScript(script *sqlparser.Script, params map[string]value.Value) (*Result, error) {
	res, err := CompileScript(script).Exec(e, params)
	if err != nil || res == nil {
		return nil, err
	}
	defer res.Release()
	return res.Result(), nil
}

// ExecSelect evaluates one SELECT with the given parameter bindings. When
// the statement has an INTO clause the result is also materialized in the
// catalog under that name.
func (e *Engine) ExecSelect(sel sqlparser.Select, params map[string]value.Value) (*Result, error) {
	res, err := CompileSelect(sel).Exec(e, params)
	if err != nil {
		return nil, err
	}
	defer res.Release()
	return res.Result(), nil
}

// ExecScriptRow is ExecScript on the row-at-a-time reference executor.
func (e *Engine) ExecScriptRow(script *sqlparser.Script, params map[string]value.Value) (*Result, error) {
	var last *Result
	for _, st := range script.Statements {
		sel, ok := st.(sqlparser.Select)
		if !ok {
			continue
		}
		res, err := e.ExecSelectRow(sel, params)
		if err != nil {
			return nil, err
		}
		last = res
	}
	return last, nil
}

// ExecSelectRow is ExecSelect on the row-at-a-time reference executor: one
// boxed value at a time, no compilation, no vectors.
func (e *Engine) ExecSelectRow(sel sqlparser.Select, params map[string]value.Value) (*Result, error) {
	src, err := e.buildFrom(sel.From, params)
	if err != nil {
		return nil, err
	}

	// WHERE filter.
	if sel.Where != nil {
		kept := src.rows[:0:0]
		for _, row := range src.rows {
			ev := &env{params: params, rel: src, row: row, resolver: e.Resolver}
			v, err := ev.eval(sel.Where)
			if err != nil {
				return nil, err
			}
			if v.Truthy() {
				kept = append(kept, row)
			}
		}
		src = &relation{schema: src.schema, rows: kept}
	}

	var res *Result
	var orderEnvs []func(sqlparser.Expr) (value.Value, error)
	if isGrouped(sel) {
		res, orderEnvs, err = e.execGrouped(sel, src, params)
	} else {
		res, orderEnvs, err = e.execSimple(sel, src, params)
	}
	if err != nil {
		return nil, err
	}

	if sel.Distinct {
		res, orderEnvs = dedupeRows(res, orderEnvs)
	}
	if len(sel.OrderBy) > 0 {
		if err := e.orderResult(res, orderEnvs, sel.OrderBy); err != nil {
			return nil, err
		}
	}
	if sel.Limit >= 0 && int64(len(res.Rows)) > sel.Limit {
		res.Rows = res.Rows[:sel.Limit]
	}
	if sel.Into != "" {
		t, err := NewTable(sel.Into, res.Cols, res.Rows)
		if err != nil {
			return nil, err
		}
		e.Catalog.Put(t)
	}
	return res, nil
}

// buildFrom assembles the source relation: cross products for comma/CROSS
// JOIN entries and filtered products for JOIN … ON entries. An empty FROM
// yields one empty row (scalar SELECT).
func (e *Engine) buildFrom(refs []sqlparser.TableRef, params map[string]value.Value) (*relation, error) {
	if len(refs) == 0 {
		return &relation{rows: [][]value.Value{{}}}, nil
	}
	var acc *relation
	for i, ref := range refs {
		t, ok := e.Catalog.Get(ref.Name)
		if !ok {
			return nil, fmt.Errorf("sqlengine: unknown table %q", ref.Name)
		}
		binding := ref.Name
		if ref.Alias != "" {
			binding = ref.Alias
		}
		next := &relation{}
		for _, c := range t.Cols {
			next.schema = append(next.schema, colBinding{table: binding, name: c})
		}
		next.rows = t.Rows
		if i == 0 {
			acc = &relation{schema: next.schema, rows: next.rows}
			continue
		}
		combined := &relation{schema: append(append([]colBinding(nil), acc.schema...), next.schema...)}
		for _, l := range acc.rows {
			matched := false
			for _, r := range next.rows {
				row := make([]value.Value, 0, len(l)+len(r))
				row = append(row, l...)
				row = append(row, r...)
				if ref.JoinCond != nil {
					ev := &env{params: params, rel: combined, row: row, resolver: e.Resolver}
					v, err := ev.eval(ref.JoinCond)
					if err != nil {
						return nil, err
					}
					if !v.Truthy() {
						continue
					}
				}
				matched = true
				combined.rows = append(combined.rows, row)
			}
			if ref.LeftJoin && !matched {
				// LEFT JOIN: keep the unmatched left row, padding this
				// table's columns with NULLs.
				row := make([]value.Value, len(l)+len(next.schema))
				copy(row, l)
				combined.rows = append(combined.rows, row)
			}
		}
		acc = combined
	}
	return acc, nil
}

// outputName picks the result column name for a select item.
func outputName(item sqlparser.SelectItem, idx int) string {
	if item.Alias != "" {
		return item.Alias
	}
	if c, ok := item.Expr.(sqlparser.ColumnRef); ok {
		return c.Name
	}
	return fmt.Sprintf("col%d", idx+1)
}

// execSimple projects each row; aliases of earlier items are visible to
// later items (the dialect extension Figure 2 relies on).
func (e *Engine) execSimple(sel sqlparser.Select, src *relation, params map[string]value.Value) (*Result, []func(sqlparser.Expr) (value.Value, error), error) {
	res := &Result{}
	for i, item := range sel.Items {
		res.Cols = append(res.Cols, outputName(item, i))
	}
	var orderEnvs []func(sqlparser.Expr) (value.Value, error)
	for _, row := range src.rows {
		extra := make(map[string]value.Value, len(sel.Items))
		out := make([]value.Value, len(sel.Items))
		ev := &env{params: params, rel: src, row: row, extra: extra, resolver: e.Resolver}
		for i, item := range sel.Items {
			v, err := ev.eval(item.Expr)
			if err != nil {
				return nil, nil, err
			}
			out[i] = v
			if item.Alias != "" {
				extra[item.Alias] = v
			}
		}
		res.Rows = append(res.Rows, out)
		rowCopy := row
		extraCopy := extra
		orderEnvs = append(orderEnvs, func(x sqlparser.Expr) (value.Value, error) {
			oe := &env{params: params, rel: src, row: rowCopy, extra: extraCopy, resolver: e.Resolver}
			return oe.eval(x)
		})
	}
	return res, orderEnvs, nil
}

// execGrouped evaluates the aggregation path. With GROUP BY, rows are
// partitioned by the evaluated key expressions (first-seen order); without
// GROUP BY but with aggregates, all rows form one group (even when empty).
func (e *Engine) execGrouped(sel sqlparser.Select, src *relation, params map[string]value.Value) (*Result, []func(sqlparser.Expr) (value.Value, error), error) {
	type group struct {
		keyVals []value.Value
		rows    [][]value.Value
	}
	var groups []*group
	if len(sel.GroupBy) == 0 {
		groups = []*group{{rows: src.rows}}
	} else {
		index := map[string]*group{}
		for _, row := range src.rows {
			keyVals := make([]value.Value, len(sel.GroupBy))
			ev := &env{params: params, rel: src, row: row, resolver: e.Resolver}
			for i, kx := range sel.GroupBy {
				v, err := ev.eval(kx)
				if err != nil {
					return nil, nil, err
				}
				keyVals[i] = v
			}
			ks := value.KeyString(keyVals)
			g, ok := index[ks]
			if !ok {
				g = &group{keyVals: keyVals}
				index[ks] = g
				groups = append(groups, g)
			}
			g.rows = append(g.rows, row)
		}
	}

	res := &Result{}
	for i, item := range sel.Items {
		res.Cols = append(res.Cols, outputName(item, i))
	}
	var orderEnvs []func(sqlparser.Expr) (value.Value, error)
	for _, g := range groups {
		evalInGroup := func(x sqlparser.Expr, extra map[string]value.Value) (value.Value, error) {
			rewritten, err := substituteAggregatesWith(x, func(fc sqlparser.FuncCall) (value.Value, error) {
				return e.computeAggregate(fc, src, g.rows, params)
			})
			if err != nil {
				return value.Null, err
			}
			var row []value.Value
			if len(g.rows) > 0 {
				row = g.rows[0]
			}
			ev := &env{params: params, rel: src, row: row, extra: extra, resolver: e.Resolver}
			return ev.eval(rewritten)
		}
		if sel.Having != nil {
			hv, err := evalInGroup(sel.Having, nil)
			if err != nil {
				return nil, nil, err
			}
			if !hv.Truthy() {
				continue
			}
		}
		extra := make(map[string]value.Value, len(sel.Items))
		out := make([]value.Value, len(sel.Items))
		for i, item := range sel.Items {
			v, err := evalInGroup(item.Expr, extra)
			if err != nil {
				return nil, nil, err
			}
			out[i] = v
			if item.Alias != "" {
				extra[item.Alias] = v
			}
		}
		res.Rows = append(res.Rows, out)
		extraCopy := extra
		gRows := g.rows
		orderEnvs = append(orderEnvs, func(x sqlparser.Expr) (value.Value, error) {
			rewritten, err := substituteAggregatesWith(x, func(fc sqlparser.FuncCall) (value.Value, error) {
				return e.computeAggregate(fc, src, gRows, params)
			})
			if err != nil {
				return value.Null, err
			}
			var row []value.Value
			if len(gRows) > 0 {
				row = gRows[0]
			}
			ev := &env{params: params, rel: src, row: row, extra: extraCopy, resolver: e.Resolver}
			return ev.eval(rewritten)
		})
	}
	return res, orderEnvs, nil
}

// substituteAggregatesWith rewrites x, replacing every aggregate call with
// a literal holding the value compute returns for it. The rewritten
// expression then evaluates with the ordinary scalar evaluator. Both the
// row and the columnar grouped executors share this rewrite; they differ
// only in how compute folds the group.
func substituteAggregatesWith(x sqlparser.Expr, compute func(sqlparser.FuncCall) (value.Value, error)) (sqlparser.Expr, error) {
	switch n := x.(type) {
	case sqlparser.FuncCall:
		if isAggregateName(n.Name) {
			v, err := compute(n)
			if err != nil {
				return nil, err
			}
			return sqlparser.Literal{Val: v}, nil
		}
		args := make([]sqlparser.Expr, len(n.Args))
		for i, a := range n.Args {
			ra, err := substituteAggregatesWith(a, compute)
			if err != nil {
				return nil, err
			}
			args[i] = ra
		}
		return sqlparser.FuncCall{Name: n.Name, Args: args, Star: n.Star}, nil
	case sqlparser.Unary:
		rx, err := substituteAggregatesWith(n.X, compute)
		if err != nil {
			return nil, err
		}
		return sqlparser.Unary{Op: n.Op, X: rx}, nil
	case sqlparser.Binary:
		l, err := substituteAggregatesWith(n.L, compute)
		if err != nil {
			return nil, err
		}
		r, err := substituteAggregatesWith(n.R, compute)
		if err != nil {
			return nil, err
		}
		return sqlparser.Binary{Op: n.Op, L: l, R: r}, nil
	case sqlparser.Case:
		whens := make([]sqlparser.When, len(n.Whens))
		for i, w := range n.Whens {
			c, err := substituteAggregatesWith(w.Cond, compute)
			if err != nil {
				return nil, err
			}
			th, err := substituteAggregatesWith(w.Then, compute)
			if err != nil {
				return nil, err
			}
			whens[i] = sqlparser.When{Cond: c, Then: th}
		}
		var els sqlparser.Expr
		if n.Else != nil {
			var err error
			els, err = substituteAggregatesWith(n.Else, compute)
			if err != nil {
				return nil, err
			}
		}
		return sqlparser.Case{Whens: whens, Else: els}, nil
	case sqlparser.Between:
		xx, err := substituteAggregatesWith(n.X, compute)
		if err != nil {
			return nil, err
		}
		lo, err := substituteAggregatesWith(n.Lo, compute)
		if err != nil {
			return nil, err
		}
		hi, err := substituteAggregatesWith(n.Hi, compute)
		if err != nil {
			return nil, err
		}
		return sqlparser.Between{X: xx, Lo: lo, Hi: hi, Not: n.Not}, nil
	case sqlparser.InList:
		xx, err := substituteAggregatesWith(n.X, compute)
		if err != nil {
			return nil, err
		}
		items := make([]sqlparser.Expr, len(n.Items))
		for i, it := range n.Items {
			ri, err := substituteAggregatesWith(it, compute)
			if err != nil {
				return nil, err
			}
			items[i] = ri
		}
		return sqlparser.InList{X: xx, Items: items, Not: n.Not}, nil
	case sqlparser.IsNull:
		xx, err := substituteAggregatesWith(n.X, compute)
		if err != nil {
			return nil, err
		}
		return sqlparser.IsNull{X: xx, Not: n.Not}, nil
	default:
		return x, nil
	}
}

// computeAggregate evaluates one aggregate call over the group rows.
// NULL inputs are skipped (SQL semantics); COUNT(*) counts rows.
func (e *Engine) computeAggregate(f sqlparser.FuncCall, rel *relation, group [][]value.Value, params map[string]value.Value) (value.Value, error) {
	if f.Star {
		if f.Name != "COUNT" {
			return value.Null, fmt.Errorf("sqlengine: %s(*) is not supported; only COUNT(*)", f.Name)
		}
		return value.Int(int64(len(group))), nil
	}
	if len(f.Args) != 1 {
		return value.Null, fmt.Errorf("sqlengine: aggregate %s expects 1 argument, got %d", f.Name, len(f.Args))
	}
	arg := f.Args[0]
	if hasAggregate(arg) {
		return value.Null, fmt.Errorf("sqlengine: nested aggregate in %s", f.Name)
	}
	var vals []value.Value
	for _, row := range group {
		ev := &env{params: params, rel: rel, row: row, resolver: e.Resolver}
		v, err := ev.eval(arg)
		if err != nil {
			return value.Null, err
		}
		if !v.IsNull() {
			vals = append(vals, v)
		}
	}
	switch f.Name {
	case "COUNT":
		return value.Int(int64(len(vals))), nil
	case "SUM":
		if len(vals) == 0 {
			return value.Null, nil
		}
		acc := vals[0]
		for _, v := range vals[1:] {
			var err error
			acc, err = value.Add(acc, v)
			if err != nil {
				return value.Null, err
			}
		}
		return acc, nil
	case "AVG", "EXPECT", "PROB":
		if len(vals) == 0 {
			return value.Null, nil
		}
		var m stats.Moments
		for _, v := range vals {
			fv, err := v.AsFloat()
			if err != nil {
				return value.Null, err
			}
			m.Add(fv)
		}
		return value.Float(m.Mean()), nil
	case "STDDEV", "EXPECT_STDDEV":
		if len(vals) == 0 {
			return value.Null, nil
		}
		var m stats.Moments
		for _, v := range vals {
			fv, err := v.AsFloat()
			if err != nil {
				return value.Null, err
			}
			m.Add(fv)
		}
		return value.Float(m.StdDev()), nil
	case "MIN", "MAX":
		if len(vals) == 0 {
			return value.Null, nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c, err := value.Compare(v, best)
			if err != nil {
				return value.Null, err
			}
			if (f.Name == "MIN" && c < 0) || (f.Name == "MAX" && c > 0) {
				best = v
			}
		}
		return best, nil
	default:
		return value.Null, fmt.Errorf("sqlengine: unknown aggregate %q", f.Name)
	}
}

// dedupeRows implements SELECT DISTINCT: output rows with identical value
// tuples collapse to their first occurrence (and keep that occurrence's
// ordering context).
func dedupeRows(res *Result, orderEnvs []func(sqlparser.Expr) (value.Value, error)) (*Result, []func(sqlparser.Expr) (value.Value, error)) {
	seen := map[string]bool{}
	outRows := res.Rows[:0:0]
	outEnvs := orderEnvs[:0:0]
	for i, row := range res.Rows {
		key := value.KeyString(row)
		if seen[key] {
			continue
		}
		seen[key] = true
		outRows = append(outRows, row)
		outEnvs = append(outEnvs, orderEnvs[i])
	}
	res.Rows = outRows
	return res, outEnvs
}

// orderResult sorts res.Rows by the ORDER BY keys using the per-row
// evaluation contexts captured during projection.
func (e *Engine) orderResult(res *Result, orderEnvs []func(sqlparser.Expr) (value.Value, error), keys []sqlparser.OrderItem) error {
	type sortable struct {
		row  []value.Value
		keys []value.Value
	}
	items := make([]sortable, len(res.Rows))
	for i, row := range res.Rows {
		ks := make([]value.Value, len(keys))
		for j, k := range keys {
			v, err := orderEnvs[i](k.Expr)
			if err != nil {
				return err
			}
			ks[j] = v
		}
		items[i] = sortable{row: row, keys: ks}
	}
	var sortErr error
	sort.SliceStable(items, func(a, b int) bool {
		for j, k := range keys {
			c, err := value.Compare(items[a].keys[j], items[b].keys[j])
			if err != nil {
				if sortErr == nil {
					sortErr = err
				}
				return false
			}
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	if sortErr != nil {
		return sortErr
	}
	for i := range items {
		res.Rows[i] = items[i].row
	}
	return nil
}
