package sqlengine

import (
	"fmt"
	"sort"

	"fuzzyprophet/internal/sqlparser"
	"fuzzyprophet/internal/stats"
	"fuzzyprophet/internal/value"
)

// The row-at-a-time reference executor: one boxed value at a time, no
// compilation, no vectors. It lives only in tests, as the semantic oracle
// the differential suite, FuzzPlanMatchesRow and FuzzConstExprMatchesRow
// check the compiled Plan against; production runs every statement and
// every constant expression as a Plan.

// Result is the output of a query: named columns plus rows.
type Result struct {
	Cols []string
	Rows [][]value.Value
}

// ExecScriptRow runs every SELECT statement of the script in order on the
// row-at-a-time reference executor, binding params, and returns the result
// of the last one (nil when there is none). GRAPH, OPTIMIZE and DECLARE
// PARAMETER statements are skipped. It is the reference the compiled plans
// are checked against.
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

// ExecSelectRow evaluates one SELECT on the row-at-a-time reference
// executor: one boxed value at a time, no compilation, no vectors. When the
// statement has an INTO clause the result is also materialized in the
// catalog under that name.
func (e *Engine) ExecSelectRow(sel sqlparser.Select, params map[string]value.Value) (*Result, error) {
	src, err := e.buildFrom(sel.From, params)
	if err != nil {
		return nil, err
	}

	// WHERE filter.
	if sel.Where != nil {
		kept := src.rows[:0:0]
		for _, row := range src.rows {
			ev := &env{params: params, rel: src, row: row}
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
					ev := &env{params: params, rel: combined, row: row}
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
		ev := &env{params: params, rel: src, row: row, extra: extra}
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
			oe := &env{params: params, rel: src, row: rowCopy, extra: extraCopy}
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
			ev := &env{params: params, rel: src, row: row}
			for i, kx := range sel.GroupBy {
				v, err := ev.eval(kx)
				if err != nil {
					return nil, nil, err
				}
				keyVals[i] = v
			}
			ks := keyString(keyVals)
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
			rewritten, err := substituteAggregates(x, func(fc sqlparser.FuncCall) (sqlparser.Expr, error) {
				v, err := e.computeAggregate(fc, src, g.rows, params)
				return sqlparser.Literal{Val: v}, err
			})
			if err != nil {
				return value.Null, err
			}
			var row []value.Value
			if len(g.rows) > 0 {
				row = g.rows[0]
			}
			ev := &env{params: params, rel: src, row: row, extra: extra}
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
			rewritten, err := substituteAggregates(x, func(fc sqlparser.FuncCall) (sqlparser.Expr, error) {
				v, err := e.computeAggregate(fc, src, gRows, params)
				return sqlparser.Literal{Val: v}, err
			})
			if err != nil {
				return value.Null, err
			}
			var row []value.Value
			if len(gRows) > 0 {
				row = gRows[0]
			}
			ev := &env{params: params, rel: src, row: row, extra: extraCopy}
			return ev.eval(rewritten)
		})
	}
	return res, orderEnvs, nil
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
	if HasAggregate(arg) {
		return value.Null, fmt.Errorf("sqlengine: nested aggregate in %s", f.Name)
	}
	var vals []value.Value
	for _, row := range group {
		ev := &env{params: params, rel: rel, row: row}
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
		key := keyString(row)
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

// EvalConstRow evaluates an expression outside any row context on the row
// evaluator: parameters, literals and scalar builtins, no columns or
// aggregates. It is the reference for the one-row Plans that site
// arguments and OPTIMIZE constraints run as.
func EvalConstRow(x sqlparser.Expr, params map[string]value.Value) (value.Value, error) {
	ev := &env{params: params}
	return ev.eval(x)
}

// env is the evaluation environment for one expression: parameter bindings,
// an optional row (with schema) and extra computed bindings (select-item
// aliases).
type env struct {
	params map[string]value.Value
	rel    *relation
	row    []value.Value
	extra  map[string]value.Value // alias → value, visible unqualified
}

func (e *env) lookupColumn(table, name string) (value.Value, error) {
	if table == "" && e.extra != nil {
		if v, ok := e.extra[name]; ok {
			return v, nil
		}
	}
	if e.rel == nil || e.row == nil {
		return value.Null, fmt.Errorf("sqlengine: column %q referenced outside a row context", name)
	}
	idx, err := e.rel.lookup(table, name)
	if err != nil {
		return value.Null, err
	}
	return e.row[idx], nil
}

// eval evaluates a non-aggregate expression. Aggregate calls reaching this
// path are an error; the grouped executor intercepts them earlier.
func (e *env) eval(x sqlparser.Expr) (value.Value, error) {
	switch n := x.(type) {
	case sqlparser.Literal:
		return n.Val, nil
	case sqlparser.ParamRef:
		if e.params != nil {
			if v, ok := e.params[n.Name]; ok {
				return v, nil
			}
		}
		return value.Null, fmt.Errorf("sqlengine: unbound parameter @%s", n.Name)
	case sqlparser.ColumnRef:
		return e.lookupColumn(n.Table, n.Name)
	case sqlparser.Unary:
		v, err := e.eval(n.X)
		if err != nil {
			return value.Null, err
		}
		if n.Op == "NOT" {
			if v.IsNull() {
				return value.Null, nil
			}
			b, err := v.AsBool()
			if err != nil {
				return value.Null, err
			}
			return value.Bool(!b), nil
		}
		return value.Neg(v)
	case sqlparser.Binary:
		return e.evalBinary(n)
	case sqlparser.Case:
		for _, w := range n.Whens {
			c, err := e.eval(w.Cond)
			if err != nil {
				return value.Null, err
			}
			if c.Truthy() {
				return e.eval(w.Then)
			}
		}
		if n.Else != nil {
			return e.eval(n.Else)
		}
		return value.Null, nil
	case sqlparser.Between:
		v, err := e.eval(n.X)
		if err != nil {
			return value.Null, err
		}
		lo, err := e.eval(n.Lo)
		if err != nil {
			return value.Null, err
		}
		hi, err := e.eval(n.Hi)
		if err != nil {
			return value.Null, err
		}
		if v.IsNull() || lo.IsNull() || hi.IsNull() {
			return value.Null, nil
		}
		cl, err := value.Compare(v, lo)
		if err != nil {
			return value.Null, err
		}
		ch, err := value.Compare(v, hi)
		if err != nil {
			return value.Null, err
		}
		in := cl >= 0 && ch <= 0
		if n.Not {
			in = !in
		}
		return value.Bool(in), nil
	case sqlparser.InList:
		v, err := e.eval(n.X)
		if err != nil {
			return value.Null, err
		}
		if v.IsNull() {
			return value.Null, nil
		}
		found := false
		for _, item := range n.Items {
			iv, err := e.eval(item)
			if err != nil {
				return value.Null, err
			}
			if !iv.IsNull() && v.Equal(iv) {
				found = true
				break
			}
		}
		if n.Not {
			found = !found
		}
		return value.Bool(found), nil
	case sqlparser.IsNull:
		v, err := e.eval(n.X)
		if err != nil {
			return value.Null, err
		}
		if n.Not {
			return value.Bool(!v.IsNull()), nil
		}
		return value.Bool(v.IsNull()), nil
	case sqlparser.FuncCall:
		if isAggregateName(n.Name) {
			return value.Null, fmt.Errorf("sqlengine: aggregate %s used outside an aggregation context", n.Name)
		}
		args := make([]value.Value, len(n.Args))
		for i, a := range n.Args {
			v, err := e.eval(a)
			if err != nil {
				return value.Null, err
			}
			args[i] = v
		}
		return callBuiltin(n.Name, args)
	default:
		return value.Null, fmt.Errorf("sqlengine: unsupported expression %T", x)
	}
}

func (e *env) evalBinary(n sqlparser.Binary) (value.Value, error) {
	// AND/OR use SQL three-valued logic with short-circuiting on the
	// determined side.
	if n.Op == "AND" || n.Op == "OR" {
		l, err := e.eval(n.L)
		if err != nil {
			return value.Null, err
		}
		if n.Op == "AND" && !l.IsNull() {
			if b, err := l.AsBool(); err != nil {
				return value.Null, err
			} else if !b {
				return value.Bool(false), nil
			}
		}
		if n.Op == "OR" && !l.IsNull() {
			if b, err := l.AsBool(); err != nil {
				return value.Null, err
			} else if b {
				return value.Bool(true), nil
			}
		}
		r, err := e.eval(n.R)
		if err != nil {
			return value.Null, err
		}
		if l.IsNull() || r.IsNull() {
			// AND: false∧NULL handled above; true∧NULL = NULL.
			// OR: true∨NULL handled above; false∨NULL = NULL.
			if n.Op == "AND" {
				if !r.IsNull() {
					if b, _ := r.AsBool(); !b {
						return value.Bool(false), nil
					}
				}
			} else if !r.IsNull() {
				if b, _ := r.AsBool(); b {
					return value.Bool(true), nil
				}
			}
			return value.Null, nil
		}
		rb, err := r.AsBool()
		if err != nil {
			return value.Null, err
		}
		return value.Bool(rb), nil
	}

	l, err := e.eval(n.L)
	if err != nil {
		return value.Null, err
	}
	r, err := e.eval(n.R)
	if err != nil {
		return value.Null, err
	}
	switch n.Op {
	case "+":
		return value.Add(l, r)
	case "-":
		return value.Sub(l, r)
	case "*":
		return value.Mul(l, r)
	case "/":
		return value.Div(l, r)
	case "%":
		return value.Mod(l, r)
	case "=", "<>", "<", "<=", ">", ">=":
		if l.IsNull() || r.IsNull() {
			return value.Null, nil
		}
		c, err := value.Compare(l, r)
		if err != nil {
			return value.Null, err
		}
		switch n.Op {
		case "=":
			return value.Bool(c == 0), nil
		case "<>":
			return value.Bool(c != 0), nil
		case "<":
			return value.Bool(c < 0), nil
		case "<=":
			return value.Bool(c <= 0), nil
		case ">":
			return value.Bool(c > 0), nil
		default:
			return value.Bool(c >= 0), nil
		}
	default:
		return value.Null, fmt.Errorf("sqlengine: unknown operator %q", n.Op)
	}
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

// Get returns the named table boxed into the row layout the row executor
// reads, converted afresh on every call.
func (c *Catalog) Get(name string) (*Table, bool) {
	ct, ok := c.GetColumns(name)
	if !ok {
		return nil, false
	}
	return rowsFromColumns(ct), true
}

// rowsFromColumns boxes a columnar table into the row layout.
func rowsFromColumns(ct *ColTable) *Table {
	n := ct.NumRows()
	rows := make([][]value.Value, n)
	for i := 0; i < n; i++ {
		row := make([]value.Value, len(ct.Columns))
		for j, c := range ct.Columns {
			row[j] = c.Value(i)
		}
		rows[i] = row
	}
	return &Table{Name: ct.Name, Cols: append([]string(nil), ct.Cols...), Rows: rows}
}

// keyString returns the canonical GROUP BY / DISTINCT key of a tuple:
// value.AppendKey's encoding, which the Plan's unboxed key builders share.
func keyString(vs []value.Value) string {
	var key []byte
	for _, v := range vs {
		key = value.AppendKey(key, v)
	}
	return string(key)
}
