package sqlengine

import (
	"fmt"
	"math/bits"
	"sort"

	"fuzzyprophet/internal/sqlparser"
	"fuzzyprophet/internal/stats"
	"fuzzyprophet/internal/value"
)

// This file holds the columnar operators a Plan drives besides projection:
// the columnar result, the theta join (gather index vectors instead of
// copied boxed rows), the DISTINCT and ORDER BY post-operators, and the
// grouped executor — GROUP BY hashes pre-computed key columns, aggregates
// fold typed vectors in tight loops, and the (tiny, per-group) scalar glue
// evaluates through the row expression evaluator, so grouped semantics are
// shared with the row reference by construction.

// ColResult is the columnar form of a query result. The Monte Carlo
// executor consumes it directly (Column.Float64s), avoiding the box/unbox
// round trip of the legacy row Result.
type ColResult struct {
	Cols    []string
	Columns []*Column
}

// NumRows returns the number of result rows.
func (r *ColResult) NumRows() int {
	if len(r.Columns) == 0 {
		return 0
	}
	return r.Columns[0].Len()
}

// ColIndex returns the index of the named output column, or -1.
func (r *ColResult) ColIndex(name string) int {
	for i, c := range r.Cols {
		if c == name {
			return i
		}
	}
	return -1
}

// Column returns the named output column.
func (r *ColResult) Column(name string) (*Column, error) {
	i := r.ColIndex(name)
	if i < 0 {
		return nil, fmt.Errorf("sqlengine: result has no column %q", name)
	}
	return r.Columns[i], nil
}

// colResultFromResult converts a boxed row result to columnar form.
func colResultFromResult(res *Result) *ColResult {
	out := &ColResult{Cols: append([]string(nil), res.Cols...)}
	out.Columns = make([]*Column, len(res.Cols))
	for j := range res.Cols {
		vals := make([]value.Value, len(res.Rows))
		for i, row := range res.Rows {
			vals[i] = row[j]
		}
		out.Columns[j] = ValuesColumn(vals)
	}
	return out
}

// joinVec builds the gather lists of acc joined with next under the ref's
// join semantics (cross, inner ON, LEFT JOIN) into st.joinL/st.joinR and
// returns the joined row count: the condition filters the full nl×nr
// product, evaluated over the combined schema. It is the general join — the
// Plan routes pure cross products and hashable equality conditions around
// it.
func (st *planState) joinVec(acc, next *vRel, schema []colBinding, ref sqlparser.TableRef) (int, error) {
	nl, nr := acc.n, next.n
	var keep []int // ascending product positions the condition keeps
	if ref.JoinCond != nil {
		total := nl * nr
		li, ri := st.ints(total), st.ints(total)
		for l := 0; l < nl; l++ {
			for r := 0; r < nr; r++ {
				li[l*nr+r] = l
				ri[l*nr+r] = r
			}
		}
		cols := make([]*Column, 0, len(acc.cols)+len(next.cols))
		for _, c := range acc.cols {
			cols = append(cols, gatherPadInto(st.slot(), c, li))
		}
		for _, c := range next.cols {
			cols = append(cols, gatherPadInto(st.slot(), c, ri))
		}
		vc := vctx{st: st, rel: &vRel{schema: schema, cols: cols, n: total}}
		cond, err := vc.eval(ref.JoinCond, frame{n: total})
		if err != nil {
			return 0, err
		}
		keep = vc.truthyKeep(cond)
	}

	outL, outR := st.joinL[:0], st.joinR[:0]
	for l := 0; l < nl; l++ {
		matched := false
		for r := 0; r < nr; r++ {
			if ref.JoinCond != nil {
				if len(keep) == 0 || keep[0] != l*nr+r {
					continue
				}
				keep = keep[1:]
			}
			matched = true
			outL = append(outL, l)
			outR = append(outR, r)
		}
		if ref.LeftJoin && !matched {
			// LEFT JOIN: keep the unmatched left row, padding this table's
			// columns with NULLs.
			outL = append(outL, l)
			outR = append(outR, -1)
		}
	}
	st.joinL, st.joinR = outL, outR
	return len(outL), nil
}

// distinctKeep returns the first-occurrence positions of distinct value
// tuples, keyed by the engines' shared canonical encoding.
func distinctKeep(cols []*Column, n int) []int {
	seen := make(map[string]bool, n)
	keep := make([]int, 0, n)
	var buf []byte
	for i := 0; i < n; i++ {
		buf = buf[:0]
		for _, c := range cols {
			buf = c.appendKey(buf, i)
		}
		k := string(buf)
		if seen[k] {
			continue
		}
		seen[k] = true
		keep = append(keep, i)
	}
	return keep
}

// sortPerm returns the stable ORDER BY permutation over the key columns.
func sortPerm(keyCols []*Column, keys []sqlparser.OrderItem, n int) ([]int, error) {
	perm := identityIdx(n)
	var sortErr error
	sort.SliceStable(perm, func(x, y int) bool {
		a, b := perm[x], perm[y]
		for j, k := range keys {
			c, err := cmpCell(keyCols[j], a, b)
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
		return nil, sortErr
	}
	return perm, nil
}

// cmpCell orders two rows of one column with value.Compare semantics
// (NULL sorts before everything), unboxed for typed columns.
func cmpCell(c *Column, a, b int) (int, error) {
	an, bn := c.IsNull(a), c.IsNull(b)
	if an || bn {
		switch {
		case an && bn:
			return 0, nil
		case an:
			return -1, nil
		default:
			return 1, nil
		}
	}
	switch c.kind {
	case ColFloat:
		switch {
		case c.f[a] < c.f[b]:
			return -1, nil
		case c.f[a] > c.f[b]:
			return 1, nil
		}
		return 0, nil
	case ColInt:
		// Compare through float64 like value.Compare does, so huge ints
		// (|v| >= 2^53) order identically on both engines.
		af, bf := float64(c.i[a]), float64(c.i[b])
		switch {
		case af < bf:
			return -1, nil
		case af > bf:
			return 1, nil
		}
		return 0, nil
	case ColString:
		switch {
		case c.s[a] < c.s[b]:
			return -1, nil
		case c.s[a] > c.s[b]:
			return 1, nil
		}
		return 0, nil
	case ColBool:
		switch {
		case !c.b[a] && c.b[b]:
			return -1, nil
		case c.b[a] && !c.b[b]:
			return 1, nil
		}
		return 0, nil
	default:
		return value.Compare(c.Value(a), c.Value(b))
	}
}

// execGrouped evaluates the aggregation path over the frame of st.rel:
// GROUP BY keys are evaluated as whole columns and hashed unboxed,
// aggregates fold typed vectors per group, and the remaining per-group
// scalar glue (HAVING, projections with the aggregates substituted as
// literals) runs through the row expression evaluator over the group's
// first row — semantics shared with the row engine by construction.
func (st *planState) execGrouped(fr frame) (*Result, []func(sqlparser.Expr) (value.Value, error), error) {
	sel, rel, params, resolver := st.plan.sel, &st.rel, st.params, st.e.Resolver
	vc := &vctx{st: st, rel: rel}
	// A group's frame lists its base-relation rows; with no GROUP BY the
	// one group is the whole frame.
	var groups []frame
	if len(sel.GroupBy) == 0 {
		groups = []frame{{rows: fr.rows, n: fr.n}}
	} else {
		keyCols := make([]*Column, len(sel.GroupBy))
		for j, kx := range sel.GroupBy {
			col, err := vc.eval(kx, fr)
			if err != nil {
				return nil, nil, err
			}
			keyCols[j] = col
		}
		index := map[string]int{}
		var buf []byte
		for i := 0; i < fr.n; i++ {
			buf = buf[:0]
			for _, kc := range keyCols {
				buf = kc.appendKey(buf, i)
			}
			g, ok := index[string(buf)]
			if !ok {
				g = len(groups)
				index[string(buf)] = g
				groups = append(groups, frame{})
			}
			groups[g].rows = append(groups[g].rows, fr.row(i))
			groups[g].n++
		}
	}

	res := &Result{}
	for i, item := range sel.Items {
		res.Cols = append(res.Cols, outputName(item, i))
	}
	rowRel := &relation{schema: rel.schema}
	var orderEnvs []func(sqlparser.Expr) (value.Value, error)
	for _, gFr := range groups {
		var row []value.Value
		if gFr.n > 0 {
			row = boxRow(rel, gFr.row(0))
		}
		evalInGroup := func(x sqlparser.Expr, extra map[string]value.Value) (value.Value, error) {
			rewritten, err := substituteAggregatesWith(x, func(fc sqlparser.FuncCall) (value.Value, error) {
				return vc.computeAgg(fc, gFr)
			})
			if err != nil {
				return value.Null, err
			}
			ev := &env{params: params, rel: rowRel, row: row, extra: extra, resolver: resolver}
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
		orderEnvs = append(orderEnvs, func(x sqlparser.Expr) (value.Value, error) {
			return evalInGroup(x, extraCopy)
		})
	}
	return res, orderEnvs, nil
}

// boxRow boxes one base-relation row (the group representative the scalar
// glue evaluates against).
func boxRow(rel *vRel, base int) []value.Value {
	row := make([]value.Value, len(rel.cols))
	for j, c := range rel.cols {
		row[j] = c.Value(base)
	}
	return row
}

// computeAgg evaluates one aggregate call over the group frame: the
// argument is evaluated as a whole column, then folded in a tight loop.
// NULL inputs are skipped (SQL semantics); COUNT(*) counts rows. The
// argument's buffers go back to the state once the fold is done, so the
// slots an execution holds do not grow with its group count (nor with the
// ORDER BY comparisons that re-evaluate aggregates).
func (vc *vctx) computeAgg(f sqlparser.FuncCall, gFr frame) (value.Value, error) {
	if f.Star {
		if f.Name != "COUNT" {
			return value.Null, fmt.Errorf("sqlengine: %s(*) is not supported; only COUNT(*)", f.Name)
		}
		return value.Int(int64(gFr.n)), nil
	}
	if len(f.Args) != 1 {
		return value.Null, fmt.Errorf("sqlengine: aggregate %s expects 1 argument, got %d", f.Name, len(f.Args))
	}
	arg := f.Args[0]
	if hasAggregate(arg) {
		return value.Null, fmt.Errorf("sqlengine: nested aggregate in %s", f.Name)
	}
	mark := vc.st.nextSlot
	defer func() { vc.st.nextSlot = mark }()
	col, err := vc.eval(arg, gFr)
	if err != nil {
		return value.Null, err
	}
	switch f.Name {
	case "COUNT":
		switch {
		case col.kind == ColNull:
			return value.Int(0), nil
		case col.kind != ColBoxed && col.nulls == nil:
			return value.Int(int64(col.n)), nil
		case col.kind != ColBoxed:
			// Word-wise popcount of the null bitmap instead of a per-row
			// branch.
			nulls := 0
			for _, w := range col.nulls {
				nulls += bits.OnesCount64(w)
			}
			return value.Int(int64(col.n - nulls)), nil
		}
		n := 0
		for i := 0; i < col.n; i++ {
			if !col.IsNull(i) {
				n++
			}
		}
		return value.Int(int64(n)), nil
	case "SUM":
		switch col.kind {
		case ColInt:
			if col.nulls == nil {
				// No-nulls fast path: 8 partial accumulators, exact for
				// two's-complement addition.
				if col.n == 0 {
					return value.Null, nil
				}
				return value.Int(sumIntsNoNull(col.i)), nil
			}
			var acc int64
			seen := false
			for i, v := range col.i {
				if col.nulls.get(i) {
					continue
				}
				acc += v
				seen = true
			}
			if !seen {
				return value.Null, nil
			}
			return value.Int(acc), nil
		case ColFloat:
			// The float fold stays strictly sequential so the sum is
			// bit-identical to the row oracle's left-to-right value.Add
			// chain; the fast path only drops the per-element bitmap branch.
			if col.nulls == nil {
				if col.n == 0 {
					return value.Null, nil
				}
				var acc float64
				for _, v := range col.f {
					acc += v
				}
				return value.Float(acc), nil
			}
			var acc float64
			seen := false
			for i, v := range col.f {
				if col.nulls.get(i) {
					continue
				}
				acc += v
				seen = true
			}
			if !seen {
				return value.Null, nil
			}
			return value.Float(acc), nil
		default:
			// Boxed fallback shares the row engine's coercions and errors.
			acc := value.Null
			for i := 0; i < col.n; i++ {
				v := col.Value(i)
				if v.IsNull() {
					continue
				}
				if acc.IsNull() {
					acc = v
					continue
				}
				acc, err = value.Add(acc, v)
				if err != nil {
					return value.Null, err
				}
			}
			return acc, nil
		}
	case "AVG", "EXPECT", "PROB", "STDDEV", "EXPECT_STDDEV":
		// Welford accumulation is order-dependent, so both paths fold
		// sequentially (bit-parity with the row oracle); the no-nulls fast
		// path removes only the per-element bitmap branch.
		var m stats.Moments
		switch col.kind {
		case ColFloat:
			if col.nulls == nil {
				for _, v := range col.f {
					m.Add(v)
				}
				break
			}
			for i, v := range col.f {
				if col.nulls.get(i) {
					continue
				}
				m.Add(v)
			}
		case ColInt:
			if col.nulls == nil {
				for _, v := range col.i {
					m.Add(float64(v))
				}
				break
			}
			for i, v := range col.i {
				if col.nulls.get(i) {
					continue
				}
				m.Add(float64(v))
			}
		default:
			for i := 0; i < col.n; i++ {
				v := col.Value(i)
				if v.IsNull() {
					continue
				}
				fv, err := v.AsFloat()
				if err != nil {
					return value.Null, err
				}
				m.Add(fv)
			}
		}
		if m.Count() == 0 {
			return value.Null, nil
		}
		if f.Name == "STDDEV" || f.Name == "EXPECT_STDDEV" {
			return value.Float(m.StdDev()), nil
		}
		return value.Float(m.Mean()), nil
	case "MIN", "MAX":
		min := f.Name == "MIN"
		// No-nulls typed numeric fast path: strict-inequality scan, which
		// keeps the first of tied/incomparable (NaN) rows exactly like
		// value.Compare's two-way test does.
		if col.nulls == nil && col.n > 0 && (col.kind == ColFloat || col.kind == ColInt) {
			if col.kind == ColFloat {
				best := col.f[0]
				for _, v := range col.f[1:] {
					if (min && v < best) || (!min && v > best) {
						best = v
					}
				}
				return value.Float(best), nil
			}
			// INT orders through float64 widening (value.Compare semantics),
			// but the representative keeps its exact integer value.
			bestIdx := 0
			bestF := float64(col.i[0])
			for i, v := range col.i[1:] {
				vf := float64(v)
				if (min && vf < bestF) || (!min && vf > bestF) {
					bestF = vf
					bestIdx = i + 1
				}
			}
			return value.Int(col.i[bestIdx]), nil
		}
		best := -1
		for i := 0; i < col.n; i++ {
			if col.IsNull(i) {
				continue
			}
			if best < 0 {
				best = i
				continue
			}
			c, err := cmpCell(col, i, best)
			if err != nil {
				// Mixed-kind boxed columns: report the comparison error the
				// row engine would hit.
				return value.Null, err
			}
			if (min && c < 0) || (!min && c > 0) {
				best = i
			}
		}
		if best < 0 {
			return value.Null, nil
		}
		return col.Value(best), nil
	default:
		return value.Null, fmt.Errorf("sqlengine: unknown aggregate %q", f.Name)
	}
}
