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
// fold typed vectors in tight loops into per-group columns, and HAVING,
// the items and the ORDER BY keys evaluate over those columns through the
// one expression operator.

// ColResult is the columnar form of a query result. The Monte Carlo
// executor consumes it directly (Column.Float64s).
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

// runGrouped evaluates a grouped plan in phases over a frame of group
// representatives: each group's first row, which a column reference
// outside an aggregate reads. A phase first folds its aggregates into
// per-group columns (foldAggs) that its lifted expressions reference as
// extras, so each aggregate folds over exactly the groups whose
// expressions the row reference evaluates: HAVING's over every group, the
// items' over the groups HAVING keeps, the ORDER BY keys' over the rows
// DISTINCT keeps (in finish). Errors therefore surface exactly when the row
// reference would raise one. When no group is left nothing evaluates.
func (st *planState) runGrouped() error {
	p := st.plan
	groups, err := st.group()
	if err != nil {
		return err
	}
	vc := vctx{st: st, rel: &st.rel, extras: st.extras}
	if len(groups) == 1 && groups[0].n == 0 {
		// The one group of an aggregate over no rows has no representative
		// row to read a column from.
		vc.rel = nil
	}
	if p.having != nil && len(groups) > 0 {
		if err := st.foldAggs(p.havingAggs, groups); err != nil {
			return err
		}
		st.representatives(groups)
		cond, err := vc.eval(p.having, frame{rows: st.sel, n: st.n})
		if err != nil {
			return err
		}
		groups = pickFrames(groups, vc.truthyKeep(cond))
	}
	if len(groups) == 0 {
		for i := range st.itemCols {
			st.itemCols[i] = st.slot().nullCol(0)
		}
		st.n = 0
		st.pres = PlanResult{ColResult: ColResult{Cols: p.colNames, Columns: st.itemCols}, st: st}
		return nil
	}
	if err := st.foldAggs(p.itemAggs, groups); err != nil {
		return err
	}
	st.representatives(groups)
	if err := st.project(&vc); err != nil {
		return err
	}
	return st.finish(&vc, groups)
}

// group partitions the current rows by the GROUP BY keys, evaluated as
// whole columns and hashed unboxed, in first-seen order. Without GROUP BY
// the rows are one group, even when there are none.
func (st *planState) group() ([]frame, error) {
	fr := frame{rows: st.sel, n: st.n}
	keys := st.plan.sel.GroupBy
	if len(keys) == 0 {
		return []frame{fr}, nil
	}
	vc := vctx{st: st, rel: &st.rel}
	keyCols := make([]*Column, len(keys))
	for j, kx := range keys {
		col, err := vc.eval(kx, fr)
		if err != nil {
			return nil, err
		}
		keyCols[j] = col
	}
	var groups []frame
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
	return groups, nil
}

// representatives makes the groups' first rows the current rows.
func (st *planState) representatives(groups []frame) {
	reps := st.ints(len(groups))
	for g, gFr := range groups {
		reps[g] = 0
		if gFr.n > 0 {
			reps[g] = gFr.row(0)
		}
	}
	st.sel, st.n = reps, len(groups)
}

// pickFrames returns the frames at positions keep (nil for nil frames).
func pickFrames(frames []frame, keep []int) []frame {
	if frames == nil {
		return nil
	}
	out := make([]frame, len(keep))
	for j, k := range keep {
		out[j] = frames[k]
	}
	return out
}

// foldAggs folds each aggregate over every group and binds the per-group
// values as the extra column its lifted reference names. Aggregate
// arguments read the relation alone: no alias is visible to them.
func (st *planState) foldAggs(folds []aggFold, groups []frame) error {
	avc := vctx{st: st, rel: &st.rel}
	for _, f := range folds {
		sl := st.slot()
		_, vals := sl.boxedCol(len(groups))
		for g, gFr := range groups {
			v, err := avc.computeAgg(f.call, gFr)
			if err != nil {
				return err
			}
			vals[g] = v
		}
		st.extras[f.name] = sl.valuesCol(vals)
	}
	return nil
}

// substituteAggregates rewrites x, replacing every aggregate call (without
// descending into its arguments) with the expression sub returns for it.
// The Plan lifts aggregates into column references with it; the test-side
// row executor substitutes their values as literals.
func substituteAggregates(x sqlparser.Expr, sub func(sqlparser.FuncCall) (sqlparser.Expr, error)) (sqlparser.Expr, error) {
	switch n := x.(type) {
	case sqlparser.FuncCall:
		if isAggregateName(n.Name) {
			return sub(n)
		}
		args := make([]sqlparser.Expr, len(n.Args))
		for i, a := range n.Args {
			ra, err := substituteAggregates(a, sub)
			if err != nil {
				return nil, err
			}
			args[i] = ra
		}
		return sqlparser.FuncCall{Name: n.Name, Args: args, Star: n.Star}, nil
	case sqlparser.Unary:
		rx, err := substituteAggregates(n.X, sub)
		if err != nil {
			return nil, err
		}
		return sqlparser.Unary{Op: n.Op, X: rx}, nil
	case sqlparser.Binary:
		l, err := substituteAggregates(n.L, sub)
		if err != nil {
			return nil, err
		}
		r, err := substituteAggregates(n.R, sub)
		if err != nil {
			return nil, err
		}
		return sqlparser.Binary{Op: n.Op, L: l, R: r}, nil
	case sqlparser.Case:
		whens := make([]sqlparser.When, len(n.Whens))
		for i, w := range n.Whens {
			c, err := substituteAggregates(w.Cond, sub)
			if err != nil {
				return nil, err
			}
			th, err := substituteAggregates(w.Then, sub)
			if err != nil {
				return nil, err
			}
			whens[i] = sqlparser.When{Cond: c, Then: th}
		}
		var els sqlparser.Expr
		if n.Else != nil {
			var err error
			els, err = substituteAggregates(n.Else, sub)
			if err != nil {
				return nil, err
			}
		}
		return sqlparser.Case{Whens: whens, Else: els}, nil
	case sqlparser.Between:
		xx, err := substituteAggregates(n.X, sub)
		if err != nil {
			return nil, err
		}
		lo, err := substituteAggregates(n.Lo, sub)
		if err != nil {
			return nil, err
		}
		hi, err := substituteAggregates(n.Hi, sub)
		if err != nil {
			return nil, err
		}
		return sqlparser.Between{X: xx, Lo: lo, Hi: hi, Not: n.Not}, nil
	case sqlparser.InList:
		xx, err := substituteAggregates(n.X, sub)
		if err != nil {
			return nil, err
		}
		items := make([]sqlparser.Expr, len(n.Items))
		for i, it := range n.Items {
			ri, err := substituteAggregates(it, sub)
			if err != nil {
				return nil, err
			}
			items[i] = ri
		}
		return sqlparser.InList{X: xx, Items: items, Not: n.Not}, nil
	case sqlparser.IsNull:
		xx, err := substituteAggregates(n.X, sub)
		if err != nil {
			return nil, err
		}
		return sqlparser.IsNull{X: xx, Not: n.Not}, nil
	default:
		return x, nil
	}
}

// computeAgg evaluates one aggregate call over the group frame: the
// argument is evaluated as a whole column, then folded in a tight loop.
// NULL inputs are skipped (SQL semantics); COUNT(*) counts rows. The
// argument's buffers go back to the state once the fold is done, so the
// slots an execution holds do not grow with its group count.
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
	if HasAggregate(arg) {
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
