package sqlengine

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"fuzzyprophet/internal/obs"
	"fuzzyprophet/internal/sqlparser"
	"fuzzyprophet/internal/value"
)

// Compiled scenario plans: a SELECT is compiled ONCE into a Plan and then
// executed many times (one graph render evaluates the same rewritten
// scenario query at every X position over every world). Execution is
// allocation-free after warm-up on the scenario shapes: the expression
// operator (veval.go) writes every column into buffers held by a pooled
// planState, FROM binds catalog tables by name per execution (so one plan
// serves every evaluator/catalog of a scenario), joins produce gather index
// lists into reused buffers, and the result is handed out as a PlanResult
// that recycles its state on Release.
//
// Compilation never fails and every SELECT compiles: the Plan is the
// engine's only production driver. FROM is a left-deep loop over any number
// of tables (cross, hash equi-join or theta join per table), DISTINCT /
// ORDER BY / LIMIT run as post-operators over the projected columns, INTO
// registers the result in the catalog, and every expression — WHERE, select
// items, HAVING, ORDER BY keys, join conditions and keys, GROUP BY keys and
// aggregate arguments — runs through the one expression operator. A plan
// with no FROM runs over a one-row relation: that is how constant
// expressions (site arguments, OPTIMIZE constraints) evaluate. The
// differential suite asserts the Plan against the row reference executor
// of the package's tests.
//
// Plans are immutable after CompileSelect and safe for concurrent
// execution: each execution borrows an isolated planState from the plan's
// pool (concurrent renders of one scenario share one plan).

// Plan is one SELECT compiled into a reusable execution.
type Plan struct {
	sel     sqlparser.Select
	grouped bool

	fromRefs []sqlparser.TableRef
	// eqL[i]/eqR[i] are the two operands of FROM entry i's ON condition when
	// it is a single equality, split once at compile time (side resolution
	// still happens at bind, against the catalog-dependent schema).
	eqL, eqR []sqlparser.Expr
	colNames []string

	// items, having and orderBy are the expressions an execution
	// evaluates. In a grouped plan every aggregate call in them is lifted
	// into a reference to the per-group column it folds into; havingAggs,
	// itemAggs and orderAggs list those folds, one list per phase.
	items, orderBy                  []sqlparser.Expr
	having                          sqlparser.Expr
	havingAggs, itemAggs, orderAggs []aggFold

	// colRefs are the column references of the WHERE, item and ORDER BY
	// expressions: the relation columns a cross or hash join must
	// materialize.
	colRefs []colRefSpec
	usedAll bool // materialize every relation column (grouped plans, deep joins)

	pool sync.Pool
}

type colRefSpec struct{ table, name string }

// aggFold is one aggregate call of a grouped plan and the name of the
// extra column its per-group values are bound to.
type aggFold struct {
	call sqlparser.FuncCall
	name string
}

// PlanResult is the outcome of one Plan or ScriptPlan execution. Its
// columns may alias plan-owned buffers: read (or copy) everything you need,
// then call Release to recycle the buffers for the next execution.
type PlanResult struct {
	ColResult
	st *planState
}

// Release returns the execution's buffers to the plan's pool. The result's
// columns must not be used afterwards. Release is idempotent.
func (r *PlanResult) Release() {
	st := r.st
	if st == nil {
		return
	}
	r.st = nil
	st.recycle()
}

// CompileSelect compiles one SELECT into a reusable plan.
func CompileSelect(sel sqlparser.Select) *Plan {
	p := &Plan{sel: sel, fromRefs: sel.From, grouped: isGrouped(sel)}
	p.pool.New = func() any { return newPlanState(p) }

	p.eqL = make([]sqlparser.Expr, len(sel.From))
	p.eqR = make([]sqlparser.Expr, len(sel.From))
	for i, ref := range sel.From {
		if ref.JoinCond != nil {
			p.eqL[i], p.eqR[i], _ = splitEquality(ref.JoinCond)
		}
		// A conditional or LEFT join past the second table evaluates over
		// the accumulated relation, so no column may be pruned from it.
		if i >= 2 && (ref.JoinCond != nil || ref.LeftJoin) {
			p.usedAll = true
		}
	}
	for i, item := range sel.Items {
		p.items = append(p.items, item.Expr)
		p.colNames = append(p.colNames, outputName(item, i))
	}
	for _, k := range sel.OrderBy {
		p.orderBy = append(p.orderBy, k.Expr)
	}

	if p.grouped {
		// Grouping keys, aggregate arguments and the per-group expressions
		// all read the FROM/WHERE relation, so it stays whole.
		p.usedAll = true
		p.having = p.liftAggregates(sel.Having, &p.havingAggs)
		for i, x := range p.items {
			p.items[i] = p.liftAggregates(x, &p.itemAggs)
		}
		for j, x := range p.orderBy {
			p.orderBy[j] = p.liftAggregates(x, &p.orderAggs)
		}
		return p
	}
	seen := map[colRefSpec]bool{}
	addRefs := func(x sqlparser.Expr) {
		sqlparser.WalkExpr(x, func(e sqlparser.Expr) {
			// An alias-shadowed name may add a base column needlessly; that
			// costs one extra gather, never correctness.
			if cr, ok := e.(sqlparser.ColumnRef); ok && !seen[colRefSpec{cr.Table, cr.Name}] {
				seen[colRefSpec{cr.Table, cr.Name}] = true
				p.colRefs = append(p.colRefs, colRefSpec{cr.Table, cr.Name})
			}
		})
	}
	if sel.Where != nil {
		addRefs(sel.Where)
	}
	for _, x := range p.items {
		addRefs(x)
	}
	for _, x := range p.orderBy {
		addRefs(x)
	}
	return p
}

// liftAggregates replaces every aggregate call in x (not descending into
// its arguments) with a reference to a fresh extra column and appends the
// call to folds. No identifier the parser accepts holds a NUL, so the names
// cannot collide with a column or an alias.
func (p *Plan) liftAggregates(x sqlparser.Expr, folds *[]aggFold) sqlparser.Expr {
	lifted, _ := substituteAggregates(x, func(fc sqlparser.FuncCall) (sqlparser.Expr, error) {
		name := "\x00agg" + strconv.Itoa(len(p.havingAggs)+len(p.itemAggs)+len(p.orderAggs))
		*folds = append(*folds, aggFold{call: fc, name: name})
		return sqlparser.ColumnRef{Name: name}, nil
	})
	return lifted
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

// isGrouped reports whether a SELECT takes the aggregation path: GROUP BY,
// HAVING, or an aggregate call among its items.
func isGrouped(sel sqlparser.Select) bool {
	if len(sel.GroupBy) > 0 || sel.Having != nil {
		return true
	}
	for _, item := range sel.Items {
		if HasAggregate(item.Expr) {
			return true
		}
	}
	return false
}

// Shardable reports whether the plan's output can be computed over disjoint
// row ranges of its FIRST FROM table and concatenated in range order to
// reproduce the whole execution bit for bit. That holds exactly when nothing
// collapses or reorders rows: every operator is row-wise over the FROM
// relation, the relation is materialized in first-table-major order (single
// table directly; each join of the left-deep loop — cross, hash or theta —
// emits its matches per left row in order), and WHERE only filters. Grouped
// plans collapse rows, DISTINCT / ORDER BY / LIMIT see the whole result, and
// INTO has a catalog side effect, so none of those is shardable. The Monte
// Carlo executor keys world sharding off this: a shardable scenario plan
// evaluated on world ranges [lo,hi) yields partial outputs whose
// concatenation is identical to the single-range execution.
func (p *Plan) Shardable() bool {
	sel := p.sel
	return !p.grouped && !sel.Distinct && len(sel.OrderBy) == 0 && sel.Limit < 0 && sel.Into == ""
}

// ExecCounted runs the plan against an engine's catalog. When c is non-nil
// the execution fills it with per-operator statistics: relation
// cardinalities, the join strategy and per-phase wall time. With c == nil
// no measurement happens. A plan with no FROM and no INTO reads no
// catalog, so e may be nil.
func (p *Plan) ExecCounted(e *Engine, params map[string]value.Value, c *ExecCounters) (*PlanResult, error) {
	st := p.pool.Get().(*planState)
	st.begin(e, params)
	st.counters = c
	res, err := st.run()
	if err != nil {
		st.recycle()
		return nil, err
	}
	return res, nil
}

// colSlot is one reusable column buffer: typed backing vectors grown on
// demand and reused across executions, plus the Column header handed out.
// An index list (idx) rides in the same slot type, so one pool serves
// every buffer an execution needs.
type colSlot struct {
	col   Column
	f     []float64
	i     []int64
	s     []string
	b     []bool
	v     []value.Value
	idx   []int
	nulls bitmap
}

// grow returns buf resized to n elements, reallocating only when its
// capacity is short. The contents are unspecified.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

func (sl *colSlot) floatCol(n int) (*Column, []float64) {
	sl.f = grow(sl.f, n)
	sl.col = Column{kind: ColFloat, n: n, f: sl.f}
	return &sl.col, sl.f
}

func (sl *colSlot) intCol(n int) (*Column, []int64) {
	sl.i = grow(sl.i, n)
	sl.col = Column{kind: ColInt, n: n, i: sl.i}
	return &sl.col, sl.i
}

func (sl *colSlot) boolCol(n int) (*Column, []bool) {
	sl.b = grow(sl.b, n)
	sl.col = Column{kind: ColBool, n: n, b: sl.b}
	return &sl.col, sl.b
}

func (sl *colSlot) stringCol(n int) (*Column, []string) {
	sl.s = grow(sl.s, n)
	sl.col = Column{kind: ColString, n: n, s: sl.s}
	return &sl.col, sl.s
}

func (sl *colSlot) boxedCol(n int) (*Column, []value.Value) {
	sl.v = grow(sl.v, n)
	sl.col = Column{kind: ColBoxed, n: n, v: sl.v}
	return &sl.col, sl.v
}

func (sl *colSlot) nullCol(n int) *Column {
	sl.col = Column{kind: ColNull, n: n}
	return &sl.col
}

// typedCol returns an uninitialized column of the given typed kind.
func (sl *colSlot) typedCol(kind ColKind, n int) *Column {
	switch kind {
	case ColFloat:
		sl.floatCol(n)
	case ColInt:
		sl.intCol(n)
	case ColString:
		sl.stringCol(n)
	default:
		sl.boolCol(n)
	}
	return &sl.col
}

// clearedBitmap returns the slot's reusable null bitmap, zeroed, sized for
// n rows.
func (sl *colSlot) clearedBitmap(n int) bitmap {
	sl.nulls = grow(sl.nulls, (n+63)/64)
	clear(sl.nulls)
	return sl.nulls
}

// floatsInto returns an INT column's rows widened into the slot's float
// buffer.
func (sl *colSlot) floatsInto(c *Column) []float64 {
	sl.f = grow(sl.f, c.n)
	intsToFloatsInto(sl.f, c.i)
	return sl.f
}

// valuesCol stores vals as the densest column that preserves every value
// exactly (the rules of ValuesColumn), using the slot's typed buffers; a
// boxed result keeps vals itself.
func (sl *colSlot) valuesCol(vals []value.Value) *Column {
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
		return sl.nullCol(n)
	case ColBoxed:
		sl.col = Column{kind: ColBoxed, n: n, v: vals}
		return &sl.col
	}
	c := sl.typedCol(kind, n)
	for idx, v := range vals {
		switch v.Kind() {
		case value.KindNull:
			if c.nulls == nil {
				c.nulls = sl.clearedBitmap(n)
			}
			c.nulls.set(idx)
		case value.KindInt:
			c.i[idx], _ = v.AsInt()
		case value.KindFloat:
			c.f[idx], _ = v.AsFloat()
		case value.KindString:
			c.s[idx] = v.AsString()
		default:
			c.b[idx], _ = v.AsBool()
		}
	}
	return c
}

// planState is the per-execution scratch: the bound relation, selection
// and buffer slots. States are pooled per plan and safe to reuse serially;
// concurrent executions draw distinct states.
type planState struct {
	plan     *Plan
	e        *Engine
	params   map[string]value.Value
	counters *ExecCounters // nil on uncounted runs

	schema []colBinding
	tables []*ColTable // the FROM tables, bound per execution
	// cols are the relation's column lists: a join reads its left input
	// from one while writing its output to the other.
	cols    [2][]*Column
	rel     vRel
	accRel  vRel // join inputs, state-owned so they never escape
	nextRel vRel
	needed  []bool

	sel []int // nil = identity selection over rel
	n   int

	selBuf []int
	joinL  []int
	joinR  []int
	build  buildTable // pooled hash-join build-side state

	// slots are the execution's buffers, handed out in order from
	// nextSlot; an execution takes as many as its expressions need, and
	// the grouped executor returns an aggregate's slots once it is folded.
	slots    []*colSlot
	nextSlot int

	itemCols []*Column
	extras   map[string]*Column
	pres     PlanResult
}

func newPlanState(p *Plan) *planState {
	return &planState{
		plan:     p,
		itemCols: make([]*Column, len(p.sel.Items)),
		extras:   make(map[string]*Column, len(p.sel.Items)),
	}
}

func (st *planState) begin(e *Engine, params map[string]value.Value) {
	st.e = e
	st.params = params
	st.nextSlot = 0
	st.sel = nil
	st.n = 0
	clear(st.extras)
}

// recycle returns the state to its plan's pool.
func (st *planState) recycle() {
	st.e = nil
	st.params = nil
	st.counters = nil
	st.plan.pool.Put(st)
}

// slot hands out the execution's next buffer.
func (st *planState) slot() *colSlot {
	if st.nextSlot == len(st.slots) {
		st.slots = append(st.slots, &colSlot{})
	}
	sl := st.slots[st.nextSlot]
	st.nextSlot++
	return sl
}

// ints returns an index buffer of n elements with unspecified contents.
func (st *planState) ints(n int) []int {
	sl := st.slot()
	sl.idx = grow(sl.idx, n)
	return sl.idx
}

// run executes the plan over the engine bound by begin. Phase timing is
// taken only when the execution carries counters, so uncounted runs pay a
// nil check per phase and nothing else.
func (st *planState) run() (*PlanResult, error) {
	p := st.plan
	c := st.counters
	var t0 time.Time
	if c != nil {
		t0 = obs.Now()
	}
	if err := st.bindFrom(); err != nil {
		return nil, err
	}
	st.sel, st.n = nil, st.rel.n
	if c != nil {
		now := obs.Now()
		c.BindNS += now.Sub(t0).Nanoseconds()
		c.RowsIn = int64(st.rel.n)
		c.Grouped = p.grouped
		t0 = now
	}
	if p.sel.Where != nil {
		vc := vctx{st: st, rel: &st.rel}
		cond, err := vc.eval(p.sel.Where, frame{n: st.n})
		if err != nil {
			return nil, err
		}
		st.selBuf = truthyKeepInto(cond, grow(st.selBuf, st.n)[:0])
		if c != nil {
			now := obs.Now()
			c.WhereNS += now.Sub(t0).Nanoseconds()
			c.WhereIn = int64(st.n)
			c.WhereOut = int64(len(st.selBuf))
			t0 = now
		}
		st.sel = st.selBuf
		st.n = len(st.sel)
	}
	var err error
	if p.grouped {
		err = st.runGrouped()
	} else {
		err = st.runProject()
	}
	if err == nil && p.sel.Into != "" {
		err = st.registerInto()
	}
	if err != nil {
		return nil, err
	}
	if c != nil {
		c.EvalNS += obs.Since(t0).Nanoseconds()
		c.RowsOut = int64(st.pres.NumRows())
	}
	return &st.pres, nil
}

// runProject evaluates the select items over the filtered relation, then
// the post-operators.
func (st *planState) runProject() error {
	vc := vctx{st: st, rel: &st.rel, extras: st.extras}
	if err := st.project(&vc); err != nil {
		return err
	}
	return st.finish(&vc, nil)
}

// project evaluates the select items over the current rows (st.sel, st.n),
// each seeing the aliases of the items before it.
func (st *planState) project(vc *vctx) error {
	p := st.plan
	for i, x := range p.items {
		col, err := vc.eval(x, frame{rows: st.sel, n: st.n})
		if err != nil {
			return err
		}
		st.itemCols[i] = col
		if a := p.sel.Items[i].Alias; a != "" {
			st.extras[a] = col
		}
	}
	st.pres = PlanResult{ColResult: ColResult{Cols: p.colNames, Columns: st.itemCols}, st: st}
	return nil
}

// finish runs the DISTINCT → ORDER BY → LIMIT post-operators over the
// projected rows. On a grouped plan groups are the rows' groups, which the
// ORDER BY keys' aggregates fold over; it is nil otherwise. No shipped
// scenario uses the post-operators, so they allocate fresh columns instead
// of drawing on pooled buffers.
func (st *planState) finish(vc *vctx, groups []frame) error {
	p := st.plan
	if p.sel.Distinct {
		if keep := distinctKeep(st.itemCols, st.n); len(keep) < st.n {
			// ORDER BY keys evaluate over the surviving rows only, like
			// the row reference: narrow the selection, the groups and the
			// alias columns.
			st.gatherItems(keep)
			groups = pickFrames(groups, keep)
			if st.sel != nil {
				for j, k := range keep {
					keep[j] = st.sel[k]
				}
			}
			st.sel = keep
		}
	}
	if len(p.orderBy) > 0 {
		if err := st.foldAggs(p.orderAggs, groups); err != nil {
			return err
		}
		keyCols := make([]*Column, len(p.orderBy))
		for j, x := range p.orderBy {
			col, err := vc.eval(x, frame{rows: st.sel, n: st.n})
			if err != nil {
				return err
			}
			keyCols[j] = col
		}
		perm, err := sortPerm(keyCols, p.sel.OrderBy, st.n)
		if err != nil {
			return err
		}
		st.gatherItems(perm)
	}
	if p.sel.Limit >= 0 && int64(st.n) > p.sel.Limit {
		st.gatherItems(identityIdx(int(p.sel.Limit)))
	}
	return nil
}

// gatherItems replaces the projected columns (and the alias columns naming
// them) with their rows at idx.
func (st *planState) gatherItems(idx []int) {
	for i, c := range st.itemCols {
		st.itemCols[i] = c.gather(idx)
		if a := st.plan.sel.Items[i].Alias; a != "" {
			st.extras[a] = st.itemCols[i]
		}
	}
	st.n = len(idx)
}

// registerInto stores the result under the statement's INTO name. The
// columns are copied: the result may alias pooled buffers the next
// execution overwrites, and catalog tables are immutable.
func (st *planState) registerInto() error {
	res := &st.pres.ColResult
	all := identityIdx(res.NumRows())
	cols := make([]*Column, len(res.Columns))
	for j, c := range res.Columns {
		cols[j] = c.gather(all)
	}
	ct, err := NewColTable(st.plan.sel.Into, res.Cols, cols)
	if err != nil {
		return err
	}
	st.e.Catalog.PutColumns(ct)
	return nil
}

// bindFrom resolves the FROM tables in the engine's catalog, builds the
// combined schema, marks the columns the plan's expressions use, and
// materializes the source relation: a single table directly, more tables
// through a left-deep loop of joins that materialize only the marked
// columns.
func (st *planState) bindFrom() error {
	p := st.plan
	st.schema = st.schema[:0]
	st.tables = st.tables[:0]
	if len(p.fromRefs) == 0 {
		st.rel = vRel{n: 1}
		return nil
	}
	for _, ref := range p.fromRefs {
		ct, ok := st.e.Catalog.GetColumns(ref.Name)
		if !ok {
			return fmt.Errorf("sqlengine: unknown table %q", ref.Name)
		}
		st.tables = append(st.tables, ct)
		binding := ref.Name
		if ref.Alias != "" {
			binding = ref.Alias
		}
		for _, c := range ct.Cols {
			st.schema = append(st.schema, colBinding{table: binding, name: c})
		}
	}
	st.markNeeded()

	first := st.tables[0]
	if len(st.tables) == 1 {
		st.cols[0] = append(st.cols[0][:0], first.Columns...)
		st.rel = vRel{schema: st.schema, cols: st.cols[0], n: first.NumRows()}
		return nil
	}
	st.accRel = vRel{schema: st.schema[:len(first.Cols)], cols: first.Columns, n: first.NumRows()}
	for i := 1; i < len(st.tables); i++ {
		if err := st.join(i); err != nil {
			return err
		}
	}
	st.rel = st.accRel
	return nil
}

// join folds FROM table i into the accumulated relation st.accRel: a cross
// product by repeat/tile block copies, an equality ON condition through the
// hash equi-join, and every other shape (non-equality ON, LEFT JOIN without
// ON, unhashable keys, empty sides with conditions) through joinVec.
// The counters keep the last join's strategy and input sizes.
func (st *planState) join(i int) error {
	p := st.plan
	ref := p.fromRefs[i]
	acc, next := &st.accRel, &st.nextRel
	nAcc := len(acc.schema)
	schema := st.schema[:nAcc+len(st.tables[i].Cols)]
	*next = vRel{schema: schema[nAcc:], cols: st.tables[i].Columns, n: st.tables[i].NumRows()}
	if c := st.counters; c != nil {
		c.BuildRows = int64(next.n)
		c.ProbeRows = int64(acc.n)
	}
	out := st.cols[i&1][:0]

	switch {
	case ref.JoinCond == nil && !ref.LeftJoin:
		// Cross product: every needed left column is repeated row-wise and
		// every needed right column tiled, straight into the reusable
		// buffers — no gather index lists, no quadratic intermediates
		// beyond the output itself.
		if c := st.counters; c != nil {
			c.JoinKind = "cross"
		}
		for j, c := range acc.cols {
			if !st.needed[j] {
				out = append(out, nil)
				continue
			}
			out = append(out, crossRepeatInto(st.slot(), c, next.n))
		}
		for j, c := range next.cols {
			if !st.needed[nAcc+j] {
				out = append(out, nil)
				continue
			}
			out = append(out, crossTileInto(st.slot(), c, acc.n))
		}
		st.cols[i&1] = out
		*acc = vRel{schema: schema, cols: out, n: acc.n * next.n}
		return nil
	case p.eqL[i] != nil && acc.n > 0 && next.n > 0:
		if lx, rx, ok := equiJoinSides(p.eqL[i], p.eqR[i], schema, nAcc); ok {
			hashed, err := st.hashEquiJoin(acc, next, lx, rx, ref.LeftJoin)
			if err != nil {
				return err
			}
			if hashed {
				if c := st.counters; c != nil {
					c.JoinKind = "hash"
				}
				st.cols[i&1] = st.gatherSides(out, acc, next, nAcc, st.joinL, st.joinR)
				*acc = vRel{schema: schema, cols: st.cols[i&1], n: len(st.joinL)}
				return nil
			}
		}
	}
	if c := st.counters; c != nil {
		c.JoinKind = "interpreted"
	}
	n, err := st.joinVec(acc, next, schema, ref)
	if err != nil {
		return err
	}
	st.cols[i&1] = st.gatherSides(out, acc, next, nAcc, st.joinL, st.joinR)
	*acc = vRel{schema: schema, cols: st.cols[i&1], n: n}
	return nil
}

// gatherSides appends to out the needed columns of the joined relation:
// acc's gathered by li, next's by ri (-1 pads NULL, the LEFT JOIN).
func (st *planState) gatherSides(out []*Column, acc, next *vRel, nAcc int, li, ri []int) []*Column {
	for j, c := range acc.cols {
		if !st.needed[j] {
			out = append(out, nil)
			continue
		}
		out = append(out, gatherPadInto(st.slot(), c, li))
	}
	for j, c := range next.cols {
		if !st.needed[nAcc+j] {
			out = append(out, nil)
			continue
		}
		out = append(out, gatherPadInto(st.slot(), c, ri))
	}
	return out
}

// markNeeded derives which relation columns must be materialized: every
// column when the plan uses them all, else those the plan's expressions
// reference. An unresolvable reference is skipped here; the expression
// operator reports it if and when it evaluates, exactly like the row
// engine.
func (st *planState) markNeeded() {
	p := st.plan
	st.needed = grow(st.needed, len(st.schema))
	for i := range st.needed {
		st.needed[i] = p.usedAll
	}
	for _, spec := range p.colRefs {
		if idx := findBinding(st.schema, spec.table, spec.name); idx >= 0 {
			st.needed[idx] = true
		}
	}
}

// gatherPadInto gathers rows idx[0], idx[1], … of c into a slot buffer; -1
// indexes pad NULL rows.
func gatherPadInto(sl *colSlot, c *Column, idx []int) *Column {
	n := len(idx)
	switch c.kind {
	case ColNull:
		return sl.nullCol(n)
	case ColBoxed:
		_, out := sl.boxedCol(n)
		for j, i := range idx {
			if i >= 0 {
				out[j] = c.v[i]
			} else {
				out[j] = value.Null
			}
		}
		return &sl.col
	}
	var nulls bitmap
	srcNulls := c.nulls
	pad := false
	for _, i := range idx {
		if i < 0 {
			pad = true
			break
		}
	}
	if srcNulls != nil || pad {
		nulls = sl.clearedBitmap(n)
		hasNull := false
		for j, i := range idx {
			if i < 0 || (srcNulls != nil && srcNulls.get(i)) {
				nulls.set(j)
				hasNull = true
			}
		}
		if !hasNull {
			nulls = nil
		}
	}
	switch c.kind {
	case ColFloat:
		_, out := sl.floatCol(n)
		for j, i := range idx {
			if i >= 0 {
				out[j] = c.f[i]
			} else {
				out[j] = 0
			}
		}
	case ColInt:
		_, out := sl.intCol(n)
		for j, i := range idx {
			if i >= 0 {
				out[j] = c.i[i]
			} else {
				out[j] = 0
			}
		}
	case ColString:
		_, out := sl.stringCol(n)
		for j, i := range idx {
			if i >= 0 {
				out[j] = c.s[i]
			} else {
				out[j] = ""
			}
		}
	case ColBool:
		_, out := sl.boolCol(n)
		for j, i := range idx {
			if i >= 0 {
				out[j] = c.b[i]
			} else {
				out[j] = false
			}
		}
	}
	sl.col.nulls = nulls
	return &sl.col
}

// crossRepeatInto materializes the left side of a cross product: each of
// the column's rows repeated `times` consecutively (worlds-major order).
func crossRepeatInto(sl *colSlot, c *Column, times int) *Column {
	n := c.n * times
	switch c.kind {
	case ColNull:
		return sl.nullCol(n)
	case ColBoxed:
		_, out := sl.boxedCol(n)
		k := 0
		for i := 0; i < c.n; i++ {
			v := c.v[i]
			for r := 0; r < times; r++ {
				out[k] = v
				k++
			}
		}
		return &sl.col
	}
	var nulls bitmap
	if c.nulls != nil {
		nulls = sl.clearedBitmap(n)
		for i := 0; i < c.n; i++ {
			if c.nulls.get(i) {
				for r := 0; r < times; r++ {
					nulls.set(i*times + r)
				}
			}
		}
	}
	switch c.kind {
	case ColFloat:
		_, out := sl.floatCol(n)
		k := 0
		for _, v := range c.f {
			for r := 0; r < times; r++ {
				out[k] = v
				k++
			}
		}
	case ColInt:
		_, out := sl.intCol(n)
		k := 0
		for _, v := range c.i {
			for r := 0; r < times; r++ {
				out[k] = v
				k++
			}
		}
	case ColString:
		_, out := sl.stringCol(n)
		k := 0
		for _, v := range c.s {
			for r := 0; r < times; r++ {
				out[k] = v
				k++
			}
		}
	case ColBool:
		_, out := sl.boolCol(n)
		k := 0
		for _, v := range c.b {
			for r := 0; r < times; r++ {
				out[k] = v
				k++
			}
		}
	}
	sl.col.nulls = nulls
	return &sl.col
}

// crossTileInto materializes the right side of a cross product: the whole
// column tiled `count` times (copy per tile, so the dimension side of a
// worlds × dimension join is a handful of memmoves per block).
func crossTileInto(sl *colSlot, c *Column, count int) *Column {
	n := c.n * count
	switch c.kind {
	case ColNull:
		return sl.nullCol(n)
	case ColBoxed:
		_, out := sl.boxedCol(n)
		for t := 0; t < count; t++ {
			copy(out[t*c.n:], c.v)
		}
		return &sl.col
	}
	var nulls bitmap
	if c.nulls != nil {
		nulls = sl.clearedBitmap(n)
		for i := 0; i < c.n; i++ {
			if c.nulls.get(i) {
				for t := 0; t < count; t++ {
					nulls.set(t*c.n + i)
				}
			}
		}
	}
	switch c.kind {
	case ColFloat:
		_, out := sl.floatCol(n)
		for t := 0; t < count; t++ {
			copy(out[t*c.n:], c.f)
		}
	case ColInt:
		_, out := sl.intCol(n)
		for t := 0; t < count; t++ {
			copy(out[t*c.n:], c.i)
		}
	case ColString:
		_, out := sl.stringCol(n)
		for t := 0; t < count; t++ {
			copy(out[t*c.n:], c.s)
		}
	case ColBool:
		_, out := sl.boolCol(n)
		for t := 0; t < count; t++ {
			copy(out[t*c.n:], c.b)
		}
	}
	sl.col.nulls = nulls
	return &sl.col
}

// truthyKeepInto appends the positions where the column is truthy to keep.
func truthyKeepInto(c *Column, keep []int) []int {
	switch c.kind {
	case ColNull:
		return keep
	case ColBool:
		for i, v := range c.b {
			if v && !(c.nulls != nil && c.nulls.get(i)) {
				keep = append(keep, i)
			}
		}
	case ColInt:
		for i, v := range c.i {
			if v != 0 && !(c.nulls != nil && c.nulls.get(i)) {
				keep = append(keep, i)
			}
		}
	case ColFloat:
		for i, v := range c.f {
			if v != 0 && !(c.nulls != nil && c.nulls.get(i)) {
				keep = append(keep, i)
			}
		}
	default:
		for i := 0; i < c.n; i++ {
			if c.Value(i).Truthy() {
				keep = append(keep, i)
			}
		}
	}
	return keep
}

// splatInto broadcasts one value into a slot buffer.
func splatInto(sl *colSlot, v value.Value, n int) *Column {
	switch v.Kind() {
	case value.KindInt:
		iv, _ := v.AsInt()
		_, out := sl.intCol(n)
		for i := range out {
			out[i] = iv
		}
	case value.KindFloat:
		fv, _ := v.AsFloat()
		_, out := sl.floatCol(n)
		for i := range out {
			out[i] = fv
		}
	case value.KindString:
		sv := v.AsString()
		_, out := sl.stringCol(n)
		for i := range out {
			out[i] = sv
		}
	case value.KindBool:
		bv, _ := v.AsBool()
		_, out := sl.boolCol(n)
		for i := range out {
			out[i] = bv
		}
	default:
		return sl.nullCol(n)
	}
	return &sl.col
}
