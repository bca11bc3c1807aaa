package sqlengine

import (
	"fmt"
	"sync"
	"time"

	"fuzzyprophet/internal/obs"
	"fuzzyprophet/internal/sqlparser"
	"fuzzyprophet/internal/value"
)

// Compiled scenario plans: a SELECT is compiled ONCE into a Plan — a tree
// of pre-bound operator kernels — and then executed many times (one graph
// render evaluates the same rewritten scenario query at every X position
// over every world). Execution is allocation-free after warm-up: every
// operator writes into plan-owned column buffers held by a pooled
// planState, FROM binds catalog tables by name per execution (so one plan
// serves every evaluator/catalog of a scenario), joins produce gather
// index lists into reused buffers, and the result is handed out as a
// PlanResult that recycles its state on Release.
//
// Compilation never fails and every SELECT compiles: the Plan is the
// engine's only production driver. FROM is a left-deep loop over any number
// of tables (cross, hash equi-join or theta join per table), non-grouped
// DISTINCT / ORDER BY / LIMIT run as post-operators over the projected
// columns, INTO registers the result in the catalog, and any expression the
// kernel compiler does not cover runs through the general-expression
// operator (veval.go) over the same relation. The differential suite
// asserts the Plan against the row reference executor (ExecScriptRow).
//
// Plans are immutable after CompileSelect/CompileScript and safe for
// concurrent Exec: each execution borrows an isolated planState from the
// plan's pool (concurrent renders of one scenario share one plan).

// Plan is one SELECT compiled into reusable kernels and buffers.
type Plan struct {
	sel     sqlparser.Select
	grouped bool
	// post: the result passes through a post-operator (non-grouped DISTINCT,
	// ORDER BY, LIMIT) or an INTO registration after projection.
	post bool

	fromRefs []sqlparser.TableRef
	// eqL[i]/eqR[i] are the two operands of FROM entry i's ON condition when
	// it is a single equality, split once at compile time (side resolution
	// still happens at bind, against the catalog-dependent schema).
	eqL, eqR []sqlparser.Expr
	whereK   kernel
	items    []itemPlan
	orderK   []kernel // non-grouped ORDER BY keys
	colNames []string

	colRefs []colRefSpec
	// gatherSlot[i] is the fixed slot colRef spec i gathers through when a
	// selection is active.
	gatherSlot []int
	usedAll    bool // materialize every relation column (grouped plans, deep joins)
	slots      int  // number of fixed buffer slots

	pool sync.Pool
}

// kernel evaluates one compiled expression over the state's current
// selection, returning a column of st.n rows (usually backed by a plan
// buffer, valid until the execution's PlanResult is released).
type kernel func(st *planState) (*Column, error)

type itemPlan struct {
	k     kernel
	alias string
}

type colRefSpec struct{ table, name string }

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

// ScriptPlan is a script compiled statement-by-statement.
type ScriptPlan struct {
	plans []*Plan
}

// CompileScript compiles every SELECT of a script; Exec runs them in order
// and returns the last result (nil when the script holds no SELECT).
func CompileScript(script *sqlparser.Script) *ScriptPlan {
	sp := &ScriptPlan{}
	for _, stx := range script.Statements {
		if sel, ok := stx.(sqlparser.Select); ok {
			sp.plans = append(sp.plans, CompileSelect(sel))
		}
	}
	return sp
}

// Exec runs the script's statements on the engine. Intermediate results
// are released; the caller releases the returned one.
func (sp *ScriptPlan) Exec(e *Engine, params map[string]value.Value) (*PlanResult, error) {
	var last *PlanResult
	for _, p := range sp.plans {
		if last != nil {
			last.Release()
		}
		res, err := p.Exec(e, params)
		if err != nil {
			return nil, err
		}
		last = res
	}
	return last, nil
}

// CompileSelect compiles one SELECT into a reusable plan.
func CompileSelect(sel sqlparser.Select) *Plan {
	p := &Plan{sel: sel, fromRefs: sel.From, grouped: isGrouped(sel)}
	p.pool.New = func() any { return newPlanState(p) }
	p.post = sel.Into != "" || (!p.grouped && (sel.Distinct || len(sel.OrderBy) > 0 || sel.Limit >= 0))

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

	c := &compiler{p: p, specIDs: map[colRefSpec]int{}}
	if sel.Where != nil {
		p.whereK = c.compileRoot(sel.Where, nil)
	}
	if p.grouped {
		// Grouped execution delegates grouping, aggregation and the
		// per-group scalar glue to the grouped executor over the compiled
		// FROM/WHERE relation — lazy per-group aggregate argument evaluation
		// is part of the engines' error semantics.
		p.usedAll = true
		return p
	}
	aliases := map[string]int{}
	for i, item := range sel.Items {
		p.items = append(p.items, itemPlan{k: c.compileRoot(item.Expr, aliases), alias: item.Alias})
		p.colNames = append(p.colNames, outputName(item, i))
		if item.Alias != "" {
			aliases[item.Alias] = i
		}
	}
	for _, k := range sel.OrderBy {
		p.orderK = append(p.orderK, c.compileRoot(k.Expr, aliases))
	}
	return p
}

// isGrouped reports whether a SELECT takes the aggregation path: GROUP BY,
// HAVING, or an aggregate call among its items.
func isGrouped(sel sqlparser.Select) bool {
	if len(sel.GroupBy) > 0 || sel.Having != nil {
		return true
	}
	for _, item := range sel.Items {
		if hasAggregate(item.Expr) {
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
func (p *Plan) Shardable() bool { return !p.grouped && !p.post }

// Exec runs the plan against an engine's catalog.
func (p *Plan) Exec(e *Engine, params map[string]value.Value) (*PlanResult, error) {
	return p.ExecCounted(e, params, nil)
}

// ExecCounted is Exec with per-operator statistics: when c is non-nil the
// execution fills it with relation cardinalities, the join strategy and
// per-phase wall time. With c == nil no measurement happens — Exec's hot
// path is byte-for-byte the same work as before.
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
type colSlot struct {
	col   Column
	f     []float64
	i     []int64
	s     []string
	b     []bool
	v     []value.Value
	nulls bitmap
}

func (sl *colSlot) floatCol(n int) (*Column, []float64) {
	if cap(sl.f) < n {
		sl.f = make([]float64, n)
	}
	sl.f = sl.f[:n]
	sl.col = Column{kind: ColFloat, n: n, f: sl.f}
	return &sl.col, sl.f
}

func (sl *colSlot) intCol(n int) (*Column, []int64) {
	if cap(sl.i) < n {
		sl.i = make([]int64, n)
	}
	sl.i = sl.i[:n]
	sl.col = Column{kind: ColInt, n: n, i: sl.i}
	return &sl.col, sl.i
}

func (sl *colSlot) boolCol(n int) (*Column, []bool) {
	if cap(sl.b) < n {
		sl.b = make([]bool, n)
	}
	sl.b = sl.b[:n]
	sl.col = Column{kind: ColBool, n: n, b: sl.b}
	return &sl.col, sl.b
}

func (sl *colSlot) stringCol(n int) (*Column, []string) {
	if cap(sl.s) < n {
		sl.s = make([]string, n)
	}
	sl.s = sl.s[:n]
	sl.col = Column{kind: ColString, n: n, s: sl.s}
	return &sl.col, sl.s
}

func (sl *colSlot) boxedCol(n int) (*Column, []value.Value) {
	if cap(sl.v) < n {
		sl.v = make([]value.Value, n)
	}
	sl.v = sl.v[:n]
	sl.col = Column{kind: ColBoxed, n: n, v: sl.v}
	return &sl.col, sl.v
}

func (sl *colSlot) nullCol(n int) *Column {
	sl.col = Column{kind: ColNull, n: n}
	return &sl.col
}

// clearedBitmap returns the slot's reusable null bitmap, zeroed, sized for
// n rows.
func (sl *colSlot) clearedBitmap(n int) bitmap {
	words := (n + 63) / 64
	if cap(sl.nulls) < words {
		sl.nulls = make(bitmap, words)
	}
	sl.nulls = sl.nulls[:words]
	for i := range sl.nulls {
		sl.nulls[i] = 0
	}
	return sl.nulls
}

// floatsInto returns the column's rows as a float64 view, widening int
// columns into the slot's buffer (no allocation after warm-up). Only valid
// for typed numeric columns.
func (sl *colSlot) floatsInto(c *Column) []float64 {
	if c.kind == ColFloat {
		return c.f
	}
	if cap(sl.f) < c.n {
		sl.f = make([]float64, c.n)
	}
	sl.f = sl.f[:c.n]
	intsToFloatsInto(sl.f, c.i)
	return sl.f
}

// planState is the per-execution scratch: the bound relation, selection,
// buffer slots and caches. States are pooled per plan and safe to reuse
// serially; concurrent executions draw distinct states.
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

	colIdx []int     // per colRef spec: resolved schema index (-1: unresolved)
	baseG  []*Column // per colRef spec: selection-gathered column cache

	sel []int // nil = identity selection over rel
	n   int

	selBuf []int
	joinL  []int
	joinR  []int
	build  buildTable // pooled hash-join build-side state

	fixSlots []*colSlot
	dynSlots []*colSlot
	dynNext  int

	itemCols []*Column
	extras   map[string]*Column
	pres     PlanResult

	cs caseScratch
}

// caseScratch is the fused-CASE kernel's per-execution operand scratch.
// Fused operands are simple (no nested CASE), so one scratch per state
// suffices.
type caseScratch struct {
	condLC, condRC []*Column
	condLV, condRV []value.Value
	outC           []*Column
	outV           []value.Value
	masks          [][]bool
	// Primitive output descriptors, precomputed before the pick loop so
	// the per-row scan touches no boxed values: for arm w, either
	// outColF/outColI[w] is the source slice, or outConstF/outConstI[w]
	// holds the constant.
	outColF   [][]float64
	outColI   [][]int64
	outNulls  []bitmap
	outConstF []float64
	outConstI []int64
}

func (cs *caseScratch) reset(nWhens int) {
	grow := func(n int) {
		if cap(cs.condLC) < n {
			cs.condLC = make([]*Column, n)
			cs.condRC = make([]*Column, n)
			cs.condLV = make([]value.Value, n)
			cs.condRV = make([]value.Value, n)
			cs.outC = make([]*Column, n)
			cs.outV = make([]value.Value, n)
			cs.masks = make([][]bool, n)
			cs.outColF = make([][]float64, n)
			cs.outColI = make([][]int64, n)
			cs.outNulls = make([]bitmap, n)
			cs.outConstF = make([]float64, n)
			cs.outConstI = make([]int64, n)
		}
	}
	grow(nWhens)
	cs.condLC = cs.condLC[:nWhens]
	cs.condRC = cs.condRC[:nWhens]
	cs.condLV = cs.condLV[:nWhens]
	cs.condRV = cs.condRV[:nWhens]
	cs.outC = cs.outC[:nWhens]
	cs.outV = cs.outV[:nWhens]
	cs.masks = cs.masks[:nWhens]
	cs.outColF = cs.outColF[:nWhens]
	cs.outColI = cs.outColI[:nWhens]
	cs.outNulls = cs.outNulls[:nWhens]
	cs.outConstF = cs.outConstF[:nWhens]
	cs.outConstI = cs.outConstI[:nWhens]
}

func newPlanState(p *Plan) *planState {
	st := &planState{
		plan:     p,
		colIdx:   make([]int, len(p.colRefs)),
		baseG:    make([]*Column, len(p.colRefs)),
		fixSlots: make([]*colSlot, p.slots),
		itemCols: make([]*Column, len(p.items)),
		extras:   make(map[string]*Column, len(p.items)),
	}
	for i := range st.fixSlots {
		st.fixSlots[i] = &colSlot{}
	}
	return st
}

func (st *planState) begin(e *Engine, params map[string]value.Value) {
	st.e = e
	st.params = params
	st.dynNext = 0
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

func (st *planState) slot(id int) *colSlot { return st.fixSlots[id] }

func (st *planState) dynSlot() *colSlot {
	if st.dynNext == len(st.dynSlots) {
		st.dynSlots = append(st.dynSlots, &colSlot{})
	}
	sl := st.dynSlots[st.dynNext]
	st.dynNext++
	return sl
}

func (st *planState) clearGatherCache() {
	for i := range st.baseG {
		st.baseG[i] = nil
	}
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
	st.clearGatherCache()
	if c != nil {
		now := obs.Now()
		c.BindNS += now.Sub(t0).Nanoseconds()
		c.RowsIn = int64(st.rel.n)
		c.Grouped = p.grouped
		t0 = now
	}
	if p.whereK != nil {
		cond, err := p.whereK(st)
		if err != nil {
			return nil, err
		}
		if cap(st.selBuf) < st.n {
			st.selBuf = make([]int, 0, st.n)
		}
		st.selBuf = truthyKeepInto(cond, st.selBuf[:0])
		if c != nil {
			now := obs.Now()
			c.WhereNS += now.Sub(t0).Nanoseconds()
			c.WhereIn = int64(st.n)
			c.WhereOut = int64(len(st.selBuf))
			t0 = now
		}
		st.sel = st.selBuf
		st.n = len(st.sel)
		st.clearGatherCache()
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

// runProject evaluates the item kernels over the filtered relation, then
// the DISTINCT → ORDER BY → LIMIT post-operators. No shipped scenario uses
// the post-operators, so they allocate fresh columns instead of drawing on
// pooled buffers.
func (st *planState) runProject() error {
	p := st.plan
	for i := range p.items {
		col, err := p.items[i].k(st)
		if err != nil {
			return err
		}
		st.itemCols[i] = col
		if a := p.items[i].alias; a != "" {
			st.extras[a] = col
		}
	}
	st.pres = PlanResult{ColResult: ColResult{Cols: p.colNames, Columns: st.itemCols}, st: st}
	if !p.post {
		return nil
	}
	if p.sel.Distinct {
		if keep := distinctKeep(st.itemCols, st.n); len(keep) < st.n {
			// ORDER BY keys evaluate over the surviving rows only, like
			// the row reference: narrow the selection and the alias columns.
			st.gatherItems(keep)
			if st.sel != nil {
				for j, k := range keep {
					keep[j] = st.sel[k]
				}
			}
			st.sel = keep
			st.clearGatherCache()
		}
	}
	if len(p.orderK) > 0 {
		keyCols := make([]*Column, len(p.orderK))
		for j, k := range p.orderK {
			col, err := k(st)
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
		if a := st.plan.items[i].alias; a != "" {
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

// runGrouped hands the filtered relation to the grouped executor, which
// owns grouped semantics — lazy per-group aggregate evaluation, HAVING,
// ORDER BY contexts.
func (st *planState) runGrouped() error {
	p := st.plan
	fr := frame{rows: st.sel, n: st.n}
	res, orderEnvs, err := st.e.execGroupedVec(p.sel, &st.rel, fr, st.params)
	if err != nil {
		return err
	}
	if p.sel.Distinct {
		res, orderEnvs = dedupeRows(res, orderEnvs)
	}
	if len(p.sel.OrderBy) > 0 {
		if err := st.e.orderResult(res, orderEnvs, p.sel.OrderBy); err != nil {
			return err
		}
	}
	if p.sel.Limit >= 0 && int64(len(res.Rows)) > p.sel.Limit {
		res.Rows = res.Rows[:p.sel.Limit]
	}
	st.pres = PlanResult{ColResult: *colResultFromResult(res), st: st}
	return nil
}

// bindFrom resolves the FROM tables in the engine's catalog, builds the
// combined schema, resolves the plan's column references against it, and
// materializes the source relation: a single table directly, more tables
// through a left-deep loop of joins. Only columns the plan actually uses
// are materialized on the cross and hash paths.
func (st *planState) bindFrom() error {
	p := st.plan
	st.schema = st.schema[:0]
	st.tables = st.tables[:0]
	if len(p.fromRefs) == 0 {
		st.rel = vRel{n: 1}
		st.resolveSpecs()
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
	st.resolveSpecs()

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
			out = append(out, crossRepeatInto(st.dynSlot(), c, next.n))
		}
		for j, c := range next.cols {
			if !st.needed[nAcc+j] {
				out = append(out, nil)
				continue
			}
			out = append(out, crossTileInto(st.dynSlot(), c, acc.n))
		}
		st.cols[i&1] = out
		*acc = vRel{schema: schema, cols: out, n: acc.n * next.n}
		return nil
	case p.eqL[i] != nil && acc.n > 0 && next.n > 0:
		if lx, rx, ok := equiJoinSides(p.eqL[i], p.eqR[i], schema, nAcc); ok {
			outL, outR, hashed, err := st.e.hashEquiJoin(acc, next, lx, rx, ref.LeftJoin, st.params, st.joinL[:0], st.joinR[:0], &st.build)
			if err != nil {
				return err
			}
			if hashed {
				if c := st.counters; c != nil {
					c.JoinKind = "hash"
				}
				st.joinL, st.joinR = outL, outR
				// Gather the needed columns through the plan buffers; -1
				// right entries pad NULL (LEFT JOIN).
				for j, c := range acc.cols {
					if !st.needed[j] {
						out = append(out, nil)
						continue
					}
					out = append(out, gatherPadInto(st.dynSlot(), c, outL))
				}
				for j, c := range next.cols {
					if !st.needed[nAcc+j] {
						out = append(out, nil)
						continue
					}
					out = append(out, gatherPadInto(st.dynSlot(), c, outR))
				}
				st.cols[i&1] = out
				*acc = vRel{schema: schema, cols: out, n: len(outL)}
				return nil
			}
		}
	}
	if c := st.counters; c != nil {
		c.JoinKind = "interpreted"
	}
	joined, err := st.e.joinVec(acc, next, schema, ref, st.params)
	if err != nil {
		return err
	}
	*acc = *joined
	return nil
}

// resolveSpecs binds the plan's column references against the current
// schema and derives which relation columns must be materialized.
// Resolution failures are deliberately ignored here: the referencing
// kernel reports them if and when it actually evaluates, exactly like the
// interpreted evaluator.
func (st *planState) resolveSpecs() {
	p := st.plan
	if cap(st.needed) < len(st.schema) {
		st.needed = make([]bool, len(st.schema))
	}
	st.needed = st.needed[:len(st.schema)]
	for i := range st.needed {
		st.needed[i] = p.usedAll
	}
	for i, spec := range p.colRefs {
		idx := findBinding(st.schema, spec.table, spec.name)
		st.colIdx[i] = idx
		if idx >= 0 {
			st.needed[idx] = true
		}
	}
}

// colRefCol resolves one compiled column reference over the current
// selection, caching the gathered column for the rest of the pass (several
// expressions usually reference the same base columns).
func (st *planState) colRefCol(spec int) (*Column, error) {
	if c := st.baseG[spec]; c != nil {
		return c, nil
	}
	idx := st.colIdx[spec]
	if idx < 0 {
		// Unresolved at bind: surface the interpreted path's error now.
		ref := st.plan.colRefs[spec]
		_, err := lookupBinding(st.schema, ref.table, ref.name)
		if err == nil {
			err = fmt.Errorf("sqlengine: column %q resolved inconsistently", ref.name)
		}
		return nil, err
	}
	base := st.rel.cols[idx]
	if st.sel == nil {
		st.baseG[spec] = base
		return base, nil
	}
	col := gatherPadInto(st.slot(st.plan.gatherSlot[spec]), base, st.sel)
	st.baseG[spec] = col
	return col, nil
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
