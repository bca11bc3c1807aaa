package sqlengine

import (
	"fmt"

	"fuzzyprophet/internal/sqlparser"
	"fuzzyprophet/internal/value"
)

// This file is the Plan's expression operator — the one evaluator outside
// tests, behind projection, WHERE, HAVING, ORDER BY keys, join conditions
// and keys, GROUP BY keys, aggregate arguments and constant expressions
// (a Plan with no FROM): expressions evaluate to whole Columns over a selection
// (frame) instead of one boxed value per row. Laziness-sensitive constructs
// — AND/OR short-circuiting, CASE arms, IN item lists — narrow the
// selection before evaluating their conditional sub-expressions, so an
// error (say, a division by zero in an untaken CASE arm) surfaces exactly
// when the row engine would surface it and never otherwise. Operations on
// typed numeric columns run in tight unboxed loops; columns holding strings,
// bools in arithmetic positions, or mixed kinds degrade to per-row boxed
// evaluation with semantics identical to the row engine by construction.
//
// Every column, null bitmap and index list the evaluator produces is drawn
// from the execution's pooled slots (planState.slot), so a warm execution
// allocates nothing on the shapes the scenarios generate.

// vRel is an intermediate columnar relation: a qualified schema over
// column vectors.
type vRel struct {
	schema []colBinding
	cols   []*Column
	n      int
}

// frame is the selection context of one vectorized evaluation: rows maps
// frame positions to base-relation row indices, pos maps frame positions to
// positions of the alias (extras) columns captured when projection started.
// nil means the identity mapping; n is the frame length.
type frame struct {
	rows []int
	pos  []int
	n    int
}

func (fr frame) row(k int) int {
	if fr.rows == nil {
		return k
	}
	return fr.rows[k]
}

func (fr frame) epos(k int) int {
	if fr.pos == nil {
		return k
	}
	return fr.pos[k]
}

// vctx is the evaluation environment of one plan execution: the state that
// owns the parameters and buffers, the relation column references resolve
// against, and the extra columns unqualified names see first — the alias
// columns of earlier select items and, in a grouped plan, the folded
// aggregates.
type vctx struct {
	st     *planState
	rel    *vRel
	extras map[string]*Column
}

// narrow restricts the frame to the given frame positions.
func (vc *vctx) narrow(fr frame, keep []int) frame {
	if fr.rows == nil && fr.pos == nil {
		return frame{rows: keep, pos: keep, n: len(keep)}
	}
	buf := vc.st.ints(2 * len(keep))
	rows, pos := buf[:len(keep)], buf[len(keep):]
	for j, k := range keep {
		rows[j] = fr.row(k)
		pos[j] = fr.epos(k)
	}
	return frame{rows: rows, pos: pos, n: len(keep)}
}

// gather gathers col by idx into a slot, passing the column through
// untouched for the identity selection (columns are immutable, so sharing
// is safe).
func (vc *vctx) gather(col *Column, idx []int) *Column {
	if idx == nil {
		return col
	}
	return gatherPadInto(vc.st.slot(), col, idx)
}

// eval evaluates a non-aggregate expression over the frame, returning a
// column of fr.n rows. Aggregate calls reaching this path are an error; a
// grouped plan lifts them out at compile time.
func (vc *vctx) eval(x sqlparser.Expr, fr frame) (*Column, error) {
	switch n := x.(type) {
	case sqlparser.Literal:
		return splatInto(vc.st.slot(), n.Val, fr.n), nil
	case sqlparser.ParamRef:
		if v, ok := vc.st.params[n.Name]; ok {
			return splatInto(vc.st.slot(), v, fr.n), nil
		}
		return nil, fmt.Errorf("sqlengine: unbound parameter @%s", n.Name)
	case sqlparser.ColumnRef:
		return vc.evalColumnRef(n, fr)
	case sqlparser.Unary:
		return vc.evalUnary(n, fr)
	case sqlparser.Binary:
		return vc.evalBinary(n, fr)
	case sqlparser.Case:
		return vc.evalCase(n, fr)
	case sqlparser.Between:
		return vc.evalBetween(n, fr)
	case sqlparser.InList:
		return vc.evalInList(n, fr)
	case sqlparser.IsNull:
		x, err := vc.eval(n.X, fr)
		if err != nil {
			return nil, err
		}
		col, out := vc.st.slot().boolCol(fr.n)
		for i := range out {
			out[i] = x.IsNull(i) != n.Not
		}
		return col, nil
	case sqlparser.FuncCall:
		return vc.evalFunc(n, fr)
	default:
		return nil, fmt.Errorf("sqlengine: unsupported expression %T", x)
	}
}

func (vc *vctx) evalColumnRef(n sqlparser.ColumnRef, fr frame) (*Column, error) {
	if n.Table == "" {
		if col, ok := vc.extras[n.Name]; ok {
			return vc.gather(col, fr.pos), nil
		}
	}
	if vc.rel == nil {
		return nil, fmt.Errorf("sqlengine: column %q referenced outside a row context", n.Name)
	}
	idx, err := lookupBinding(vc.rel.schema, n.Table, n.Name)
	if err != nil {
		return nil, err
	}
	return vc.gather(vc.rel.cols[idx], fr.rows), nil
}

func (vc *vctx) evalUnary(n sqlparser.Unary, fr frame) (*Column, error) {
	x, err := vc.eval(n.X, fr)
	if err != nil {
		return nil, err
	}
	sl := vc.st.slot()
	if n.Op == "NOT" {
		t, err := truthInto(vc.st.slot(), x)
		if err != nil {
			return nil, err
		}
		col, out := sl.boolCol(fr.n)
		for i, v := range t.b {
			out[i] = !v
		}
		col.nulls = t.nulls
		return col, nil
	}
	// Arithmetic negation.
	switch x.kind {
	case ColNull:
		return sl.nullCol(fr.n), nil
	case ColInt:
		col, out := sl.intCol(fr.n)
		for i, v := range x.i {
			out[i] = -v
		}
		col.nulls = x.nulls
		return col, nil
	case ColFloat:
		col, out := sl.floatCol(fr.n)
		for i, v := range x.f {
			out[i] = -v
		}
		col.nulls = x.nulls
		return col, nil
	default:
		// Strings/bools error per row exactly as value.Neg does.
		_, out := sl.boxedCol(fr.n)
		for i := range out {
			v, err := value.Neg(x.Value(i))
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return sl.valuesCol(out), nil
	}
}

// Tri-state boolean values of three-valued logic.
const (
	triFalse uint8 = iota
	triTrue
	triNull
)

// tri returns row i of a BOOL column (as produced by truthInto) as a
// three-valued truth.
func tri(c *Column, i int) uint8 {
	switch {
	case c.nulls != nil && c.nulls.get(i):
		return triNull
	case c.b[i]:
		return triTrue
	}
	return triFalse
}

// truthInto converts a column to BOOL under the row engine's conversion:
// NULL stays NULL, numbers are true when non-zero, and a non-NULL string
// that is not a boolean is an error. BOOL columns pass through.
func truthInto(sl *colSlot, c *Column) (*Column, error) {
	if c.kind == ColBool {
		return c, nil
	}
	col, out := sl.boolCol(c.n)
	switch c.kind {
	case ColNull:
		col.nulls = sl.clearedBitmap(c.n)
		col.nulls.setAll(c.n)
	case ColInt:
		for i, v := range c.i {
			out[i] = v != 0
		}
		col.nulls = c.nulls
	case ColFloat:
		for i, v := range c.f {
			out[i] = v != 0
		}
		col.nulls = c.nulls
	default:
		var nulls bitmap
		for i := range out {
			v := c.Value(i)
			if v.IsNull() {
				if nulls == nil {
					nulls = sl.clearedBitmap(c.n)
				}
				nulls.set(i)
				continue
			}
			b, err := v.AsBool()
			if err != nil {
				return nil, err
			}
			out[i] = b
		}
		col.nulls = nulls
	}
	return col, nil
}

// truthyKeep returns the frame positions where the column is truthy (SQL
// WHERE semantics: NULL and non-boolean values count as false).
func (vc *vctx) truthyKeep(c *Column) []int {
	return truthyKeepInto(c, vc.st.ints(c.n)[:0])
}

func (vc *vctx) evalBinary(n sqlparser.Binary, fr frame) (*Column, error) {
	if n.Op == "AND" || n.Op == "OR" {
		return vc.evalLogical(n, fr)
	}
	l, err := vc.eval(n.L, fr)
	if err != nil {
		return nil, err
	}
	r, err := vc.eval(n.R, fr)
	if err != nil {
		return nil, err
	}
	switch n.Op {
	case "+", "-", "*", "/", "%":
		return vc.arith(n.Op[0], l, r)
	case "=", "<>", "<", "<=", ">", ">=":
		return vc.compare(n.Op, l, r)
	default:
		return nil, fmt.Errorf("sqlengine: unknown operator %q", n.Op)
	}
}

// evalLogical implements AND/OR with SQL three-valued logic. The right
// operand is evaluated only over the rows the left side does not determine,
// mirroring the row engine's short-circuit (and its error behavior).
func (vc *vctx) evalLogical(n sqlparser.Binary, fr frame) (*Column, error) {
	l, err := vc.eval(n.L, fr)
	if err != nil {
		return nil, err
	}
	lt, err := truthInto(vc.st.slot(), l)
	if err != nil {
		return nil, err
	}
	and := n.Op == "AND"
	// Rows whose result the left side does not already determine.
	undecided := vc.st.ints(fr.n)[:0]
	for i := 0; i < fr.n; i++ {
		if v := tri(lt, i); and && v != triFalse || !and && v != triTrue {
			undecided = append(undecided, i)
		}
	}
	var rt *Column
	if len(undecided) > 0 {
		r, err := vc.eval(n.R, vc.narrow(fr, undecided))
		if err != nil {
			return nil, err
		}
		if r.kind == ColString || r.kind == ColBoxed {
			// The row engine converts the right operand leniently when the
			// left side is NULL (an unconvertible value counts as false)
			// and strictly otherwise — replicate that per row.
			sl := vc.st.slot()
			var out []bool
			rt, out = sl.boolCol(r.n)
			for j := range out {
				if r.IsNull(j) {
					if rt.nulls == nil {
						rt.nulls = sl.clearedBitmap(r.n)
					}
					rt.nulls.set(j)
					continue
				}
				b, err := r.Value(j).AsBool()
				if err != nil && tri(lt, undecided[j]) != triNull {
					return nil, err
				}
				out[j] = err == nil && b // lenient: unconvertible is false
			}
		} else if rt, err = truthInto(vc.st.slot(), r); err != nil {
			return nil, err
		}
	}
	sl := vc.st.slot()
	col, out := sl.boolCol(fr.n)
	setNull := func(i int) {
		if col.nulls == nil {
			col.nulls = sl.clearedBitmap(fr.n)
		}
		col.nulls.set(i)
	}
	j := 0
	for i := range out {
		v := tri(lt, i)
		if and && v == triFalse || !and && v == triTrue {
			out[i] = !and
			continue
		}
		rv := tri(rt, j)
		j++
		switch {
		case and && rv == triFalse:
			// false ∧ anything = false (even NULL left).
			out[i] = false
		case !and && rv == triTrue:
			out[i] = true
		case v == triNull || rv == triNull:
			out[i] = false
			setNull(i)
		default:
			// true ∧ true = true; false ∨ false = false.
			out[i] = and
		}
	}
	return col, nil
}

// arith applies an arithmetic operator element-wise with SQL NULL
// propagation and the value system's type rules: INT op INT stays integral
// except division, anything involving FLOAT widens, non-numeric operands
// degrade to the boxed path (which reports the row engine's errors). The
// typed folds run through the shared cores in kernels.go: a no-nulls
// unrolled fast path, and a bitmap-masked path only where NULL rows must be
// skipped (division/modulo zero checks).
func (vc *vctx) arith(op byte, l, r *Column) (*Column, error) {
	n := l.n
	sl := vc.st.slot()
	if l.kind == ColNull || r.kind == ColNull {
		return sl.nullCol(n), nil
	}
	if !l.isTypedNumeric() || !r.isTypedNumeric() {
		return boxedArith(sl, op, l, r)
	}
	nulls, buf := mergeNullsInto(sl.nulls, n, l.nulls, r.nulls)
	sl.nulls = buf
	var col *Column
	var err error
	if l.kind == ColInt && r.kind == ColInt && op != '/' {
		var out []int64
		col, out = sl.intCol(n)
		switch op {
		case '+':
			addIntsInto(out, l.i, r.i)
		case '-':
			subIntsInto(out, l.i, r.i)
		case '*':
			mulIntsInto(out, l.i, r.i)
		case '%':
			err = modIntsInto(out, l.i, r.i, nulls)
		}
	} else {
		lf, rf := vc.floats(l), vc.floats(r)
		var out []float64
		col, out = sl.floatCol(n)
		switch op {
		case '+':
			addFloatsInto(out, lf, rf)
		case '-':
			subFloatsInto(out, lf, rf)
		case '*':
			mulFloatsInto(out, lf, rf)
		case '/':
			err = divFloatsInto(out, lf, rf, nulls)
		case '%':
			err = modFloatsInto(out, lf, rf, nulls)
		}
	}
	if err != nil {
		return nil, err
	}
	col.nulls = nulls
	return col, nil
}

// floats returns a typed numeric column's rows as a float64 view, widening
// INT columns into a slot.
func (vc *vctx) floats(c *Column) []float64 {
	if c.kind == ColFloat {
		return c.f
	}
	return vc.st.slot().floatsInto(c)
}

// boxedArith is the per-row fallback delegating to the value package, which
// defines the semantics both engines share.
func boxedArith(sl *colSlot, op byte, l, r *Column) (*Column, error) {
	apply := value.Add
	switch op {
	case '-':
		apply = value.Sub
	case '*':
		apply = value.Mul
	case '/':
		apply = value.Div
	case '%':
		apply = value.Mod
	}
	_, out := sl.boxedCol(l.n)
	for i := range out {
		v, err := apply(l.Value(i), r.Value(i))
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return sl.valuesCol(out), nil
}

// sameFamily reports whether compare can run over l and r without a
// per-row kind error: a NULL side, or typed columns of one comparison
// family.
func sameFamily(l, r *Column) bool {
	switch {
	case l.kind == ColNull || r.kind == ColNull:
		return true
	case l.isTypedNumeric() && r.isTypedNumeric():
		return true
	}
	return l.kind == r.kind && (l.kind == ColString || l.kind == ColBool)
}

// compare applies a comparison operator element-wise: NULL operands yield
// NULL, typed same-family columns compare in unboxed loops, anything else
// degrades to per-row value.Compare (including its kind errors).
func (vc *vctx) compare(op string, l, r *Column) (*Column, error) {
	n := l.n
	sl := vc.st.slot()
	if l.kind == ColNull || r.kind == ColNull {
		return sl.nullCol(n), nil
	}
	col, out := sl.boolCol(n)
	if sameFamily(l, r) {
		// NULL rows compare to garbage, but the merged bitmap overrides the
		// stored bool, so the compare loop runs branch-free over every row.
		nulls, buf := mergeNullsInto(sl.nulls, n, l.nulls, r.nulls)
		sl.nulls = buf
		switch {
		case l.kind == ColInt && r.kind == ColInt:
			cmpIntsInto(op, out, l.i, r.i)
		case l.isTypedNumeric():
			cmpFloatsInto(op, out, vc.floats(l), vc.floats(r))
		case l.kind == ColString:
			cmpStringsInto(op, out, l.s, r.s)
		default:
			cmpBoolsInto(op, out, l.b, r.b)
		}
		col.nulls = nulls
		return col, nil
	}
	for i := range out {
		a, b := l.Value(i), r.Value(i)
		if a.IsNull() || b.IsNull() {
			if col.nulls == nil {
				col.nulls = sl.clearedBitmap(n)
			}
			col.nulls.set(i)
			continue
		}
		c, err := value.Compare(a, b)
		if err != nil {
			return nil, err
		}
		out[i] = decideCmp(op, c)
	}
	return col, nil
}

// decideCmp applies a comparison operator to a three-way comparison result.
func decideCmp(op string, c int) bool {
	switch op {
	case "=":
		return c == 0
	case "<>":
		return c != 0
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	default:
		return c >= 0
	}
}

// evalCase evaluates CASE. A CASE of the scenarios' shape — every
// condition a comparison and every arm a column, literal or parameter —
// runs as one mask-and-pick pass when its operands cannot raise (see
// pickCase). Every other CASE partitions the selection: each arm's THEN
// (and the ELSE) runs only over the rows its condition selects, so
// conditionally-guarded errors behave exactly as in row-at-a-time order.
func (vc *vctx) evalCase(n sqlparser.Case, fr frame) (*Column, error) {
	if pickable(n) {
		mark := vc.st.nextSlot
		if col, ok := vc.pickCase(n, fr); ok {
			return col, nil
		}
		vc.st.nextSlot = mark
	}
	type part struct {
		idx []int // output positions (within the merge target)
		col *Column
	}
	var parts []part
	remaining := fr
	var remOut []int // nil = identity
	for _, w := range n.Whens {
		if remaining.n == 0 {
			break
		}
		cond, err := vc.eval(w.Cond, remaining)
		if err != nil {
			return nil, err
		}
		taken := vc.truthyKeep(cond)
		if len(taken) == 0 {
			continue
		}
		notTaken := vc.complementKeep(remaining.n, taken)
		thenCol, err := vc.eval(w.Then, vc.narrow(remaining, taken))
		if err != nil {
			return nil, err
		}
		parts = append(parts, part{idx: vc.pickIdx(remOut, taken), col: thenCol})
		remOut = vc.pickIdx(remOut, notTaken)
		remaining = vc.narrow(remaining, notTaken)
	}
	if n.Else != nil && remaining.n > 0 {
		elseCol, err := vc.eval(n.Else, remaining)
		if err != nil {
			return nil, err
		}
		if remOut == nil {
			remOut = vc.complementKeep(remaining.n, nil) // identity
		}
		parts = append(parts, part{idx: remOut, col: elseCol})
	}

	// Merge the arms into one column; positions no arm covers are NULL.
	// Arms of one typed kind merge unboxed; mixed kinds merge boxed so
	// every value survives exactly.
	kind := ColNull
	for _, p := range parts {
		if k := p.col.kind; k != ColNull && kind == ColNull {
			kind = k
		} else if k != ColNull && k != kind {
			kind = ColBoxed
		}
	}
	sl := vc.st.slot()
	switch kind {
	case ColNull:
		return sl.nullCol(fr.n), nil
	case ColBoxed:
		_, out := sl.boxedCol(fr.n)
		clear(out)
		for _, p := range parts {
			for j, i := range p.idx {
				out[i] = p.col.Value(j)
			}
		}
		return sl.valuesCol(out), nil
	}
	out := sl.typedCol(kind, fr.n)
	nulls := sl.clearedBitmap(fr.n)
	nulls.setAll(fr.n)
	for _, p := range parts {
		for j, i := range p.idx {
			if !p.col.IsNull(j) {
				nulls.clear(i)
				out.copyRow(i, p.col, j)
			}
		}
	}
	if nulls.any() {
		out.nulls = nulls
	}
	return out, nil
}

// copyRow sets row i of the typed column c to row j of src, a column of
// the same kind.
func (c *Column) copyRow(i int, src *Column, j int) {
	switch c.kind {
	case ColFloat:
		c.f[i] = src.f[j]
	case ColInt:
		c.i[i] = src.i[j]
	case ColString:
		c.s[i] = src.s[j]
	default:
		c.b[i] = src.b[j]
	}
}

// pickable reports whether a CASE has the one-pass shape: every condition
// a comparison, every arm (and the ELSE) a column, literal or parameter.
func pickable(n sqlparser.Case) bool {
	operand := func(x sqlparser.Expr) bool {
		switch x.(type) {
		case sqlparser.ColumnRef, sqlparser.Literal, sqlparser.ParamRef:
			return true
		}
		return false
	}
	for _, w := range n.Whens {
		cmp, ok := w.Cond.(sqlparser.Binary)
		if !ok || !operand(cmp.L) || !operand(cmp.R) || !operand(w.Then) {
			return false
		}
		switch cmp.Op {
		case "=", "<>", "<", "<=", ">", ">=":
		default:
			return false
		}
	}
	return n.Else == nil || operand(n.Else)
}

// pickCase evaluates a pickable CASE in one pass per arm over the whole
// frame: the ELSE fills the result, then the arms apply from last to first,
// each overwriting the rows its condition takes, so every row ends with its
// first taken arm. That is the narrowing evaluation's result exactly when no
// operand can raise on the rows the narrowing would skip, so ok=false — the
// caller narrows instead — whenever an operand fails to resolve (an unknown
// column or unbound parameter may sit in an arm no row takes), a comparison
// could raise a kind error, or the arms are not all of one typed kind (mixed
// arms merge boxed; a NULL literal arm has no kind).
func (vc *vctx) pickCase(n sqlparser.Case, fr frame) (col *Column, ok bool) {
	sl := vc.st.slot()
	var nulls bitmap
	if n.Else == nil {
		// Rows no arm takes are NULL.
		nulls = sl.clearedBitmap(fr.n)
		nulls.setAll(fr.n)
	} else if !vc.pickInto(sl, &col, &nulls, n.Else, nil, fr) {
		return nil, false
	}
	for w := len(n.Whens) - 1; w >= 0; w-- {
		cmp := n.Whens[w].Cond.(sqlparser.Binary)
		l, lerr := vc.eval(cmp.L, fr)
		r, rerr := vc.eval(cmp.R, fr)
		if lerr != nil || rerr != nil || !sameFamily(l, r) {
			return nil, false
		}
		cond, _ := vc.compare(cmp.Op, l, r)
		if cond.kind == ColNull {
			continue // a NULL operand side: no row takes this arm
		}
		// cond is this execution's own buffer: fold its NULL rows into
		// "not taken".
		take := cond.b
		if cond.nulls != nil {
			for i := range take {
				take[i] = take[i] && !cond.nulls.get(i)
			}
		}
		if !vc.pickInto(sl, &col, &nulls, n.Whens[w].Then, take, fr) {
			return nil, false
		}
	}
	if col == nil {
		return sl.nullCol(fr.n), true // no ELSE, and every condition NULL
	}
	if nulls != nil && nulls.any() {
		col.nulls = nulls
	}
	return col, true
}

// pickInto resolves one CASE arm — a literal or bound parameter as a
// constant, a column reference as a column — and writes it into the rows
// of the result that take selects (every row when take is nil). The result
// column is created in sl on the first call; nulls tracks its NULL rows
// once any arm or the missing ELSE produces one.
func (vc *vctx) pickInto(sl *colSlot, col **Column, nulls *bitmap, x sqlparser.Expr, take []bool, fr frame) bool {
	var src Column // a constant arm leaves src's vectors nil
	c := value.Null
	switch x := x.(type) {
	case sqlparser.Literal:
		c = x.Val
	case sqlparser.ParamRef:
		v, ok := vc.st.params[x.Name]
		if !ok {
			return false
		}
		c = v
	default:
		s, err := vc.eval(x, fr)
		if err != nil {
			return false
		}
		src = *s
	}
	kind := src.kind
	switch c.Kind() {
	case value.KindInt:
		kind = ColInt
	case value.KindFloat:
		kind = ColFloat
	case value.KindString:
		kind = ColString
	case value.KindBool:
		kind = ColBool
	}
	if kind == ColNull || kind == ColBoxed || (*col != nil && (*col).kind != kind) {
		return false
	}
	if *col == nil {
		*col = sl.typedCol(kind, fr.n)
	}
	dst := *col
	switch kind {
	case ColFloat:
		f, _ := c.AsFloat()
		pickTyped(dst.f, src.f, f, take)
	case ColInt:
		i, _ := c.AsInt()
		pickTyped(dst.i, src.i, i, take)
	case ColString:
		pickTyped(dst.s, src.s, c.AsString(), take)
	default:
		b, _ := c.AsBool()
		pickTyped(dst.b, src.b, b, take)
	}
	if *nulls == nil && src.nulls == nil {
		return true
	}
	if *nulls == nil {
		*nulls = sl.clearedBitmap(fr.n)
	}
	for i := 0; i < fr.n; i++ {
		switch {
		case take != nil && !take[i]:
		case src.nulls != nil && src.nulls.get(i):
			nulls.set(i)
		default:
			nulls.clear(i)
		}
	}
	return true
}

// pickTyped writes src — the constant c when src is nil — into dst at the
// rows take selects, every row when take is nil. Both candidate values are
// loaded before the choice, so the loops compile to conditional moves: a
// mask that flips at random (the scenarios' thresholds) costs no branch
// mispredictions.
func pickTyped[T any](dst, src []T, c T, take []bool) {
	switch {
	case take == nil && src == nil:
		for i := range dst {
			dst[i] = c
		}
	case take == nil:
		copy(dst, src)
	case src == nil:
		for i, t := range take[:len(dst)] {
			v := dst[i]
			if t {
				v = c
			}
			dst[i] = v
		}
	default:
		src = src[:len(dst)]
		for i, t := range take[:len(dst)] {
			v, w := dst[i], src[i]
			if t {
				v = w
			}
			dst[i] = v
		}
	}
}

// complementKeep returns the positions of [0,n) not present in keep (which
// must be sorted ascending, as produced by truthyKeep).
func (vc *vctx) complementKeep(n int, keep []int) []int {
	out := vc.st.ints(n - len(keep))[:0]
	j := 0
	for i := 0; i < n; i++ {
		if j < len(keep) && keep[j] == i {
			j++
			continue
		}
		out = append(out, i)
	}
	return out
}

// pickIdx composes an output-position mapping (nil = identity) with a keep
// list.
func (vc *vctx) pickIdx(outIdx []int, keep []int) []int {
	picked := vc.st.ints(len(keep))
	for j, k := range keep {
		if outIdx == nil {
			picked[j] = k
		} else {
			picked[j] = outIdx[k]
		}
	}
	return picked
}

func identityIdx(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// evalBetween evaluates x BETWEEN lo AND hi; all three operands evaluate
// unconditionally (as in the row engine), comparisons run per row.
func (vc *vctx) evalBetween(n sqlparser.Between, fr frame) (*Column, error) {
	x, err := vc.eval(n.X, fr)
	if err != nil {
		return nil, err
	}
	lo, err := vc.eval(n.Lo, fr)
	if err != nil {
		return nil, err
	}
	hi, err := vc.eval(n.Hi, fr)
	if err != nil {
		return nil, err
	}
	sl := vc.st.slot()
	col, out := sl.boolCol(fr.n)
	for i := range out {
		xv, lv, hv := x.Value(i), lo.Value(i), hi.Value(i)
		if xv.IsNull() || lv.IsNull() || hv.IsNull() {
			if col.nulls == nil {
				col.nulls = sl.clearedBitmap(fr.n)
			}
			col.nulls.set(i)
			continue
		}
		cl, err := value.Compare(xv, lv)
		if err != nil {
			return nil, err
		}
		ch, err := value.Compare(xv, hv)
		if err != nil {
			return nil, err
		}
		out[i] = (cl >= 0 && ch <= 0) != n.Not
	}
	return col, nil
}

// evalInList evaluates x IN (items…). Items evaluate left to right, each
// only over the rows not yet matched — the row engine's per-row
// break-on-match behavior, vectorized.
func (vc *vctx) evalInList(n sqlparser.InList, fr frame) (*Column, error) {
	x, err := vc.eval(n.X, fr)
	if err != nil {
		return nil, err
	}
	sl := vc.st.slot()
	col, found := sl.boolCol(fr.n)
	clear(found)
	candidates := vc.st.ints(fr.n)[:0]
	for i := range found {
		if x.IsNull(i) {
			if col.nulls == nil {
				col.nulls = sl.clearedBitmap(fr.n)
			}
			col.nulls.set(i)
			continue
		}
		candidates = append(candidates, i)
	}
	remaining := vc.narrow(fr, candidates)
	remOut := candidates
	for _, item := range n.Items {
		if remaining.n == 0 {
			break
		}
		icol, err := vc.eval(item, remaining)
		if err != nil {
			return nil, err
		}
		still := vc.st.ints(remaining.n)[:0]
		for j := 0; j < remaining.n; j++ {
			iv := icol.Value(j)
			if !iv.IsNull() && x.Value(remOut[j]).Equal(iv) {
				found[remOut[j]] = true
				continue
			}
			still = append(still, j)
		}
		if len(still) < remaining.n {
			remOut = vc.pickIdx(remOut, still)
			remaining = vc.narrow(remaining, still)
		}
	}
	if n.Not {
		for i := range found {
			found[i] = !found[i]
		}
	}
	return col, nil
}

// evalFunc evaluates a scalar function call: argument columns are computed
// vectorized, then the call dispatches per row to the scalar builtins (the
// hot render path contains no scalar calls — VG calls were rewritten to
// column references by the Query Generator).
func (vc *vctx) evalFunc(n sqlparser.FuncCall, fr frame) (*Column, error) {
	if isAggregateName(n.Name) {
		return nil, fmt.Errorf("sqlengine: aggregate %s used outside an aggregation context", n.Name)
	}
	argCols := make([]*Column, len(n.Args))
	for i, a := range n.Args {
		c, err := vc.eval(a, fr)
		if err != nil {
			return nil, err
		}
		argCols[i] = c
	}
	_, args := vc.st.slot().boxedCol(len(argCols))
	sl := vc.st.slot()
	_, out := sl.boxedCol(fr.n)
	for i := range out {
		for j, c := range argCols {
			args[j] = c.Value(i)
		}
		v, err := callBuiltin(n.Name, args)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return sl.valuesCol(out), nil
}
