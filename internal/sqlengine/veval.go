package sqlengine

import (
	"fmt"

	"fuzzyprophet/internal/sqlparser"
	"fuzzyprophet/internal/value"
)

// This file is the Plan's general-expression operator — the vectorized
// evaluator behind fallbackKernel, join conditions and the grouped
// executor: expressions evaluate to whole Columns over a selection (frame)
// instead of one boxed value per row. Laziness-sensitive constructs —
// AND/OR short-circuiting, CASE arms, IN item lists — narrow the selection
// before evaluating their conditional sub-expressions, so an error (say, a
// division by zero in an untaken CASE arm) surfaces exactly when the row
// engine would surface it and never otherwise. Operations on typed numeric
// columns run in tight unboxed loops; columns holding strings, bools in
// arithmetic positions, or mixed kinds degrade gracefully to per-row boxed
// evaluation with semantics identical to the row engine by construction.

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

func fullFrame(n int) frame { return frame{n: n} }

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

// narrow restricts the frame to the given frame positions.
func (fr frame) narrow(keep []int) frame {
	rows := make([]int, len(keep))
	pos := make([]int, len(keep))
	for j, k := range keep {
		rows[j] = fr.row(k)
		pos[j] = fr.epos(k)
	}
	return frame{rows: rows, pos: pos, n: len(keep)}
}

// vctx is the vectorized evaluation environment: parameter bindings, the
// base relation, alias columns from earlier select items, and the function
// resolver chain.
type vctx struct {
	params   map[string]value.Value
	rel      *vRel
	extras   map[string]*Column
	resolver FuncResolver
}

// gatherIdent gathers col by idx, passing the column through untouched for
// the identity selection (columns are immutable, so sharing is safe).
func gatherIdent(col *Column, idx []int) *Column {
	if idx == nil {
		return col
	}
	return col.gather(idx)
}

// splatValue broadcasts one boxed value to a fresh column of length n.
func splatValue(v value.Value, n int) *Column {
	return splatInto(new(colSlot), v, n)
}

// eval evaluates a non-aggregate expression over the frame, returning a
// column of fr.n rows. Aggregate calls reaching this path are an error; the
// grouped executor substitutes them earlier.
func (vc *vctx) eval(x sqlparser.Expr, fr frame) (*Column, error) {
	switch n := x.(type) {
	case sqlparser.Literal:
		return splatValue(n.Val, fr.n), nil
	case sqlparser.ParamRef:
		if vc.params != nil {
			if v, ok := vc.params[n.Name]; ok {
				return splatValue(v, fr.n), nil
			}
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
		out := make([]bool, fr.n)
		for i := range out {
			out[i] = x.IsNull(i) != n.Not
		}
		return BoolColumn(out), nil
	case sqlparser.FuncCall:
		return vc.evalFunc(n, fr)
	default:
		return nil, fmt.Errorf("sqlengine: unsupported expression %T", x)
	}
}

func (vc *vctx) evalColumnRef(n sqlparser.ColumnRef, fr frame) (*Column, error) {
	if n.Table == "" && vc.extras != nil {
		if col, ok := vc.extras[n.Name]; ok {
			return gatherIdent(col, fr.pos), nil
		}
	}
	if vc.rel == nil {
		return nil, fmt.Errorf("sqlengine: column %q referenced outside a row context", n.Name)
	}
	idx, err := lookupBinding(vc.rel.schema, n.Table, n.Name)
	if err != nil {
		return nil, err
	}
	return gatherIdent(vc.rel.cols[idx], fr.rows), nil
}

func (vc *vctx) evalUnary(n sqlparser.Unary, fr frame) (*Column, error) {
	x, err := vc.eval(n.X, fr)
	if err != nil {
		return nil, err
	}
	if n.Op == "NOT" {
		t, err := triBoolColumn(x)
		if err != nil {
			return nil, err
		}
		out := make([]bool, fr.n)
		nulls := bitmap(nil)
		for i, v := range t {
			switch v {
			case triNull:
				if nulls == nil {
					nulls = newBitmap(fr.n)
				}
				nulls.set(i)
			case triTrue:
				out[i] = false
			default:
				out[i] = true
			}
		}
		return &Column{kind: ColBool, n: fr.n, b: out, nulls: nulls}, nil
	}
	// Arithmetic negation.
	switch x.kind {
	case ColNull:
		return nullColumn(fr.n), nil
	case ColInt:
		out := make([]int64, fr.n)
		for i, v := range x.i {
			out[i] = -v
		}
		return &Column{kind: ColInt, n: fr.n, i: out, nulls: x.nulls}, nil
	case ColFloat:
		out := make([]float64, fr.n)
		for i, v := range x.f {
			out[i] = -v
		}
		return &Column{kind: ColFloat, n: fr.n, f: out, nulls: x.nulls}, nil
	default:
		// Strings/bools error per row exactly as value.Neg does.
		out := make([]value.Value, fr.n)
		for i := 0; i < fr.n; i++ {
			v, err := value.Neg(x.Value(i))
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return ValuesColumn(out), nil
	}
}

// Tri-state boolean values used for three-valued logic masks.
const (
	triFalse uint8 = iota
	triTrue
	triNull
)

// triBoolColumn converts a column to a three-valued boolean mask, with the
// row engine's conversion errors (a non-NULL string is not a boolean).
func triBoolColumn(c *Column) ([]uint8, error) {
	out := make([]uint8, c.n)
	switch c.kind {
	case ColNull:
		for i := range out {
			out[i] = triNull
		}
		return out, nil
	case ColBool:
		for i, v := range c.b {
			if c.nulls != nil && c.nulls.get(i) {
				out[i] = triNull
			} else if v {
				out[i] = triTrue
			}
		}
		return out, nil
	case ColInt:
		for i, v := range c.i {
			if c.nulls != nil && c.nulls.get(i) {
				out[i] = triNull
			} else if v != 0 {
				out[i] = triTrue
			}
		}
		return out, nil
	case ColFloat:
		for i, v := range c.f {
			if c.nulls != nil && c.nulls.get(i) {
				out[i] = triNull
			} else if v != 0 {
				out[i] = triTrue
			}
		}
		return out, nil
	default:
		for i := 0; i < c.n; i++ {
			v := c.Value(i)
			if v.IsNull() {
				out[i] = triNull
				continue
			}
			b, err := v.AsBool()
			if err != nil {
				return nil, err
			}
			if b {
				out[i] = triTrue
			}
		}
		return out, nil
	}
}

// truthyKeep returns the frame positions where the column is truthy (SQL
// WHERE semantics: NULL and non-boolean values count as false).
func truthyKeep(c *Column) []int {
	return truthyKeepInto(c, make([]int, 0, c.n))
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
		return arithColumns(n.Op[0], l, r)
	case "=", "<>", "<", "<=", ">", ">=":
		return compareColumns(n.Op, l, r)
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
	lt, err := triBoolColumn(l)
	if err != nil {
		return nil, err
	}
	and := n.Op == "AND"
	// Rows whose result the left side does not already determine.
	undecided := make([]int, 0, fr.n)
	for i, v := range lt {
		if and && v != triFalse || !and && v != triTrue {
			undecided = append(undecided, i)
		}
	}
	var rt []uint8
	if len(undecided) > 0 {
		r, err := vc.eval(n.R, fr.narrow(undecided))
		if err != nil {
			return nil, err
		}
		switch r.kind {
		case ColString, ColBoxed:
			// The row engine converts the right operand leniently when the
			// left side is NULL (an unconvertible value counts as false)
			// and strictly otherwise — replicate that per row.
			rt = make([]uint8, r.n)
			for j := 0; j < r.n; j++ {
				if r.IsNull(j) {
					rt[j] = triNull
					continue
				}
				b, err := r.Value(j).AsBool()
				if err != nil {
					if lt[undecided[j]] == triNull {
						continue // lenient: treated as false
					}
					return nil, err
				}
				if b {
					rt[j] = triTrue
				}
			}
		default:
			rt, err = triBoolColumn(r)
			if err != nil {
				return nil, err
			}
		}
	}
	out := make([]bool, fr.n)
	var nulls bitmap
	setNull := func(i int) {
		if nulls == nil {
			nulls = newBitmap(fr.n)
		}
		nulls.set(i)
	}
	if and {
		// Everything defaults to false; decided-true and null rows below.
		j := 0
		for i, v := range lt {
			if v == triFalse {
				continue
			}
			rv := rt[j]
			j++
			switch {
			case rv == triFalse:
				// false ∧ anything = false (even NULL left).
			case v == triNull || rv == triNull:
				setNull(i)
			default:
				out[i] = true
			}
		}
	} else {
		j := 0
		for i, v := range lt {
			if v == triTrue {
				out[i] = true
				continue
			}
			rv := rt[j]
			j++
			switch {
			case rv == triTrue:
				out[i] = true
			case v == triNull || rv == triNull:
				setNull(i)
			default:
				// false ∨ false = false.
			}
		}
	}
	return &Column{kind: ColBool, n: fr.n, b: out, nulls: nulls}, nil
}

// arithColumns applies an arithmetic operator element-wise with SQL NULL
// propagation and the value system's type rules: INT op INT stays integral
// except division, anything involving FLOAT widens, non-numeric operands
// degrade to the boxed path (which reports the row engine's errors). The
// typed folds run through the shared cores in kernels.go: a no-nulls
// unrolled fast path, and a bitmap-masked path only where NULL rows must be
// skipped (division/modulo zero checks).
func arithColumns(op byte, l, r *Column) (*Column, error) {
	n := l.n
	if l.kind == ColNull || r.kind == ColNull {
		return nullColumn(n), nil
	}
	if !l.isTypedNumeric() || !r.isTypedNumeric() {
		return boxedArith(op, l, r)
	}
	nulls := mergedNulls(n, l.nulls, r.nulls)
	if l.kind == ColInt && r.kind == ColInt && op != '/' {
		out := make([]int64, n)
		switch op {
		case '+':
			addIntsInto(out, l.i, r.i)
		case '-':
			subIntsInto(out, l.i, r.i)
		case '*':
			mulIntsInto(out, l.i, r.i)
		case '%':
			if err := modIntsInto(out, l.i, r.i, nulls); err != nil {
				return nil, err
			}
		}
		return &Column{kind: ColInt, n: n, i: out, nulls: nulls}, nil
	}
	lf, rf := l.floats(), r.floats()
	out := make([]float64, n)
	switch op {
	case '+':
		addFloatsInto(out, lf, rf)
	case '-':
		subFloatsInto(out, lf, rf)
	case '*':
		mulFloatsInto(out, lf, rf)
	case '/':
		if err := divFloatsInto(out, lf, rf, nulls); err != nil {
			return nil, err
		}
	case '%':
		if err := modFloatsInto(out, lf, rf, nulls); err != nil {
			return nil, err
		}
	}
	return &Column{kind: ColFloat, n: n, f: out, nulls: nulls}, nil
}

// boxedArith is the per-row fallback delegating to the value package, which
// defines the semantics both engines share.
func boxedArith(op byte, l, r *Column) (*Column, error) {
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
	out := make([]value.Value, l.n)
	for i := 0; i < l.n; i++ {
		v, err := apply(l.Value(i), r.Value(i))
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return ValuesColumn(out), nil
}

// compareColumns applies a comparison operator element-wise: NULL operands
// yield NULL, typed same-family columns compare in unboxed loops, anything
// else degrades to per-row value.Compare (including its kind errors).
func compareColumns(op string, l, r *Column) (*Column, error) {
	n := l.n
	if l.kind == ColNull || r.kind == ColNull {
		return nullColumn(n), nil
	}
	out := make([]bool, n)
	switch {
	case l.isTypedNumeric() && r.isTypedNumeric():
		// NULL rows compare to garbage, but the merged bitmap overrides the
		// stored bool, so the compare loop runs branch-free over every row.
		nulls := mergedNulls(n, l.nulls, r.nulls)
		if l.kind == ColInt && r.kind == ColInt {
			cmpIntsInto(op, out, l.i, r.i)
		} else {
			cmpFloatsInto(op, out, l.floats(), r.floats())
		}
		return &Column{kind: ColBool, n: n, b: out, nulls: nulls}, nil
	case l.kind == ColString && r.kind == ColString:
		nulls := mergedNulls(n, l.nulls, r.nulls)
		cmpStringsInto(op, out, l.s, r.s)
		return &Column{kind: ColBool, n: n, b: out, nulls: nulls}, nil
	case l.kind == ColBool && r.kind == ColBool:
		nulls := mergedNulls(n, l.nulls, r.nulls)
		cmpBoolsInto(op, out, l.b, r.b)
		return &Column{kind: ColBool, n: n, b: out, nulls: nulls}, nil
	}
	decide := func(c int) bool {
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
	var nulls bitmap
	for i := 0; i < n; i++ {
		a, b := l.Value(i), r.Value(i)
		if a.IsNull() || b.IsNull() {
			if nulls == nil {
				nulls = newBitmap(n)
			}
			nulls.set(i)
			continue
		}
		c, err := value.Compare(a, b)
		if err != nil {
			return nil, err
		}
		out[i] = decide(c)
	}
	return &Column{kind: ColBool, n: n, b: out, nulls: nulls}, nil
}

// scatterPart is one conditional branch's contribution to a merged column.
type scatterPart struct {
	idx []int // output positions (within the merge target)
	col *Column
}

// mergeScatter combines branch results into one column of length n;
// positions no part covers are NULL. Branches of one typed kind merge
// unboxed; mixed kinds merge boxed so every value survives exactly.
func mergeScatter(n int, parts []scatterPart) *Column {
	kind := ColNull
	for _, p := range parts {
		k := p.col.kind
		if k == ColNull {
			continue
		}
		if kind == ColNull {
			kind = k
		} else if kind != k {
			kind = ColBoxed
			break
		}
	}
	if kind == ColNull {
		return nullColumn(n)
	}
	if kind == ColBoxed {
		out := make([]value.Value, n)
		for _, p := range parts {
			for j, i := range p.idx {
				out[i] = p.col.Value(j)
			}
		}
		return ValuesColumn(out)
	}
	out := &Column{kind: kind, n: n, nulls: newBitmap(n)}
	out.nulls.setAll(n)
	switch kind {
	case ColFloat:
		out.f = make([]float64, n)
	case ColInt:
		out.i = make([]int64, n)
	case ColString:
		out.s = make([]string, n)
	case ColBool:
		out.b = make([]bool, n)
	}
	for _, p := range parts {
		for j, i := range p.idx {
			if p.col.IsNull(j) {
				continue
			}
			out.nulls.clear(i)
			switch kind {
			case ColFloat:
				out.f[i] = p.col.f[j]
			case ColInt:
				out.i[i] = p.col.i[j]
			case ColString:
				out.s[i] = p.col.s[j]
			case ColBool:
				out.b[i] = p.col.b[j]
			}
		}
	}
	if !out.nulls.any() {
		out.nulls = nil
	}
	return out
}

// pickIdx composes an output-position mapping with a keep list.
func pickIdx(outIdx []int, keep []int) []int {
	picked := make([]int, len(keep))
	for j, k := range keep {
		if outIdx == nil {
			picked[j] = k
		} else {
			picked[j] = outIdx[k]
		}
	}
	return picked
}

// evalCase evaluates CASE by partitioning the selection: each arm's THEN
// (and the ELSE) runs only over the rows its condition selects, so
// conditionally-guarded errors behave exactly as in row-at-a-time order.
func (vc *vctx) evalCase(n sqlparser.Case, fr frame) (*Column, error) {
	var parts []scatterPart
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
		taken := truthyKeep(cond)
		if len(taken) > 0 {
			notTaken := complementKeep(remaining.n, taken)
			thenCol, err := vc.eval(w.Then, remaining.narrow(taken))
			if err != nil {
				return nil, err
			}
			parts = append(parts, scatterPart{idx: pickIdx(remOut, taken), col: thenCol})
			remOut = pickIdx(remOut, notTaken)
			remaining = remaining.narrow(notTaken)
		}
	}
	if n.Else != nil && remaining.n > 0 {
		elseCol, err := vc.eval(n.Else, remaining)
		if err != nil {
			return nil, err
		}
		idx := remOut
		if idx == nil {
			idx = identityIdx(remaining.n)
		}
		parts = append(parts, scatterPart{idx: idx, col: elseCol})
	}
	return mergeScatter(fr.n, parts), nil
}

func identityIdx(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// complementKeep returns the positions of [0,n) not present in keep (which
// must be sorted ascending, as produced by truthyKeep).
func complementKeep(n int, keep []int) []int {
	out := make([]int, 0, n-len(keep))
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
	out := make([]bool, fr.n)
	var nulls bitmap
	for i := 0; i < fr.n; i++ {
		xv, lv, hv := x.Value(i), lo.Value(i), hi.Value(i)
		if xv.IsNull() || lv.IsNull() || hv.IsNull() {
			if nulls == nil {
				nulls = newBitmap(fr.n)
			}
			nulls.set(i)
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
		in := cl >= 0 && ch <= 0
		if n.Not {
			in = !in
		}
		out[i] = in
	}
	return &Column{kind: ColBool, n: fr.n, b: out, nulls: nulls}, nil
}

// evalInList evaluates x IN (items…). Items evaluate left to right, each
// only over the rows not yet matched — the row engine's per-row
// break-on-match behavior, vectorized.
func (vc *vctx) evalInList(n sqlparser.InList, fr frame) (*Column, error) {
	x, err := vc.eval(n.X, fr)
	if err != nil {
		return nil, err
	}
	found := make([]bool, fr.n)
	var nulls bitmap
	candidates := make([]int, 0, fr.n)
	for i := 0; i < fr.n; i++ {
		if x.IsNull(i) {
			if nulls == nil {
				nulls = newBitmap(fr.n)
			}
			nulls.set(i)
			continue
		}
		candidates = append(candidates, i)
	}
	remaining := fr.narrow(candidates)
	remOut := candidates
	for _, item := range n.Items {
		if remaining.n == 0 {
			break
		}
		icol, err := vc.eval(item, remaining)
		if err != nil {
			return nil, err
		}
		still := make([]int, 0, remaining.n)
		for j := 0; j < remaining.n; j++ {
			iv := icol.Value(j)
			if !iv.IsNull() && x.Value(remOut[j]).Equal(iv) {
				found[remOut[j]] = true
				continue
			}
			still = append(still, j)
		}
		if len(still) < remaining.n {
			remOut = pickIdx(remOut, still)
			remaining = remaining.narrow(still)
		}
	}
	if n.Not {
		for i := range found {
			if !(nulls != nil && nulls.get(i)) {
				found[i] = !found[i]
			}
		}
	}
	return &Column{kind: ColBool, n: fr.n, b: found, nulls: nulls}, nil
}

// evalFunc evaluates a scalar function call: argument columns are computed
// vectorized, then the call dispatches per row through the resolver chain
// and the scalar builtins (the hot render path contains no scalar calls —
// VG calls were rewritten to column references by the Query Generator).
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
	out := make([]value.Value, fr.n)
	args := make([]value.Value, len(argCols))
	for i := 0; i < fr.n; i++ {
		for j, c := range argCols {
			args[j] = c.Value(i)
		}
		if vc.resolver != nil {
			v, handled, err := vc.resolver.Call(n.Name, args)
			if err != nil {
				return nil, err
			}
			if handled {
				out[i] = v
				continue
			}
		}
		v, err := callBuiltin(n.Name, args)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return ValuesColumn(out), nil
}
