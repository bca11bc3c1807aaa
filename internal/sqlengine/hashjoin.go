package sqlengine

import (
	"math"

	"fuzzyprophet/internal/sqlparser"
	"fuzzyprophet/internal/value"
)

// Hash equi-join: for JOIN … ON <left-expr> = <right-expr> the engine
// hashes the right (usually small dimension) side on its pre-computed key
// column and probes it with the left side, instead of materializing the
// full nl×nr cross product and filtering it — the serverfleet shape
// (worlds × dimension) never needs the quadratic intermediate.
//
// The hash path must be observationally identical to the quadratic filter,
// which compares keys through vctx.compare/value.Compare. That forces
// three guard rails:
//
//   - key columns must be of one comparison family (numeric×numeric,
//     string×string, bool×bool); anything boxed or cross-family falls back
//     to the quadratic path so per-row comparison errors surface exactly
//     as the row oracle reports them;
//   - NULL keys never match (they are skipped on build and probe, matching
//     NULL = x ⇒ NULL ⇒ not truthy);
//   - float keys encode -0 as +0 (vctx.compare treats them equal) and
//     any NaN key aborts the hash path entirely — the engines' two-way
//     comparison makes NaN compare equal to everything, which no hash key
//     can express.

// splitEquality inspects an ON condition's STRUCTURE: when it is a single
// top-level equality it returns the two operand expressions. This is the
// compile-time half of equi-join detection — a Plan decides it once in
// CompileSelect instead of re-walking the condition every execution.
func splitEquality(cond sqlparser.Expr) (l, r sqlparser.Expr, ok bool) {
	bin, isBin := cond.(sqlparser.Binary)
	if !isBin || bin.Op != "=" {
		return nil, nil, false
	}
	return bin.L, bin.R, true
}

// equiJoinSides is the bind-time half: given an equality's two operands and
// the ALREADY-BUILT combined schema (the first nAcc bindings belong to the
// left input), it decides whether each operand references columns of
// exactly one input and returns the key expressions ordered (leftKey over
// the left input, rightKey over the right). The schema is borrowed, never
// copied.
func equiJoinSides(exprL, exprR sqlparser.Expr, combined []colBinding, nAcc int) (leftKey, rightKey sqlparser.Expr, ok bool) {
	side := func(x sqlparser.Expr) int {
		// 0: no columns, 1: left only, 2: right only, 3: mixed/unresolvable.
		s := 0
		var bad bool
		sqlparser.WalkExpr(x, func(e sqlparser.Expr) {
			cr, isCol := e.(sqlparser.ColumnRef)
			if !isCol || bad {
				return
			}
			idx, err := lookupBinding(combined, cr.Table, cr.Name)
			if err != nil {
				// Ambiguous or unknown: let the quadratic path surface the
				// same error.
				bad = true
				return
			}
			var this int
			if idx < nAcc {
				this = 1
			} else {
				this = 2
			}
			if s == 0 {
				s = this
			} else if s != this {
				s = 3
			}
		})
		if bad {
			return 3
		}
		return s
	}
	ls, rs := side(exprL), side(exprR)
	switch {
	case ls <= 1 && rs == 2:
		return exprL, exprR, true
	case ls == 2 && rs <= 1:
		return exprR, exprL, true
	default:
		return nil, nil, false
	}
}

// buildTable is reusable hash-join build-side state: a key → chain-head
// map plus head/tail/next chain slices keeping each key's build rows in
// ascending order (so the probe emits matches in exactly the quadratic
// path's order). Chains live in flat slices, so across executions only
// first-seen map keys allocate — one string per DISTINCT key instead of
// one per build-side row — and the Plan pools the whole structure in its
// planState like every other buffer.
type buildTable struct {
	idx    map[string]int32 // key → head build row of its chain
	next   []int32          // next[r]: following build row with r's key; -1 ends
	tail   []int32          // tail[h]: last row of the chain headed by h
	keyBuf []byte           // key-encoding scratch
}

// reset prepares the table for a build side of n rows.
func (bt *buildTable) reset(n int) {
	if bt.idx == nil {
		bt.idx = make(map[string]int32, n)
	} else {
		clear(bt.idx)
	}
	if cap(bt.next) < n {
		bt.next = make([]int32, n)
		bt.tail = make([]int32, n)
	}
	bt.next = bt.next[:n]
	bt.tail = bt.tail[:n]
}

// insert appends build row r (ascending) to its key's chain. The key is
// read from bt.keyBuf; the map lookup is allocation-free, only a new
// distinct key allocates its map entry.
func (bt *buildTable) insert(r int) {
	if h, ok := bt.idx[string(bt.keyBuf)]; ok {
		t := bt.tail[h]
		bt.next[t] = int32(r)
		bt.next[r] = -1
		bt.tail[h] = int32(r)
		return
	}
	bt.idx[string(bt.keyBuf)] = int32(r)
	bt.next[r] = -1
	bt.tail[r] = int32(r)
}

// lookup returns the head build row for the key in bt.keyBuf, or -1.
func (bt *buildTable) lookup() int32 {
	if h, ok := bt.idx[string(bt.keyBuf)]; ok {
		return h
	}
	return -1
}

// hashableJoinKinds reports whether two key columns belong to one
// comparison family the hash encoding can represent faithfully.
func hashableJoinKinds(l, r *Column) bool {
	family := func(c *Column) int {
		switch c.kind {
		case ColInt, ColFloat:
			return 1
		case ColString:
			return 2
		case ColBool:
			return 3
		default:
			return 0 // ColNull handled by callers; ColBoxed never hashable
		}
	}
	lf, rf := family(l), family(r)
	if l.kind == ColNull || r.kind == ColNull {
		// All-NULL key side: no row can match; the probe loop handles it.
		return true
	}
	return lf != 0 && rf != 0 && lf == rf
}

// appendJoinKey appends row i's hash-join key to dst, reporting ok=false
// for a NaN float key (unhashable: NaN compares equal to everything under
// the engines' two-way comparison).
func appendJoinKey(c *Column, i int, dst []byte) ([]byte, bool) {
	switch c.kind {
	case ColFloat:
		f := c.f[i]
		if math.IsNaN(f) {
			return dst, false
		}
		if f == 0 {
			f = 0 // normalize -0: vctx.compare treats -0 = +0
		}
		return value.AppendFloatKey(dst, f), true
	case ColInt:
		return value.AppendFloatKey(dst, float64(c.i[i])), true
	case ColString:
		return value.AppendStringKey(dst, c.s[i]), true
	case ColBool:
		return value.AppendBoolKey(dst, c.b[i]), true
	default:
		return dst, false
	}
}

// hashEquiJoin evaluates the key expressions over their sides and builds
// the gather lists of the inner or left join into st.joinL/st.joinR, with
// the state's pooled build table. ok=false means the keys turned out
// unhashable (kind family mismatch, boxed keys, or a NaN key) and the caller
// must run the quadratic path; err means key evaluation failed, which the
// quadratic path would also report.
func (st *planState) hashEquiJoin(acc, next *vRel, leftKeyX, rightKeyX sqlparser.Expr, leftJoin bool) (ok bool, err error) {
	// Evaluate left before right: the quadratic path's evalBinary does the
	// same, so when both sides error the same one wins.
	lvc := vctx{st: st, rel: acc}
	lkey, err := lvc.eval(leftKeyX, frame{n: acc.n})
	if err != nil {
		return false, err
	}
	rvc := vctx{st: st, rel: next}
	rkey, err := rvc.eval(rightKeyX, frame{n: next.n})
	if err != nil {
		return false, err
	}
	if !hashableJoinKinds(lkey, rkey) {
		return false, nil
	}
	outL, outR, bt := st.joinL[:0], st.joinR[:0], &st.build

	// All-NULL on either side: nothing matches; LEFT JOIN pads everything.
	if lkey.kind == ColNull || rkey.kind == ColNull {
		if leftJoin {
			for l := 0; l < acc.n; l++ {
				outL = append(outL, l)
				outR = append(outR, -1)
			}
		}
		st.joinL, st.joinR = outL, outR
		return true, nil
	}

	// Build on the right side, preserving right-row order per key so the
	// probe emits matches in exactly the quadratic path's order.
	bt.reset(rkey.n)
	for r := 0; r < rkey.n; r++ {
		if rkey.IsNull(r) {
			continue
		}
		var kok bool
		bt.keyBuf, kok = appendJoinKey(rkey, r, bt.keyBuf[:0])
		if !kok {
			return false, nil
		}
		bt.insert(r)
	}
	for l := 0; l < lkey.n; l++ {
		if lkey.IsNull(l) {
			if leftJoin {
				outL = append(outL, l)
				outR = append(outR, -1)
			}
			continue
		}
		var kok bool
		bt.keyBuf, kok = appendJoinKey(lkey, l, bt.keyBuf[:0])
		if !kok {
			return false, nil
		}
		h := bt.lookup()
		if h < 0 {
			if leftJoin {
				outL = append(outL, l)
				outR = append(outR, -1)
			}
			continue
		}
		for r := h; r >= 0; r = bt.next[r] {
			outL = append(outL, l)
			outR = append(outR, int(r))
		}
	}
	st.joinL, st.joinR = outL, outR
	return true, nil
}
