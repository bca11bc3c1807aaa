package sqlengine

import (
	"fmt"
	"math"
)

// This file holds the unboxed elementwise and fold cores of the expression
// operator (veval.go) and the grouped executor (vexec.go). Every core is
// split into a no-nulls plain-slice fast path and a bitmap-masked slow
// path; the fast paths for + - * are manually 8-lane unrolled (elementwise maps are lane-independent, so unrolling is
// bit-exact). Reductions that the row oracle computes sequentially (float
// SUM, Welford moments) deliberately keep their sequential order — the
// differential suite asserts bit-identical results between the Plan and
// the row reference — and win only the removal of the per-element bitmap
// branch; integer SUM is exact under reassociation and does unroll.

// mergeNullsInto returns the word-wise OR of two null bitmaps sized for n
// rows, written into a reusable buffer (returned possibly re-grown), or nil
// when both are nil.
func mergeNullsInto(buf bitmap, n int, l, r bitmap) (bitmap, bitmap) {
	if l == nil && r == nil {
		return nil, buf
	}
	buf = grow(buf, (n+63)/64)
	if l != nil {
		copy(buf, l)
		if r != nil {
			for i := range buf {
				buf[i] |= r[i]
			}
		}
	} else {
		copy(buf, r)
	}
	return buf, buf
}

// addFloatsInto computes dst[i] = a[i] + b[i], 8-lane unrolled.
func addFloatsInto(dst, a, b []float64) {
	n := len(dst)
	a, b = a[:n], b[:n]
	i := 0
	for ; i+8 <= n; i += 8 {
		dst[i+0] = a[i+0] + b[i+0]
		dst[i+1] = a[i+1] + b[i+1]
		dst[i+2] = a[i+2] + b[i+2]
		dst[i+3] = a[i+3] + b[i+3]
		dst[i+4] = a[i+4] + b[i+4]
		dst[i+5] = a[i+5] + b[i+5]
		dst[i+6] = a[i+6] + b[i+6]
		dst[i+7] = a[i+7] + b[i+7]
	}
	for ; i < n; i++ {
		dst[i] = a[i] + b[i]
	}
}

// subFloatsInto computes dst[i] = a[i] - b[i], 8-lane unrolled.
func subFloatsInto(dst, a, b []float64) {
	n := len(dst)
	a, b = a[:n], b[:n]
	i := 0
	for ; i+8 <= n; i += 8 {
		dst[i+0] = a[i+0] - b[i+0]
		dst[i+1] = a[i+1] - b[i+1]
		dst[i+2] = a[i+2] - b[i+2]
		dst[i+3] = a[i+3] - b[i+3]
		dst[i+4] = a[i+4] - b[i+4]
		dst[i+5] = a[i+5] - b[i+5]
		dst[i+6] = a[i+6] - b[i+6]
		dst[i+7] = a[i+7] - b[i+7]
	}
	for ; i < n; i++ {
		dst[i] = a[i] - b[i]
	}
}

// mulFloatsInto computes dst[i] = a[i] * b[i], 8-lane unrolled.
func mulFloatsInto(dst, a, b []float64) {
	n := len(dst)
	a, b = a[:n], b[:n]
	i := 0
	for ; i+8 <= n; i += 8 {
		dst[i+0] = a[i+0] * b[i+0]
		dst[i+1] = a[i+1] * b[i+1]
		dst[i+2] = a[i+2] * b[i+2]
		dst[i+3] = a[i+3] * b[i+3]
		dst[i+4] = a[i+4] * b[i+4]
		dst[i+5] = a[i+5] * b[i+5]
		dst[i+6] = a[i+6] * b[i+6]
		dst[i+7] = a[i+7] * b[i+7]
	}
	for ; i < n; i++ {
		dst[i] = a[i] * b[i]
	}
}

// divFloatsInto computes dst[i] = a[i] / b[i] with the engine's
// division-by-zero error; nulls marks rows to skip (NULL result rows must
// not trip the zero check). The no-nulls fast path carries no per-row
// bitmap branch.
func divFloatsInto(dst, a, b []float64, nulls bitmap) error {
	n := len(dst)
	a, b = a[:n], b[:n]
	if nulls == nil {
		for i := 0; i < n; i++ {
			if b[i] == 0 {
				return fmt.Errorf("value: division by zero")
			}
			dst[i] = a[i] / b[i]
		}
		return nil
	}
	for i := 0; i < n; i++ {
		if nulls.get(i) {
			continue
		}
		if b[i] == 0 {
			return fmt.Errorf("value: division by zero")
		}
		dst[i] = a[i] / b[i]
	}
	return nil
}

// modFloatsInto computes dst[i] = mod(a[i], b[i]) with zero checks, like
// divFloatsInto.
func modFloatsInto(dst, a, b []float64, nulls bitmap) error {
	n := len(dst)
	a, b = a[:n], b[:n]
	if nulls == nil {
		for i := 0; i < n; i++ {
			if b[i] == 0 {
				return fmt.Errorf("value: modulo by zero")
			}
			dst[i] = math.Mod(a[i], b[i])
		}
		return nil
	}
	for i := 0; i < n; i++ {
		if nulls.get(i) {
			continue
		}
		if b[i] == 0 {
			return fmt.Errorf("value: modulo by zero")
		}
		dst[i] = math.Mod(a[i], b[i])
	}
	return nil
}

// addIntsInto computes dst[i] = a[i] + b[i], 8-lane unrolled.
func addIntsInto(dst, a, b []int64) {
	n := len(dst)
	a, b = a[:n], b[:n]
	i := 0
	for ; i+8 <= n; i += 8 {
		dst[i+0] = a[i+0] + b[i+0]
		dst[i+1] = a[i+1] + b[i+1]
		dst[i+2] = a[i+2] + b[i+2]
		dst[i+3] = a[i+3] + b[i+3]
		dst[i+4] = a[i+4] + b[i+4]
		dst[i+5] = a[i+5] + b[i+5]
		dst[i+6] = a[i+6] + b[i+6]
		dst[i+7] = a[i+7] + b[i+7]
	}
	for ; i < n; i++ {
		dst[i] = a[i] + b[i]
	}
}

// subIntsInto computes dst[i] = a[i] - b[i], 8-lane unrolled.
func subIntsInto(dst, a, b []int64) {
	n := len(dst)
	a, b = a[:n], b[:n]
	i := 0
	for ; i+8 <= n; i += 8 {
		dst[i+0] = a[i+0] - b[i+0]
		dst[i+1] = a[i+1] - b[i+1]
		dst[i+2] = a[i+2] - b[i+2]
		dst[i+3] = a[i+3] - b[i+3]
		dst[i+4] = a[i+4] - b[i+4]
		dst[i+5] = a[i+5] - b[i+5]
		dst[i+6] = a[i+6] - b[i+6]
		dst[i+7] = a[i+7] - b[i+7]
	}
	for ; i < n; i++ {
		dst[i] = a[i] - b[i]
	}
}

// mulIntsInto computes dst[i] = a[i] * b[i], 8-lane unrolled.
func mulIntsInto(dst, a, b []int64) {
	n := len(dst)
	a, b = a[:n], b[:n]
	i := 0
	for ; i+8 <= n; i += 8 {
		dst[i+0] = a[i+0] * b[i+0]
		dst[i+1] = a[i+1] * b[i+1]
		dst[i+2] = a[i+2] * b[i+2]
		dst[i+3] = a[i+3] * b[i+3]
		dst[i+4] = a[i+4] * b[i+4]
		dst[i+5] = a[i+5] * b[i+5]
		dst[i+6] = a[i+6] * b[i+6]
		dst[i+7] = a[i+7] * b[i+7]
	}
	for ; i < n; i++ {
		dst[i] = a[i] * b[i]
	}
}

// modIntsInto computes dst[i] = a[i] % b[i] with zero checks; NULL rows are
// skipped so a NULL divisor cell never trips the error.
func modIntsInto(dst, a, b []int64, nulls bitmap) error {
	n := len(dst)
	a, b = a[:n], b[:n]
	if nulls == nil {
		for i := 0; i < n; i++ {
			if b[i] == 0 {
				return fmt.Errorf("value: modulo by zero")
			}
			dst[i] = a[i] % b[i]
		}
		return nil
	}
	for i := 0; i < n; i++ {
		if nulls.get(i) {
			continue
		}
		if b[i] == 0 {
			return fmt.Errorf("value: modulo by zero")
		}
		dst[i] = a[i] % b[i]
	}
	return nil
}

// intsToFloatsInto widens an int64 vector into dst, 8-lane unrolled.
func intsToFloatsInto(dst []float64, a []int64) {
	n := len(dst)
	a = a[:n]
	i := 0
	for ; i+8 <= n; i += 8 {
		dst[i+0] = float64(a[i+0])
		dst[i+1] = float64(a[i+1])
		dst[i+2] = float64(a[i+2])
		dst[i+3] = float64(a[i+3])
		dst[i+4] = float64(a[i+4])
		dst[i+5] = float64(a[i+5])
		dst[i+6] = float64(a[i+6])
		dst[i+7] = float64(a[i+7])
	}
	for ; i < n; i++ {
		dst[i] = float64(a[i])
	}
}

// cmpFloatsInto stores op(a[i], b[i]) into dst. Rows the caller marked NULL
// hold unspecified values (the null bitmap overrides them).
func cmpFloatsInto(op string, dst []bool, a, b []float64) {
	n := len(dst)
	a, b = a[:n], b[:n]
	switch op {
	case "=":
		for i := 0; i < n; i++ {
			dst[i] = !(a[i] < b[i]) && !(a[i] > b[i])
		}
	case "<>":
		for i := 0; i < n; i++ {
			dst[i] = a[i] < b[i] || a[i] > b[i]
		}
	case "<":
		for i := 0; i < n; i++ {
			dst[i] = a[i] < b[i]
		}
	case "<=":
		for i := 0; i < n; i++ {
			dst[i] = !(a[i] > b[i])
		}
	case ">":
		for i := 0; i < n; i++ {
			dst[i] = a[i] > b[i]
		}
	default: // ">="
		for i := 0; i < n; i++ {
			dst[i] = !(a[i] < b[i])
		}
	}
}

// cmpIntsInto compares int vectors through float64 widening — the same
// equivalence value.Compare defines, so huge ints (|v| >= 2^53) decide
// identically on every path.
func cmpIntsInto(op string, dst []bool, a, b []int64) {
	n := len(dst)
	a, b = a[:n], b[:n]
	switch op {
	case "=":
		for i := 0; i < n; i++ {
			dst[i] = float64(a[i]) == float64(b[i])
		}
	case "<>":
		for i := 0; i < n; i++ {
			dst[i] = float64(a[i]) != float64(b[i])
		}
	case "<":
		for i := 0; i < n; i++ {
			dst[i] = float64(a[i]) < float64(b[i])
		}
	case "<=":
		for i := 0; i < n; i++ {
			dst[i] = float64(a[i]) <= float64(b[i])
		}
	case ">":
		for i := 0; i < n; i++ {
			dst[i] = float64(a[i]) > float64(b[i])
		}
	default: // ">="
		for i := 0; i < n; i++ {
			dst[i] = float64(a[i]) >= float64(b[i])
		}
	}
}

// cmpStringsInto stores op(a[i], b[i]) into dst.
func cmpStringsInto(op string, dst []bool, a, b []string) {
	n := len(dst)
	a, b = a[:n], b[:n]
	switch op {
	case "=":
		for i := 0; i < n; i++ {
			dst[i] = a[i] == b[i]
		}
	case "<>":
		for i := 0; i < n; i++ {
			dst[i] = a[i] != b[i]
		}
	case "<":
		for i := 0; i < n; i++ {
			dst[i] = a[i] < b[i]
		}
	case "<=":
		for i := 0; i < n; i++ {
			dst[i] = a[i] <= b[i]
		}
	case ">":
		for i := 0; i < n; i++ {
			dst[i] = a[i] > b[i]
		}
	default: // ">="
		for i := 0; i < n; i++ {
			dst[i] = a[i] >= b[i]
		}
	}
}

// cmpBoolsInto stores op(a[i], b[i]) into dst with false < true ordering.
func cmpBoolsInto(op string, dst []bool, a, b []bool) {
	n := len(dst)
	a, b = a[:n], b[:n]
	rank := func(v bool) int {
		if v {
			return 1
		}
		return 0
	}
	switch op {
	case "=":
		for i := 0; i < n; i++ {
			dst[i] = a[i] == b[i]
		}
	case "<>":
		for i := 0; i < n; i++ {
			dst[i] = a[i] != b[i]
		}
	case "<":
		for i := 0; i < n; i++ {
			dst[i] = rank(a[i]) < rank(b[i])
		}
	case "<=":
		for i := 0; i < n; i++ {
			dst[i] = rank(a[i]) <= rank(b[i])
		}
	case ">":
		for i := 0; i < n; i++ {
			dst[i] = rank(a[i]) > rank(b[i])
		}
	default: // ">="
		for i := 0; i < n; i++ {
			dst[i] = rank(a[i]) >= rank(b[i])
		}
	}
}

// sumIntsNoNull folds an int64 vector with 8 partial accumulators (exact:
// two's-complement addition is associative).
func sumIntsNoNull(a []int64) int64 {
	var s0, s1, s2, s3, s4, s5, s6, s7 int64
	i := 0
	n := len(a)
	for ; i+8 <= n; i += 8 {
		s0 += a[i+0]
		s1 += a[i+1]
		s2 += a[i+2]
		s3 += a[i+3]
		s4 += a[i+4]
		s5 += a[i+5]
		s6 += a[i+6]
		s7 += a[i+7]
	}
	acc := s0 + s1 + s2 + s3 + s4 + s5 + s6 + s7
	for ; i < n; i++ {
		acc += a[i]
	}
	return acc
}
