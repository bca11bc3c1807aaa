package mc

// Series chains: the paper (§2) points at Markovian simulations — "a series
// of steps, each depending on the simulation's output for the prior step" —
// as work to skip. A site whose VG-Function is a vg.OverlayFunction (the
// capacity model over its week argument) produces, per world, one chain of
// which each swept point reads a single position. Every caller sweeps the
// series axis innermost — a render, the passes of a progressive render on
// their one evaluator, an Optimize group's free sweep, a fleet sweep's
// consecutive weeks, a worker's LIFO evaluator freelist — so the evaluator
// keeps one chain per series site, keyed by the non-axis arguments and the
// seed base, and a sweep simulates each world's chain once instead of once
// per point.
//
// The chain skips more: it is an overlay over a base that depends on the
// seed alone (the capacity model's failure schedule, against its purchase
// schedule). The evaluator keeps each world's base, keyed by the seed base
// and the window start, so a change of non-axis arguments — a purchase
// move, a fleet sweep's next purchase pair — replays only overlays, bit for
// bit the rows Series would give.

import (
	"math"

	"fuzzyprophet/internal/guide"
	"fuzzyprophet/internal/rng"
	"fuzzyprophet/internal/value"
	"fuzzyprophet/internal/vg"
)

// seriesChain holds, for the worlds of a window [lo, lo+len(filled)), the
// whole series its site's function simulates at each world's seed under
// args. Rows are filled lazily, one world at a time, by whichever chunk or
// range simulates that world; chunks and ranges are disjoint, so filling
// needs no lock. Memory is bounded by worlds × length × 8 B. It also keeps
// each world's base, which belongs to the window (seed base, lo), not to
// args, and costs worlds × BaseLen bytes; a row is the overlay of args over
// its world's base.
type seriesChain struct {
	fn       vg.OverlayFunction
	args     []value.Value // the rows' arguments; the axis slot is ignored
	seedBase uint64
	lo       int
	length   int
	rows     []float64 // world lo+r's series is rows[r*length : (r+1)*length]
	filled   []bool
	baseLen  int
	bases    []byte // world lo+r's base is bases[r*baseLen : (r+1)*baseLen]
	drawn    []bool
}

// siteCall is one site's VG call at a point: its argument values and their
// key and, for a series site whose axis argument selects a position, the
// evaluator's chain for the site plus that position.
type siteCall struct {
	si    int
	args  []value.Value
	key   string
	chain *seriesChain // nil: every world calls Generate
	pos   int
}

// callAt resolves site si's call at pt.
func (ev *Evaluator) callAt(si int, pt guide.Point) (siteCall, error) {
	args, key, err := ev.scn.Sites[si].ArgValues(pt)
	return siteCall{si: si, args: args, key: key}, err
}

// useChain attaches the site's chain to c, readied to serve worlds [lo, hi),
// when the site's function is an overlay function and c's axis argument
// selects a position; otherwise c keeps calling Generate, which reports any
// error. It must run on the coordinating goroutine before any fan-out.
func (ev *Evaluator) useChain(c *siteCall, lo, hi int) {
	f, ok := ev.scn.Registry.Lookup(ev.scn.Sites[c.si].Name)
	if !ok {
		return
	}
	sf, ok := f.(vg.OverlayFunction)
	if !ok {
		return
	}
	pos, ok := vg.SeriesPosition(sf, c.args)
	if !ok {
		return
	}
	ch := &ev.chains[c.si]
	ch.prepare(sf, c.args, ev.opts.SeedBase, lo, hi)
	c.chain, c.pos = ch, pos
}

// prepare makes the chain serve worlds [lo, hi) of fn at args under
// seedBase: a different seed base or window start resets every base and
// row, a different non-axis argument every row, and a longer window grows
// both, keeping those filled.
func (c *seriesChain) prepare(fn vg.OverlayFunction, args []value.Value, seedBase uint64, lo, hi int) {
	axis, length := fn.SeriesAxis()
	if c.seedBase != seedBase || c.lo != lo || c.length != length {
		c.fn, c.seedBase, c.lo, c.length, c.baseLen = fn, seedBase, lo, length, fn.BaseLen()
		c.args = append(c.args[:0], args...)
		c.rows, c.filled = c.rows[:0], c.filled[:0]
		c.bases, c.drawn = c.bases[:0], c.drawn[:0]
	} else if !sameArgs(c.args, args, axis) {
		c.args = append(c.args[:0], args...)
		clear(c.filled)
	}
	if n := hi - lo; n > len(c.filled) {
		c.filled, c.rows = grow(c.filled, n), grow(c.rows, n*length)
		c.drawn, c.bases = grow(c.drawn, n), grow(c.bases, n*c.baseLen)
	}
}

// grow returns s lengthened to n with its contents kept and the rest zero,
// in place when its capacity allows and otherwise in a new array of exactly
// n: a window is sized to its worlds, not by append's doubling.
func grow[T any](s []T, n int) []T {
	if n <= cap(s) {
		old := len(s)
		s = s[:n]
		clear(s[old:])
		return s
	}
	grown := make([]T, n)
	copy(grown, s)
	return grown
}

// sample returns world i's value at position pos, simulating the world's
// chain first when its row is not filled yet: the overlay over the world's
// base, drawing the base first when it is not drawn yet. worlds is the
// site's per-world seed family.
func (c *seriesChain) sample(worlds rng.Keyed, i, pos int) (float64, error) {
	r := i - c.lo
	row := c.rows[r*c.length : (r+1)*c.length]
	if !c.filled[r] {
		seed := worldSeed(worlds, i)
		base := c.bases[r*c.baseLen : (r+1)*c.baseLen]
		if !c.drawn[r] {
			c.fn.Base(seed, base)
			c.drawn[r] = true
		}
		if err := c.fn.Overlay(seed, c.args, base, row); err != nil {
			return 0, err
		}
		c.filled[r] = true
	}
	return row[pos], nil
}

// sameArgs reports whether a and b are the same arguments bit for bit,
// ignoring the axis slot.
func sameArgs(a, b []value.Value, axis int) bool {
	if len(a) != len(b) {
		return false
	}
	for j := range a {
		if j != axis && !identical(a[j], b[j]) {
			return false
		}
	}
	return true
}

// identical is value equality without numeric coercion: same kind and same
// payload, floats compared by bits (so -0 and 0 differ and NaN matches
// itself).
func identical(a, b value.Value) bool {
	if a.Kind() == value.KindFloat && b.Kind() == value.KindFloat {
		x, _ := a.AsFloat()
		y, _ := b.AsFloat()
		return math.Float64bits(x) == math.Float64bits(y)
	}
	return a == b
}
