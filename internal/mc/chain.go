package mc

// Series chains: the paper (§2) points at Markovian simulations — "a series
// of steps, each depending on the simulation's output for the prior step" —
// as work to skip. A site whose VG-Function is a vg.SeriesFunction (the
// capacity model over its week argument) produces, per world, one chain of
// which each swept point reads a single position. Every caller sweeps the
// series axis innermost — a render, the passes of a progressive render on
// their one evaluator, an Optimize group's free sweep, a fleet sweep's
// consecutive weeks, a worker's LIFO evaluator freelist — so the evaluator
// keeps one chain per series site, keyed by the non-axis arguments and the
// seed base, and a sweep simulates each world's chain once instead of once
// per point.

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
// needs no lock. Memory is bounded by worlds × length × 8 B.
type seriesChain struct {
	fn       vg.SeriesFunction
	args     []value.Value // the rows' arguments; the axis slot is ignored
	seedBase uint64
	lo       int
	length   int
	rows     []float64 // world lo+r's series is rows[r*length : (r+1)*length]
	filled   []bool
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
// when the site's function is a series function and c's axis argument
// selects a position; otherwise c keeps calling Generate, which reports any
// error. It must run on the coordinating goroutine before any fan-out.
func (ev *Evaluator) useChain(c *siteCall, lo, hi int) {
	f, ok := ev.scn.Registry.Lookup(ev.scn.Sites[c.si].Name)
	if !ok {
		return
	}
	sf, ok := f.(vg.SeriesFunction)
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
// seedBase: a different seed base, window start or non-axis argument resets
// every row, and a longer window grows the rows, keeping those filled.
func (c *seriesChain) prepare(fn vg.SeriesFunction, args []value.Value, seedBase uint64, lo, hi int) {
	axis, length := fn.SeriesAxis()
	if c.seedBase != seedBase || c.lo != lo || c.length != length || !sameArgs(c.args, args, axis) {
		c.fn, c.seedBase, c.lo, c.length = fn, seedBase, lo, length
		c.args = append(c.args[:0], args...)
		c.rows = c.rows[:0]
		c.filled = c.filled[:0]
	}
	if n := hi - lo; n > len(c.filled) {
		c.filled = append(c.filled, make([]bool, n-len(c.filled))...)
		c.rows = append(c.rows, make([]float64, n*length-len(c.rows))...)
	}
}

// sample returns world i's value at position pos, simulating the world's
// chain first when its row is not filled yet. worlds is the site's
// per-world seed family.
func (c *seriesChain) sample(worlds rng.Keyed, i, pos int) (float64, error) {
	r := i - c.lo
	row := c.rows[r*c.length : (r+1)*c.length]
	if !c.filled[r] {
		if err := c.fn.Series(worldSeed(worlds, i), c.args, row); err != nil {
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
