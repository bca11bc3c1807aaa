// Package guide implements Fuzzy Prophet's Guide component (paper §2,
// architecture cycle step 1): it "directs scenario evaluation by producing
// a sequence of instances, each representing a concrete valuation for each
// parameter and model variable in the scenario".
//
// The package models the discrete parameter space declared by
// DECLARE PARAMETER statements and provides the exploration strategies the
// two modes use: exhaustive sweeps (offline), axis sweeps (the online
// graph), neighborhood prefetch (the online mode's "proactively being
// explored anticipating their future usage") and budgeted random
// sampling.
package guide

import (
	"fmt"

	"fuzzyprophet/internal/rng"
	"fuzzyprophet/internal/value"
)

// ParamDef is one declared parameter: a name plus its ordered discrete
// values.
type ParamDef struct {
	Name   string
	Values []value.Value
}

// Space is the full discrete parameter space, in declaration order.
type Space struct {
	Params []ParamDef
	byName map[string]int
}

// NewSpace builds a Space, validating that names are unique and every
// parameter has at least one value.
func NewSpace(params []ParamDef) (*Space, error) {
	s := &Space{Params: params, byName: make(map[string]int, len(params))}
	for i, p := range params {
		if p.Name == "" {
			return nil, fmt.Errorf("guide: parameter %d has no name", i)
		}
		if _, dup := s.byName[p.Name]; dup {
			return nil, fmt.Errorf("guide: duplicate parameter @%s", p.Name)
		}
		if len(p.Values) == 0 {
			return nil, fmt.Errorf("guide: parameter @%s has no values", p.Name)
		}
		s.byName[p.Name] = i
	}
	return s, nil
}

// Size returns the total number of grid points.
func (s *Space) Size() int {
	if len(s.Params) == 0 {
		return 0
	}
	n := 1
	for _, p := range s.Params {
		n *= len(p.Values)
	}
	return n
}

// Index returns the position of the named parameter, or -1.
func (s *Space) Index(name string) int {
	if i, ok := s.byName[name]; ok {
		return i
	}
	return -1
}

// Point is a concrete valuation of every parameter (the paper's
// "instance"; a possible-world seed completes it into a possible world).
type Point map[string]value.Value

// At returns the point for the given per-parameter value indices.
func (s *Space) At(indices []int) (Point, error) {
	if len(indices) != len(s.Params) {
		return nil, fmt.Errorf("guide: got %d indices for %d parameters", len(indices), len(s.Params))
	}
	p := make(Point, len(s.Params))
	for i, def := range s.Params {
		if indices[i] < 0 || indices[i] >= len(def.Values) {
			return nil, fmt.Errorf("guide: index %d out of range for @%s", indices[i], def.Name)
		}
		p[def.Name] = def.Values[indices[i]]
	}
	return p, nil
}

// IndexOfValue returns the position of v in the named parameter's value
// list, or -1.
func (s *Space) IndexOfValue(name string, v value.Value) int {
	i := s.Index(name)
	if i < 0 {
		return -1
	}
	for j, pv := range s.Params[i].Values {
		if pv.Equal(v) {
			return j
		}
	}
	return -1
}

// Sweep returns the points obtained by varying the named axis over all its
// values while pinning every other parameter to the values in pinned. It is
// how the online mode renders `GRAPH OVER @axis`.
func (s *Space) Sweep(axis string, pinned Point) ([]Point, error) {
	ai := s.Index(axis)
	if ai < 0 {
		return nil, fmt.Errorf("guide: unknown sweep axis @%s", axis)
	}
	for _, def := range s.Params {
		if def.Name == axis {
			continue
		}
		if _, ok := pinned[def.Name]; !ok {
			return nil, fmt.Errorf("guide: sweep is missing a pin for @%s", def.Name)
		}
	}
	out := make([]Point, 0, len(s.Params[ai].Values))
	for _, v := range s.Params[ai].Values {
		p := make(Point, len(s.Params))
		for name, pv := range pinned {
			if s.Index(name) < 0 {
				return nil, fmt.Errorf("guide: pin for undeclared parameter @%s", name)
			}
			p[name] = pv
		}
		p[axis] = v
		out = append(out, p)
	}
	return out, nil
}

// Strategy produces a sequence of points to evaluate.
type Strategy interface {
	// Next returns the next point; ok is false when the strategy is
	// exhausted.
	Next() (p Point, ok bool)
}

// Exhaustive enumerates the full grid in odometer order (last declared
// parameter varies fastest), matching the offline mode's full-space sweep.
type Exhaustive struct {
	space   *Space
	indices []int
	done    bool
}

// NewExhaustive returns a full-grid strategy.
func NewExhaustive(space *Space) *Exhaustive {
	return &Exhaustive{space: space, indices: make([]int, len(space.Params)), done: space.Size() == 0}
}

// Next implements Strategy.
func (e *Exhaustive) Next() (Point, bool) {
	if e.done {
		return nil, false
	}
	p, err := e.space.At(e.indices)
	if err != nil {
		return nil, false
	}
	// Advance the odometer.
	for i := len(e.indices) - 1; i >= 0; i-- {
		e.indices[i]++
		if e.indices[i] < len(e.space.Params[i].Values) {
			return p, true
		}
		e.indices[i] = 0
	}
	e.done = true
	return p, true
}

// Random samples grid points uniformly without replacement, for budgeted
// exploration of very large spaces.
type Random struct {
	space *Space
	perm  []int
	pos   int
}

// NewRandom returns a random-order strategy over at most budget points
// (budget <= 0 means the whole grid), using a deterministic seed.
func NewRandom(space *Space, budget int, seed uint64) *Random {
	n := space.Size()
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	src := rng.New(seed)
	for i := n - 1; i > 0; i-- {
		j := src.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	if budget > 0 && budget < n {
		perm = perm[:budget]
	}
	return &Random{space: space, perm: perm}
}

// Next implements Strategy.
func (r *Random) Next() (Point, bool) {
	if r.pos >= len(r.perm) {
		return nil, false
	}
	flat := r.perm[r.pos]
	r.pos++
	indices := make([]int, len(r.space.Params))
	for i := len(r.space.Params) - 1; i >= 0; i-- {
		n := len(r.space.Params[i].Values)
		indices[i] = flat % n
		flat /= n
	}
	p, err := r.space.At(indices)
	if err != nil {
		return nil, false
	}
	return p, true
}

// Neighborhood explores outward from a focus point in breadth-first rings:
// first the focus, then all points one index step away in a single
// dimension, then two steps, and so on up to radius. The online mode uses
// it to prefetch the points a user is most likely to slide to next.
type Neighborhood struct {
	queue []Point
	pos   int
}

// NewNeighborhood returns the BFS-prefetch strategy around focus. Axes
// lists the parameters allowed to move (nil means all).
func NewNeighborhood(space *Space, focus Point, radius int, axes []string) (*Neighborhood, error) {
	focusIdx := make([]int, len(space.Params))
	for i, def := range space.Params {
		v, ok := focus[def.Name]
		if !ok {
			return nil, fmt.Errorf("guide: focus is missing @%s", def.Name)
		}
		j := space.IndexOfValue(def.Name, v)
		if j < 0 {
			return nil, fmt.Errorf("guide: focus value %v not in @%s's space", v, def.Name)
		}
		focusIdx[i] = j
	}
	movable := make(map[int]bool)
	if axes == nil {
		for i := range space.Params {
			movable[i] = true
		}
	} else {
		for _, a := range axes {
			i := space.Index(a)
			if i < 0 {
				return nil, fmt.Errorf("guide: unknown prefetch axis @%s", a)
			}
			movable[i] = true
		}
	}
	n := &Neighborhood{}
	seen := map[string]bool{}
	push := func(indices []int) {
		key := fmt.Sprint(indices)
		if seen[key] {
			return
		}
		seen[key] = true
		p, err := space.At(indices)
		if err == nil {
			n.queue = append(n.queue, p)
		}
	}
	push(focusIdx)
	for r := 1; r <= radius; r++ {
		for dim := range space.Params {
			if !movable[dim] {
				continue
			}
			for _, d := range []int{-r, r} {
				idx := append([]int(nil), focusIdx...)
				idx[dim] += d
				if idx[dim] >= 0 && idx[dim] < len(space.Params[dim].Values) {
					push(idx)
				}
			}
		}
	}
	return n, nil
}

// Next implements Strategy.
func (n *Neighborhood) Next() (Point, bool) {
	if n.pos >= len(n.queue) {
		return nil, false
	}
	p := n.queue[n.pos]
	n.pos++
	return p, true
}

// Collect drains a strategy into a slice (convenience for tests and the
// offline mode).
func Collect(s Strategy) []Point {
	var out []Point
	for {
		p, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, p)
	}
}
