// Package guide implements Fuzzy Prophet's Guide component (paper §2,
// architecture cycle step 1): it "directs scenario evaluation by producing
// a sequence of instances, each representing a concrete valuation for each
// parameter and model variable in the scenario".
//
// The package models the discrete parameter space declared by
// DECLARE PARAMETER statements and provides the two sequences the modes
// use: the full grid (offline) and axis sweeps (the online graph).
package guide

import (
	"fmt"
	"slices"

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
// how the online mode renders `GRAPH OVER @axis`. The pins are validated
// once, before any point is built. Sweep is SweepInto(nil, axis, pinned).
func (s *Space) Sweep(axis string, pinned Point) ([]Point, error) {
	return s.SweepInto(nil, axis, pinned)
}

// SweepInto is Sweep into the storage of dst, an earlier result: each of
// its maps is cleared and refilled in place, and only the points dst lacks
// are allocated. The points it returns alias dst's maps, so they are valid
// until the next SweepInto on the same dst.
func (s *Space) SweepInto(dst []Point, axis string, pinned Point) ([]Point, error) {
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
	for name := range pinned {
		if s.Index(name) < 0 {
			return nil, fmt.Errorf("guide: pin for undeclared parameter @%s", name)
		}
	}
	values := s.Params[ai].Values
	dst = slices.Grow(dst[:0], len(values))[:len(values)]
	for i, v := range values {
		p := dst[i]
		if p == nil {
			p = make(Point, len(s.Params))
			dst[i] = p
		}
		clear(p)
		for name, pv := range pinned {
			p[name] = pv
		}
		p[axis] = v
	}
	return dst, nil
}

// Points enumerates the full grid in odometer order (last declared
// parameter varies fastest): the offline mode's full-space sweep. An empty
// space has no points.
func (s *Space) Points() []Point {
	n := s.Size()
	if n == 0 {
		return nil
	}
	out := make([]Point, 0, n)
	indices := make([]int, len(s.Params))
	for {
		p := make(Point, len(s.Params))
		for i, def := range s.Params {
			p[def.Name] = def.Values[indices[i]]
		}
		out = append(out, p)
		// Advance the odometer.
		i := len(indices) - 1
		for ; i >= 0; i-- {
			indices[i]++
			if indices[i] < len(s.Params[i].Values) {
				break
			}
			indices[i] = 0
		}
		if i < 0 {
			return out
		}
	}
}
