// Package vg implements the VG-Function (variable-generation function)
// framework, the black-box stochastic model abstraction Fuzzy Prophet
// inherits from MCDB and PIP.
//
// A VG-Function is an arbitrary user-supplied stochastic function. The one
// contract the fingerprinting technique imposes is determinism in (seed,
// arguments): invoking the function twice with the same PRNG seed and the
// same arguments must produce identical output. The system exploits this to
// compare function behaviour across parameter values under a fixed seed
// sequence (the paper's fingerprint), so any violation silently breaks
// reuse; Registry.CheckDeterminism exists to catch such models early.
//
// Series-shaped functions: the paper (§2) singles out Markovian
// simulations — "a series of steps, each depending on the simulation's
// output for the prior step" — and a VG-Function of that shape may also
// implement SeriesFunction. It names one integer argument as the series
// position (CapacityModel's week) and simulates every position in one pass;
// the executor then runs a world's chain once per render instead of once per
// swept position. The contract is that the scalar form is the chain read at
// one position, bit for bit: Generate(seed, args) == out[args[axis]] after
// Series(seed, args, out). CheckDeterminism asserts it too.
//
// The package also counts invocations. The paper's headline benefit is
// avoided VG-Function work, so the experiment harness reads these counters
// to report "VG invocations saved". A count is a sample delivered — one
// (site, world) value handed to a render — whether it came from Generate or
// from a row of a chain that Series had already simulated, so the figures do
// not depend on how a model is evaluated.
package vg

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"fuzzyprophet/internal/value"
)

// Function is a scalar VG-Function.
type Function interface {
	// Name is the identifier scenarios use to call the function.
	Name() string
	// Arity is the required argument count.
	Arity() int
	// Generate returns the function's stochastic output. It must be
	// deterministic in (seed, args) and safe for concurrent use.
	Generate(seed uint64, args []value.Value) (value.Value, error)
}

// TableFunction is a table-generating VG-Function (the form the paper's
// DemandModel and CapacityModel take in TSQL). The scenario engine invokes
// it once per world and exposes the rows through the FROM clause.
type TableFunction interface {
	// Name is the identifier scenarios use in FROM clauses.
	Name() string
	// Arity is the required argument count.
	Arity() int
	// Columns names the generated columns.
	Columns() []string
	// GenerateTable returns the generated rows. It must be deterministic in
	// (seed, args) and safe for concurrent use.
	GenerateTable(seed uint64, args []value.Value) ([][]value.Value, error)
}

// SeriesFunction is a Function whose outputs along one integer argument,
// the series axis, are the steps of one simulated chain. Series simulates
// the whole chain at once; for every position p in [0, length) it must hold
// that Generate(seed, args) with args[axis] == p equals out[p] after
// Series(seed, args, out), bit for bit.
type SeriesFunction interface {
	Function
	// SeriesAxis returns the index of the series-position argument and the
	// series length: positions run over [0, length).
	SeriesAxis() (axis, length int)
	// Series writes positions [0, length) at (seed, args) into out, which
	// has len length; args[axis] is ignored. It must be deterministic in
	// (seed, the other args) and safe for concurrent use.
	Series(seed uint64, args []value.Value, out []float64) error
}

// SeriesPosition returns the position args select on f's series — args[axis]
// when it is an INT in [0, length) — and false otherwise, in which case only
// Generate can answer (and report the error).
func SeriesPosition(f SeriesFunction, args []value.Value) (int, bool) {
	axis, length := f.SeriesAxis()
	if axis < 0 || axis >= len(args) || args[axis].Kind() != value.KindInt {
		return 0, false
	}
	p, _ := args[axis].AsInt()
	if p < 0 || p >= int64(length) {
		return 0, false
	}
	return int(p), true
}

// GenerateFunc adapts a plain function to the Function interface.
type GenerateFunc func(seed uint64, args []value.Value) (value.Value, error)

type funcAdapter struct {
	name  string
	arity int
	fn    GenerateFunc
}

func (f *funcAdapter) Name() string { return f.name }
func (f *funcAdapter) Arity() int   { return f.arity }
func (f *funcAdapter) Generate(seed uint64, args []value.Value) (value.Value, error) {
	return f.fn(seed, args)
}

// NewFunc wraps fn as a named scalar VG-Function.
func NewFunc(name string, arity int, fn GenerateFunc) Function {
	return &funcAdapter{name: name, arity: arity, fn: fn}
}

// Registry is a thread-safe catalog of VG-Functions plus an invocation
// counter.
type Registry struct {
	mu     sync.RWMutex
	scalar map[string]Function
	table  map[string]TableFunction
	total  atomic.Int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		scalar: make(map[string]Function),
		table:  make(map[string]TableFunction),
	}
}

// Register adds a scalar VG-Function. It returns an error if the name is
// already taken (by either flavor).
func (r *Registry) Register(f Function) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	name := f.Name()
	if _, ok := r.scalar[name]; ok {
		return fmt.Errorf("vg: function %q already registered", name)
	}
	if _, ok := r.table[name]; ok {
		return fmt.Errorf("vg: function %q already registered as a table function", name)
	}
	r.scalar[name] = f
	return nil
}

// Lookup returns the named scalar function.
func (r *Registry) Lookup(name string) (Function, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	f, ok := r.scalar[name]
	return f, ok
}

// LookupTable returns the named table function.
func (r *Registry) LookupTable(name string) (TableFunction, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	f, ok := r.table[name]
	return f, ok
}

// Bind resolves the named scalar function for a caller about to deliver n
// of its samples — one site over a range of worlds — checking nargs against
// its arity and counting the n invocations once.
func (r *Registry) Bind(name string, nargs, n int) (Function, error) {
	r.mu.RLock()
	f, ok := r.scalar[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("vg: unknown function %q", name)
	}
	if f.Arity() >= 0 && nargs != f.Arity() {
		return nil, fmt.Errorf("vg: function %q expects %d arguments, got %d", name, f.Arity(), nargs)
	}
	r.total.Add(int64(n))
	return f, nil
}

// Invoke calls the named scalar function once: Bind with n = 1, then
// Generate.
func (r *Registry) Invoke(name string, seed uint64, args []value.Value) (value.Value, error) {
	f, err := r.Bind(name, len(args), 1)
	if err != nil {
		return value.Null, err
	}
	return f.Generate(seed, args)
}

// InvokeTable calls the named table function, validating arity and counting
// the invocation.
func (r *Registry) InvokeTable(name string, seed uint64, args []value.Value) ([][]value.Value, error) {
	r.mu.RLock()
	f, ok := r.table[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("vg: unknown table function %q", name)
	}
	if f.Arity() >= 0 && len(args) != f.Arity() {
		return nil, fmt.Errorf("vg: table function %q expects %d arguments, got %d", name, f.Arity(), len(args))
	}
	r.total.Add(1)
	return f.GenerateTable(seed, args)
}

// TotalInvocations returns the total invocation count across all functions.
func (r *Registry) TotalInvocations() int64 { return r.total.Load() }

// ResetCounters zeroes the invocation counter (used between experiment
// runs).
func (r *Registry) ResetCounters() {
	r.total.Store(0)
}

// CheckDeterminism invokes the named function twice with the same seed and
// arguments and returns an error when the outputs differ — the contract
// violation that silently poisons fingerprint reuse. For a SeriesFunction
// it also checks that the chain Series simulates agrees, at the position
// args select, with Generate bit for bit: a chain that disagrees with its
// scalar form would silently change every render that reads it.
func (r *Registry) CheckDeterminism(name string, seed uint64, args []value.Value) error {
	if f, ok := r.Lookup(name); ok {
		a, err := r.Invoke(name, seed, args)
		if err != nil {
			return err
		}
		b, err := r.Invoke(name, seed, args)
		if err != nil {
			return err
		}
		if !a.Equal(b) {
			return fmt.Errorf("vg: function %q is not deterministic in its seed: %v vs %v", name, a, b)
		}
		if sf, ok := f.(SeriesFunction); ok {
			return checkSeries(sf, seed, args, a)
		}
		return nil
	}
	if _, ok := r.LookupTable(name); ok {
		a, err := r.InvokeTable(name, seed, args)
		if err != nil {
			return err
		}
		b, err := r.InvokeTable(name, seed, args)
		if err != nil {
			return err
		}
		if len(a) != len(b) {
			return fmt.Errorf("vg: table function %q is not deterministic in its seed: %d vs %d rows", name, len(a), len(b))
		}
		for i := range a {
			if len(a[i]) != len(b[i]) {
				return fmt.Errorf("vg: table function %q row %d width differs between runs", name, i)
			}
			for j := range a[i] {
				if !a[i][j].Equal(b[i][j]) {
					return fmt.Errorf("vg: table function %q row %d col %d differs between runs: %v vs %v",
						name, i, j, a[i][j], b[i][j])
				}
			}
		}
		return nil
	}
	return fmt.Errorf("vg: unknown function %q", name)
}

// checkSeries asserts the SeriesFunction contract at one (seed, args):
// Series' output at the selected position is Generate's value, bit for bit.
func checkSeries(f SeriesFunction, seed uint64, args []value.Value, scalar value.Value) error {
	p, ok := SeriesPosition(f, args)
	if !ok {
		return nil // Generate alone answers this position
	}
	_, length := f.SeriesAxis()
	out := make([]float64, length)
	if err := f.Series(seed, args, out); err != nil {
		return fmt.Errorf("vg: series function %q: %w", f.Name(), err)
	}
	want, err := scalar.AsFloat()
	if err != nil {
		return fmt.Errorf("vg: series function %q: %w", f.Name(), err)
	}
	if math.Float64bits(out[p]) != math.Float64bits(want) {
		return fmt.Errorf("vg: series function %q disagrees with its scalar form at position %d: Series %v, Generate %v",
			f.Name(), p, out[p], want)
	}
	return nil
}
