// Package core implements Fuzzy Prophet's primary contribution: the
// fingerprinting technique that identifies correlations between executions
// of a VG-Function under different parameter values and re-maps already-
// computed Monte Carlo sample sets instead of re-simulating.
//
// Following the paper (§2, "Fingerprinting"), the fingerprint of a
// parameterized stochastic function is "simply a sequence of its outputs
// under a fixed sequence of random inputs (i.e., seed of its pseudorandom
// number generator). The use of a fixed set of random seeds ensures a
// deterministic relationship between correlated outputs of the stochastic
// functions."
//
// Concretely: fingerprint(f, θ) = [f(s₁, θ), …, f(s_k, θ)] for a site's
// first k world seeds s₁…s_k. A fingerprint is thus a prefix of the point's
// own sample vector: probes double as exact validation on real output
// worlds, and re-mapped vectors are exact at every probed index. If
// fingerprint(f, θ_b) and fingerprint(f, θ_t) are elementwise equal, the
// two parameterizations are output-identical for *every* seed that
// exercises the same code path, so sample sets transfer verbatim (an
// identity mapping). If they are related by a near-exact
// affine map y ≈ A·x + B (fit by least squares on the k pairs), sample sets
// transfer through the map. Otherwise the point must be simulated.
//
// The package also contains the Markov-chain analyzer of §2: for step-wise
// simulations, consecutive-step fingerprints reveal regions where each step
// is an affine function of the previous one (no impactful fresh
// randomness); composing the per-step maps yields a non-Markovian estimator
// that jumps across the whole region.
package core

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"fuzzyprophet/internal/stats"
	"fuzzyprophet/internal/value"
)

// Config holds the fingerprinting parameters. The defaults reflect the
// fingerprint-length ablation (cmd/fpbench experiment e4).
type Config struct {
	// Length is k: a fingerprint is a point's outputs at its first k
	// world seeds.
	Length int
	// IdentityTol is the relative elementwise tolerance under which two
	// fingerprints count as identical (identity mapping).
	IdentityTol float64
	// AffineTol is the maximum relative RMS residual (RelRMSE of the
	// least-squares fit) under which an affine mapping is accepted.
	AffineTol float64
}

// DefaultConfig returns the standard configuration: fingerprints over the
// first k=32 world seeds, near-exact identity detection and a 2% affine
// residual budget.
//
// k controls the false-accept risk on event discontinuities: when a random
// event (e.g. a stochastic hardware-arrival date) splits the worlds into a
// majority and a minority mode, a mapping is wrongly accepted when all k
// probes land in the majority — probability (1-p)^k for minority fraction
// p. Experiment E4 ablates this trade-off.
func DefaultConfig() Config {
	return Config{
		Length:      32,
		IdentityTol: 1e-12,
		AffineTol:   0.02,
	}
}

func (c Config) validate() error {
	if c.Length < 2 {
		return fmt.Errorf("core: fingerprint length must be at least 2, got %d", c.Length)
	}
	if c.IdentityTol < 0 || c.AffineTol < 0 {
		return fmt.Errorf("core: negative tolerance")
	}
	return nil
}

// Fingerprint is the output vector of a stochastic function at the first k
// world seeds.
type Fingerprint struct {
	Outputs []float64
}

// MappingKind classifies how one parameter point's output distribution can
// be derived from another's.
type MappingKind uint8

// Mapping kinds, from cheapest to unusable.
const (
	// MappingIdentity means the outputs are elementwise equal: samples
	// transfer verbatim.
	MappingIdentity MappingKind = iota
	// MappingAffine means samples transfer through y = A·x + B.
	MappingAffine
	// MappingNone means no acceptable mapping exists; simulate.
	MappingNone
)

func (k MappingKind) String() string {
	switch k {
	case MappingIdentity:
		return "identity"
	case MappingAffine:
		return "affine"
	case MappingNone:
		return "none"
	default:
		return fmt.Sprintf("MappingKind(%d)", uint8(k))
	}
}

// Mapping is the re-mapping decision for one (basis, target) pair.
type Mapping struct {
	Kind MappingKind
	// Fit is the affine map (identity mappings carry A=1, B=0). Undefined
	// for MappingNone.
	Fit stats.AffineFit
	// Correlation is the Pearson correlation of the two fingerprints
	// (diagnostic; drives Figure 4's intensity rendering).
	Correlation float64
}

// Apply transfers a basis sample set onto the target point. It returns an
// error for MappingNone.
func (m Mapping) Apply(samples []float64) ([]float64, error) {
	switch m.Kind {
	case MappingIdentity:
		return append([]float64(nil), samples...), nil
	case MappingAffine:
		return m.Fit.ApplySlice(samples), nil
	default:
		return nil, fmt.Errorf("core: cannot apply a %s mapping", m.Kind)
	}
}

// Match decides how the target point's outputs relate to the basis point's,
// comparing their fingerprints under cfg's tolerances. Both fingerprints
// must come from the same Config.
func Match(cfg Config, basis, target Fingerprint) (Mapping, error) {
	if len(basis.Outputs) != len(target.Outputs) {
		return Mapping{Kind: MappingNone}, fmt.Errorf(
			"core: fingerprint length mismatch %d vs %d (different configs?)",
			len(basis.Outputs), len(target.Outputs))
	}
	if len(basis.Outputs) < 2 {
		return Mapping{Kind: MappingNone}, fmt.Errorf("core: fingerprints too short to match")
	}

	// Identity: elementwise equality within relative tolerance.
	identical := true
	for i := range basis.Outputs {
		b, t := basis.Outputs[i], target.Outputs[i]
		scale := math.Max(math.Abs(b), math.Abs(t))
		if math.Abs(b-t) > cfg.IdentityTol*math.Max(scale, 1) {
			identical = false
			break
		}
	}
	corr, err := stats.Correlation(basis.Outputs, target.Outputs)
	if err != nil {
		return Mapping{Kind: MappingNone}, err
	}
	if identical {
		return Mapping{
			Kind:        MappingIdentity,
			Fit:         stats.AffineFit{A: 1, B: 0},
			Correlation: 1,
		}, nil
	}

	fit, err := stats.FitAffine(basis.Outputs, target.Outputs)
	if err != nil {
		return Mapping{Kind: MappingNone}, err
	}
	if fit.RelRMSE <= cfg.AffineTol {
		return Mapping{Kind: MappingAffine, Fit: fit, Correlation: corr}, nil
	}
	return Mapping{Kind: MappingNone, Correlation: corr}, nil
}

// PointKey canonically encodes a parameter assignment so fingerprints can be
// indexed by parameter-space point. Keys are stable under map iteration
// order (names are sorted).
func PointKey(params map[string]value.Value) string {
	names := make([]string, 0, len(params))
	for n := range params {
		names = append(names, n)
	}
	sort.Strings(names)
	buf := make([]byte, 0, 64)
	for i, n := range names {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, n...)
		buf = append(buf, '=')
		buf = params[n].AppendSQLLiteral(buf)
	}
	return string(buf)
}

// ReuseStats counts reuse decisions, the quantity the paper's offline-mode
// demo visualizes ("how Prophet avoids redundant computation by exploiting
// fingerprints").
type ReuseStats struct {
	Computed int // points simulated from scratch
	Identity int // points served by identity mappings
	Affine   int // points served by affine mappings
	Rejected int // basis candidates whose fingerprints did not match
}

// Reused returns the number of points that avoided simulation.
func (s ReuseStats) Reused() int { return s.Identity + s.Affine }

// Total returns the number of points resolved.
func (s ReuseStats) Total() int { return s.Computed + s.Reused() }

// ReuseRate returns the fraction of points served without simulation.
func (s ReuseStats) ReuseRate() float64 {
	if s.Total() == 0 {
		return 0
	}
	return float64(s.Reused()) / float64(s.Total())
}

func (s ReuseStats) String() string {
	return fmt.Sprintf("computed=%d identity=%d affine=%d rejected=%d reuse=%.1f%%",
		s.Computed, s.Identity, s.Affine, s.Rejected, 100*s.ReuseRate())
}

// Index stores fingerprints of explored parameter points, grouped by an
// arbitrary label (typically "function/output" or "output@x"), and finds
// re-mapping opportunities for new points. It is safe for concurrent use.
type Index struct {
	cfg Config

	mu      sync.RWMutex
	entries map[string][]indexEntry
	stats   ReuseStats
}

type indexEntry struct {
	key string
	fp  Fingerprint
}

// NewIndex returns an empty index using cfg's tolerances.
func NewIndex(cfg Config) (*Index, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Index{cfg: cfg, entries: make(map[string][]indexEntry)}, nil
}

// Put records the fingerprint of an explored point. Re-putting the same
// (label, key) replaces the entry.
func (ix *Index) Put(label, key string, fp Fingerprint) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	list := ix.entries[label]
	for i := range list {
		if list[i].key == key {
			list[i].fp = fp
			return
		}
	}
	ix.entries[label] = append(list, indexEntry{key: key, fp: fp})
}

// MatchResult is a successful basis lookup: which stored point to reuse and
// how.
type MatchResult struct {
	BasisKey string
	Mapping  Mapping
}

// FindMapping scans the stored basis fingerprints under label for the best
// mapping onto target: identity beats affine; among affine candidates the
// smallest residual wins. It returns false when no stored point maps within
// tolerance. Rejections are tallied in the reuse statistics.
func (ix *Index) FindMapping(label string, target Fingerprint) (MatchResult, bool) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	best := MatchResult{Mapping: Mapping{Kind: MappingNone}}
	bestRes := math.Inf(1)
	for _, e := range ix.entries[label] {
		m, err := Match(ix.cfg, e.fp, target)
		if err != nil || m.Kind == MappingNone {
			ix.stats.Rejected++
			continue
		}
		if m.Kind == MappingIdentity {
			ix.stats.Identity++
			return MatchResult{BasisKey: e.key, Mapping: m}, true
		}
		if m.Fit.RelRMSE < bestRes {
			bestRes = m.Fit.RelRMSE
			best = MatchResult{BasisKey: e.key, Mapping: m}
		}
	}
	if best.Mapping.Kind == MappingAffine {
		ix.stats.Affine++
		return best, true
	}
	ix.stats.Computed++
	return MatchResult{}, false
}

// IndexEntry is one exported fingerprint (for persistence).
type IndexEntry struct {
	Label   string
	Key     string
	Outputs []float64
}

// Export returns a copy of every stored fingerprint.
func (ix *Index) Export() []IndexEntry {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var out []IndexEntry
	for label, list := range ix.entries {
		for _, e := range list {
			out = append(out, IndexEntry{
				Label:   label,
				Key:     e.key,
				Outputs: append([]float64(nil), e.fp.Outputs...),
			})
		}
	}
	return out
}

// Import inserts exported fingerprints, replacing same-keyed entries.
// Entries whose length does not match the index's configuration are
// rejected.
func (ix *Index) Import(entries []IndexEntry) error {
	for _, e := range entries {
		if len(e.Outputs) < 2 {
			return fmt.Errorf("core: imported fingerprint %s/%s too short", e.Label, e.Key)
		}
		ix.Put(e.Label, e.Key, Fingerprint{Outputs: append([]float64(nil), e.Outputs...)})
	}
	return nil
}

// Stats returns a snapshot of the reuse counters.
func (ix *Index) Stats() ReuseStats {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.stats
}
