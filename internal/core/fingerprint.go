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

	corr, err := stats.Correlation(basis.Outputs, target.Outputs)
	if err != nil {
		return Mapping{Kind: MappingNone}, err
	}
	if identical(cfg.IdentityTol, basis.Outputs, target.Outputs) {
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

// identical reports whether two equal-length output vectors agree
// elementwise within relative tolerance tol. A NaN or ±Inf output never
// agrees: its difference is NaN (which fails the <= test) or ±Inf.
func identical(tol float64, basis, target []float64) bool {
	target = target[:len(basis)]
	for i, b := range basis {
		t := target[i]
		scale := max(math.Abs(b), math.Abs(t))
		d := math.Abs(b - t)
		if !(d <= tol*max(scale, 1)) || math.IsInf(d, 0) {
			return false
		}
	}
	return true
}

// PointKey canonically encodes a parameter assignment so fingerprints can be
// indexed by parameter-space point. Keys are stable under map iteration
// order (names are sorted).
func PointKey(params map[string]value.Value) string {
	return string(AppendPointKey(make([]byte, 0, 64), SortedNames(nil, params), params))
}

// AppendPointKey appends PointKey(params) to dst, given names, the sorted
// names of params (SortedNames).
func AppendPointKey(dst []byte, names []string, params map[string]value.Value) []byte {
	for i, n := range names {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, n...)
		dst = append(dst, '=')
		dst = params[n].AppendSQLLiteral(dst)
	}
	return dst
}

// SortedNames returns the names of params in sorted order, in the storage
// of names (nil or an earlier result).
func SortedNames(names []string, params map[string]value.Value) []string {
	names = names[:0]
	for n := range params {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
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
	sum summary
}

// summary is what FindMapping's one-pass rejection needs of a fingerprint
// besides its outputs, derived from its mean, centered sum of squares and
// largest magnitude. Put computes it once per entry.
type summary struct {
	mean float64 // summed in order, then divided by n, as stats.FitAffine does
	root float64 // √(centered sum of squares about mean)
	cond float64 // largest magnitude / root; large for near-constant vectors
}

func summarize(xs []float64) summary {
	var sum, css, maxAbs float64
	for _, x := range xs {
		sum += x
		maxAbs = max(maxAbs, math.Abs(x))
	}
	mean := sum / float64(len(xs))
	for _, x := range xs {
		d := x - mean
		css += d * d
	}
	root := math.Sqrt(css)
	return summary{mean: mean, root: root, cond: maxAbs / root}
}

// boundable reports whether s is inside the range where the rejection's
// error bound holds: the centered sum of squares (and with it every output
// and the mean) finite, and neither near overflow nor near the subnormal
// range. NaN fails too.
func (s summary) boundable() bool {
	return s.root >= 0x1p-300 && s.root <= 0x1p300
}

// rejector rules candidates out for one FindMapping target without running
// Match, holding what the bound needs of the target and the tolerance.
//
// In exact arithmetic FitAffine's RelRMSE² is 1 − r², r the correlation.
// provablyNone asks for r² < 1 − 4·tol² (RelRMSE > 2·tol) and then for a
// float lower bound on the RelRMSE FitAffine computes that exceeds tol.
// With n outputs, u = 2⁻⁵³, γ = 2(n+4)u (twice γ_{n+4}: the doubling and
// the −γ in L absorb the rounding of evaluating the bound itself; γ < 1e-3
// for any n below 2⁴⁰), Mx, My the largest magnitudes and sxx, syy, sxy
// the centered sums as computed here (the stored roots and ratios add a
// few u more, which the doubling absorbs too):
//
//  1. Each float mean is off the true mean by at most γ·M. Any float way
//     of forming the sums, fused multiply-adds included, stays within
//     relative γ of the exact sums P about the float means, and sxy within
//     γ·√(Pxx·Pyy). So the correlation about the float means is at most
//     ρ = (1+γ)|r| + γ in magnitude, with r = sxy/√(sxx·syy).
//  2. The least-squares residual over every line a·x+b, relative to Pyy,
//     is 1 − ρ_P² minus a term from the mean errors of at most
//     δ² = n(1+γ)·γ²·(Mx/√sxx + My/√syy)². So it is at least
//     L = 1 − ρ² − δ² − γ.
//  3. FitAffine's float line (A, B) is one such line. Forming a residual
//     y − (A·x + B) in floats moves it by at most 4u(My + 2|A|Mx), and
//     with |r| < 1 that adds at most δ to the relative residual norm.
//     Summing the squares, dividing and the square roots lose at most a
//     relative 3γ.
//
// So FitAffine's RelRMSE ≥ (1 − 3γ)(√L − δ), and a value above tol means
// MappingNone. The bound must also exceed γ, so that no residual square it
// rests on underflows. The test is written L > (δ + max(tol, γ)/(1−3γ))².
// Zero, tiny, huge or non-finite variance (boundable), near-constant
// vectors (δ large), r² near 1 and tol ≥ 0.5 all fall through to Match.
type rejector struct {
	y     []float64
	sum   summary
	g     float64 // γ
	gk    float64 // γ·√(n(1+γ)), so δ = gk·(Mx/√sxx + My/√syy)
	r2max float64 // 1 − 4·tol²
	floor float64 // max(tol, γ)/(1 − 3γ)
}

func newRejector(tol float64, y []float64) rejector {
	n := float64(len(y))
	g := 2 * (n + 4) * 0x1p-53
	return rejector{
		y: y, sum: summarize(y),
		g: g, gk: g * math.Sqrt(n*(1+g)),
		r2max: 1 - 4*tol*tol, floor: max(tol, g) / (1 - 3*g),
	}
}

// provablyNone reports whether Match(cfg, basis, target) is certain to
// return MappingNone, for a basis x as long as the target, in one pass. A
// false answer proves nothing: the caller must run Match. Identity is not
// tested here; the caller does that first.
func (t *rejector) provablyNone(x []float64, sx summary) bool {
	if !t.sum.boundable() || !sx.boundable() {
		return false
	}
	y := t.y[:len(x)]
	mx, my := sx.mean, t.sum.mean
	var sxy float64
	for i, xi := range x {
		sxy += (xi - mx) * (y[i] - my)
	}
	r := math.Abs(sxy) / (sx.root * t.sum.root)
	if !(r*r < t.r2max) {
		return false
	}
	rho := (1+t.g)*r + t.g
	delta := t.gk * (sx.cond + t.sum.cond)
	m := delta + t.floor
	return 1-rho*rho-delta*delta-t.g > m*m
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
	e := indexEntry{key: key, fp: fp, sum: summarize(fp.Outputs)}
	list := ix.entries[label]
	for i := range list {
		if list[i].key == key {
			list[i] = e
			return
		}
	}
	ix.entries[label] = append(list, e)
}

// MatchResult is a successful basis lookup: which stored point to reuse and
// how.
type MatchResult struct {
	BasisKey string
	Mapping  Mapping
}

// FindMapping scans the stored basis fingerprints under label, in insertion
// order, for the best mapping onto target: the first identity wins;
// otherwise the smallest affine residual, the first of equals. It returns
// false when no stored point maps within tolerance. Rejections are tallied
// in the reuse statistics.
//
// The result is Match's over every candidate. A candidate of another
// length, or one the rejector rules out in a single pass, is rejected
// without running Match; every other one, and so every winner, is decided
// by Match itself.
func (ix *Index) FindMapping(label string, target Fingerprint) (MatchResult, bool) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	best := MatchResult{Mapping: Mapping{Kind: MappingNone}}
	bestRes := math.Inf(1)
	ys := target.Outputs
	rej := newRejector(ix.cfg.AffineTol, ys)
	list := ix.entries[label]
	for i := range list {
		e := &list[i]
		xs := e.fp.Outputs
		if len(xs) != len(ys) ||
			!identical(ix.cfg.IdentityTol, xs, ys) && rej.provablyNone(xs, e.sum) {
			ix.stats.Rejected++
			continue
		}
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
// Lengths need not equal the configuration's Length, nor each other: a
// point probes k = min(Length, worlds/2) worlds, and FindMapping compares
// only equal lengths. An entry shorter than two outputs, or holding a NaN
// or ±Inf output, is rejected: a snapshot only ever holds checked, finite
// probes.
func (ix *Index) Import(entries []IndexEntry) error {
	for _, e := range entries {
		if len(e.Outputs) < 2 {
			return fmt.Errorf("core: imported fingerprint %s/%s too short", e.Label, e.Key)
		}
		for _, v := range e.Outputs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("core: imported fingerprint %s/%s holds non-finite output %g", e.Label, e.Key, v)
			}
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
