package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"fuzzyprophet/internal/rng"
)

// scanFindMapping is the lookup FindMapping must agree with: Match on every
// candidate in list order, tallying into st. The first identity wins;
// otherwise the smallest RelRMSE, the first of equals.
func scanFindMapping(cfg Config, list []indexEntry, target Fingerprint, st *ReuseStats) (MatchResult, bool) {
	best := MatchResult{Mapping: Mapping{Kind: MappingNone}}
	bestRes := math.Inf(1)
	for _, e := range list {
		m, err := Match(cfg, e.fp, target)
		if err != nil || m.Kind == MappingNone {
			st.Rejected++
			continue
		}
		if m.Kind == MappingIdentity {
			st.Identity++
			return MatchResult{BasisKey: e.key, Mapping: m}, true
		}
		if m.Fit.RelRMSE < bestRes {
			bestRes = m.Fit.RelRMSE
			best = MatchResult{BasisKey: e.key, Mapping: m}
		}
	}
	if best.Mapping.Kind == MappingAffine {
		st.Affine++
		return best, true
	}
	st.Computed++
	return MatchResult{}, false
}

// scanCase is one index to hold against scanFindMapping: entries Put under
// one label in order (a repeated key replaces), then each target looked up.
type scanCase struct {
	cfg     Config
	entries []IndexEntry
	targets [][]float64
}

func checkAgainstScan(t testing.TB, c scanCase) {
	t.Helper()
	ix, err := NewIndex(c.cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range c.entries {
		ix.Put("site", e.Key, Fingerprint{Outputs: e.Outputs})
	}
	var want ReuseStats
	for ti, y := range c.targets {
		target := Fingerprint{Outputs: y}
		wantRes, wantOK := scanFindMapping(c.cfg, ix.entries["site"], target, &want)
		gotRes, gotOK := ix.FindMapping("site", target)
		if gotOK != wantOK || !sameResult(gotRes, wantRes) {
			t.Fatalf("target %d (cfg %+v): FindMapping = %+v, %v; scan = %+v, %v",
				ti, c.cfg, gotRes, gotOK, wantRes, wantOK)
		}
		if got := ix.Stats(); got != want {
			t.Fatalf("target %d (cfg %+v): stats %+v, scan %+v", ti, c.cfg, got, want)
		}
	}
}

func sameResult(a, b MatchResult) bool {
	bits := func(m Mapping) [6]uint64 {
		return [6]uint64{
			math.Float64bits(m.Fit.A), math.Float64bits(m.Fit.B),
			math.Float64bits(m.Fit.RMSE), math.Float64bits(m.Fit.RelRMSE),
			math.Float64bits(m.Fit.R2), math.Float64bits(m.Correlation),
		}
	}
	return a.BasisKey == b.BasisKey && a.Mapping.Kind == b.Mapping.Kind &&
		bits(a.Mapping) == bits(b.Mapping)
}

// scanCases builds the deterministic cases: for each k and AffineTol,
// random, exactly affine, noisy affine (residuals either side of tol and
// 2·tol), exactly identical, near-constant, huge-offset, zero-variance,
// mixed-length and non-finite fingerprints.
func scanCases() []scanCase {
	var cases []scanCase
	src := rng.New(36)
	vec := func(n int, f func(i int) float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	normal := func(n int, mean, sd float64) []float64 {
		return vec(n, func(int) float64 { return src.Normal(mean, sd) })
	}
	affine := func(x []float64, a, b, noise float64) []float64 {
		return vec(len(x), func(i int) float64 { return a*x[i] + b + src.Normal(0, noise) })
	}
	entries := func(vs ...[]float64) []IndexEntry {
		out := make([]IndexEntry, len(vs))
		for i, v := range vs {
			out[i] = IndexEntry{Key: fmt.Sprint(i), Outputs: v}
		}
		return out
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, k := range []int{2, 16, 32} {
		for _, tol := range []float64{0, 0.02, 0.3, 0.6} {
			cfg := DefaultConfig()
			cfg.Length, cfg.AffineTol = k, tol
			add := func(es []IndexEntry, targets ...[]float64) {
				cases = append(cases, scanCase{cfg: cfg, entries: es, targets: targets})
			}

			// Random bases; random, affine, noisy-affine and identical targets.
			var bases [][]float64
			for i := range 20 {
				bases = append(bases, normal(k, float64(100*i), 1+float64(i)))
			}
			x := bases[13]
			add(entries(bases...),
				normal(k, 0, 1), normal(k, 1300, 14),
				affine(x, 1.5, 7, 0), affine(x, -2, 1e3, 0),
				affine(x, 1, 0, 0.01*14), affine(x, 1, 0, 0.03*14),
				affine(x, 1, 0, 0.05*14), affine(x, 3, -5, 0.5*14),
				append([]float64(nil), x...), append([]float64(nil), bases[19]...))
			// Two affine bases of one variate: the smaller residual wins.
			z := normal(k, 0, 1)
			add(entries(normal(k, 5, 2), affine(z, 2, 1, 0.004), affine(z, 2, 1, 0.002), affine(z, -1, 0, 0)),
				affine(z, 4, 3, 0), affine(z, 4, 3, 0.01))

			// Near-constant and huge-offset fingerprints.
			nc := func() []float64 { return normal(k, 5e4, 1e-3) }
			n1, n2 := nc(), normal(k, 5e4, 1e-6)
			add(entries(nc(), nc(), n1, nc(), n2),
				nc(), affine(n1, 1, 0, 0), affine(n1, 1, 1e-9, 0), affine(n1, -1, 1e5, 0),
				affine(n1, 2, -5e4, 1e-6), affine(n2, 6.875, 0, 0), affine(n2, -3, 0, 0))
			h := normal(k, 1e12, 1)
			add(entries(normal(k, 1e12, 1), h, normal(k, -1e15, 3)),
				normal(k, 1e12, 1), affine(h, 1, 0, 0), affine(h, 1, 1, 0), affine(h, 1, 0, 0.05))

			// A re-Put key replaces its fingerprint.
			v := normal(k, 3, 1)
			add([]IndexEntry{{Key: "a", Outputs: normal(k, 500, 100)}, {Key: "b", Outputs: normal(k, 0, 1)},
				{Key: "a", Outputs: v}}, affine(v, 2, 1, 0), v)

			// Zero variance.
			c7 := vec(k, func(int) float64 { return 7 })
			add(entries(vec(k, func(int) float64 { return 0 }), c7, normal(k, 7, 1)),
				vec(k, func(int) float64 { return 7 }), vec(k, func(int) float64 { return 3 }),
				normal(k, 0, 1), affine(c7, 1, 1e-14, 0))

			// Mixed lengths: only equal lengths can match.
			y := normal(k, 10, 2)
			add(entries(normal(k+1, 10, 2), affine(y[:k-1], 1, 0, 0), y, normal(k+5, 0, 1), affine(y, 2, 0, 0)),
				y, affine(y, 2, 0, 0), normal(k, 10, 2), affine(normal(k+1, 0, 1), 1, 0, 0))

			// Non-finite outputs, as Put would store them.
			w := normal(k, 0, 1)
			withAt := func(v float64) []float64 {
				out := append([]float64(nil), w...)
				out[k/2] = v
				return out
			}
			all := func(v float64) []float64 { return vec(k, func(int) float64 { return v }) }
			add(entries(all(nan), withAt(nan), withAt(inf), withAt(-inf), all(inf), normal(k, 0, 1), w),
				w, withAt(nan), withAt(inf), withAt(-inf), all(nan), all(inf), all(-inf), affine(w, 2, 1, 0))
		}
	}
	return cases
}

func TestFindMappingMatchesScan(t *testing.T) {
	for _, c := range scanCases() {
		checkAgainstScan(t, c)
	}
}

// The fast path must actually fire: unrelated fingerprints at the default
// tolerances are ruled out without Match, exact affine images are not.
func TestProvablyNoneRejectsUnrelated(t *testing.T) {
	cfg := DefaultConfig()
	src := rng.New(7)
	for trial := range 200 {
		x := make([]float64, cfg.Length)
		y := make([]float64, cfg.Length)
		for i := range x {
			x[i] = src.Normal(float64(trial), 10)
			y[i] = src.Normal(0, 1)
		}
		if rej := newRejector(cfg.AffineTol, y); !rej.provablyNone(x, summarize(x)) {
			t.Fatalf("trial %d: unrelated fingerprints not ruled out", trial)
		}
		for i := range y {
			y[i] = 1.5*x[i] + 7
		}
		if rej := newRejector(cfg.AffineTol, y); rej.provablyNone(x, summarize(x)) {
			t.Fatalf("trial %d: an affine image was ruled out", trial)
		}
	}
}

// fuzzReader decodes a scanCase from fuzz bytes; an exhausted input reads
// as zeros.
type fuzzReader struct{ data []byte }

func (r *fuzzReader) byte() byte {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

func (r *fuzzReader) small() float64 { return float64(int8(r.byte())) }

func (r *fuzzReader) raw() float64 {
	var b [8]byte
	n := copy(b[:], r.data)
	r.data = r.data[n:]
	return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
}

var fuzzTols = []float64{0, 0.02, 0.3, 0.6, 1e-9, 0.499}

// vector decodes one fingerprint of length k (mode 0 may pick another);
// mode 2 is an affine image of base plus scaled small noise.
func (r *fuzzReader) vector(k int, base []float64) []float64 {
	mode := r.byte() % 5
	n := k
	if mode == 0 {
		if l := int(r.byte()); l > 0 && l <= 64 {
			n = l
		}
	}
	out := make([]float64, n)
	switch mode {
	case 0: // raw bit patterns: NaN, ±Inf, subnormal, huge
		for i := range out {
			out[i] = r.raw()
		}
	case 1: // small integers: ties and exact affine relations
		for i := range out {
			out[i] = r.small()
		}
	case 2: // affine image of base, noise 2^-e
		a, b := r.small()/8, r.small()*math.Pow(1e3, float64(r.byte()%4))
		scale := math.Ldexp(1, -int(r.byte()%64))
		for i := range out {
			x := r.small()
			if i < len(base) {
				x = base[i]
			}
			out[i] = a*x + b + scale*r.small()
		}
	case 3: // near-constant about a large offset
		off := []float64{5e4, 1e12, -3, 1e300}[r.byte()%4]
		for i := range out {
			out[i] = off + r.small()*1e-3/128
		}
	case 4: // constant
		v := r.small()
		for i := range out {
			out[i] = v
		}
	}
	return out
}

func decodeScanCase(data []byte) scanCase {
	r := &fuzzReader{data: data}
	cfg := DefaultConfig()
	cfg.Length = 2 + int(r.byte()%63)
	cfg.AffineTol = fuzzTols[int(r.byte())%len(fuzzTols)]
	c := scanCase{cfg: cfg}
	var base []float64
	for range 1 + int(r.byte()%24) {
		key := fmt.Sprint(r.byte() % 32)
		v := r.vector(cfg.Length, base)
		if base == nil {
			base = v
		}
		c.entries = append(c.entries, IndexEntry{Key: key, Outputs: v})
	}
	for range 1 + int(r.byte()%12) {
		c.targets = append(c.targets, r.vector(cfg.Length, base))
	}
	return c
}

// encodeScanCase is decodeScanCase's inverse, up to key names, for cases
// of at most 24 entries, 12 targets and fingerprints 64 long, every one
// written as raw bits.
func encodeScanCase(c scanCase) []byte {
	tol := 0
	for i, v := range fuzzTols {
		if v == c.cfg.AffineTol {
			tol = i
		}
	}
	out := []byte{byte(c.cfg.Length - 2), byte(tol), byte(len(c.entries) - 1)}
	vector := func(v []float64) {
		out = append(out, 0, byte(len(v)))
		for _, x := range v {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(x))
		}
	}
	keys := map[string]byte{}
	for _, e := range c.entries {
		id, ok := keys[e.Key]
		if !ok {
			id = byte(len(keys))
			keys[e.Key] = id
		}
		out = append(out, id)
		vector(e.Outputs)
	}
	out = append(out, byte(len(c.targets)-1))
	for _, y := range c.targets {
		vector(y)
	}
	return out
}

func FuzzFindMappingMatchesScan(f *testing.F) {
	for _, c := range scanCases() {
		f.Add(encodeScanCase(c))
	}
	f.Add([]byte{30, 1, 5, 0, 1, 1, 2, 16, 5, 3, 2, 1, 4, 9, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstScan(t, decodeScanCase(data))
	})
}

// BenchmarkFindMapping mirrors the layer probe's core.find_mapping_us: n
// stored bases of k=32 probes that all miss, plus an affine hit last.
func BenchmarkFindMapping(b *testing.B) {
	for _, n := range []int{53, 64, 1024} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			cfg := DefaultConfig()
			ix, _ := NewIndex(cfg)
			src := rng.New(1)
			var last Fingerprint
			for i := range n {
				last = Fingerprint{Outputs: make([]float64, cfg.Length)}
				for j := range last.Outputs {
					last.Outputs[j] = src.Normal(float64(100*i), 10)
				}
				ix.Put("site", fmt.Sprint(i), last)
			}
			target := Fingerprint{Outputs: make([]float64, cfg.Length)}
			for j, x := range last.Outputs {
				target.Outputs[j] = 1.5*x + 7
			}
			for b.Loop() {
				if _, ok := ix.FindMapping("site", target); !ok {
					b.Fatal("no mapping found")
				}
			}
		})
	}
}
