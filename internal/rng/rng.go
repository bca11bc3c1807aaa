// Package rng provides the deterministic pseudorandom substrate that Fuzzy
// Prophet's fingerprinting technique depends on.
//
// The paper's fingerprint of a parameterized stochastic function is "a
// sequence of its outputs under a fixed sequence of random inputs (i.e.,
// seed of its pseudorandom number generator)". That requires VG-Functions to
// be strictly deterministic in (seed, parameters), across runs and across
// machines. The standard library's math/rand does not promise a stable
// stream across Go releases, so this package implements its own generator: a
// PCG-XSH-RR 64/32 core with SplitMix64 seeding, plus the distribution
// samplers the demo models need.
//
// Streams and substreams: Derive produces an independent stream from a
// parent seed and a label, so that "world i, VG call j" gets its own
// reproducible stream without coordination. Key hashes the (seed, label)
// half once, so a loop over indices — worlds of one site, weeks of one
// failure class — derives each stream on the stack in two SplitMix64 rounds.
package rng

import (
	"fmt"
	"math"
)

// Source is a deterministic PRNG stream (PCG-XSH-RR 64/32).
//
// A Source must not be shared between goroutines without external locking;
// Monte Carlo workers each derive their own.
type Source struct {
	state uint64
	inc   uint64 // stream selector, always odd
}

const pcgMultiplier = 6364136223846793005

// splitmix64 scrambles a seed into a well-distributed 64-bit value. It is
// the standard SplitMix64 finalizer, used for seeding and stream derivation.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// New returns a Source seeded from seed on the default stream.
func New(seed uint64) *Source { return NewStream(seed, 0) }

// NewStream returns a Source seeded from seed on the given stream. Distinct
// streams with the same seed produce statistically independent sequences.
func NewStream(seed, stream uint64) *Source {
	s := seeded(splitmix64(seed), stream)
	return &s
}

// seeded is PCG reference seeding with the seed already scrambled: start
// from state 0, advance, add the seed, advance.
func seeded(scrambledSeed, stream uint64) Source {
	inc := (splitmix64(stream) << 1) | 1
	return Source{state: (inc+scrambledSeed)*pcgMultiplier + inc, inc: inc}
}

// Keyed is a (seed, label) pair with the label already hashed: the family
// of substreams Derive(seed, label, index) ranges over. Hashing the label
// costs one SplitMix64 round per byte, so a caller drawing many indices of
// one family keys it once and pays only At's two-round finish per index.
type Keyed struct {
	h         uint64 // seed and label hash
	scrambled uint64 // splitmix64(h), the substreams' common scrambled seed
}

// Key hashes label under seed once; Key(seed, label).At(index) is the
// stream Derive(seed, label, index) returns.
func Key(seed uint64, label string) Keyed {
	h := splitmix64(seed)
	for i := 0; i < len(label); i++ {
		h = splitmix64(h ^ uint64(label[i])*0x100000001b3)
	}
	return Keyed{h: h, scrambled: splitmix64(h)}
}

// At returns the family's substream at index, by value so it can live on
// the caller's stack.
func (k Keyed) At(index uint64) Source {
	return seeded(k.scrambled, splitmix64(k.h^index*0x9e3779b97f4a7c15))
}

// Derive returns a new independent Source determined by the parent seed, a
// string label and an index. It is the substream mechanism used to give each
// (world, VG invocation) pair its own reproducible stream.
func Derive(seed uint64, label string, index uint64) *Source {
	s := Key(seed, label).At(index)
	return &s
}

// next advances the state and returns a 32-bit output (PCG-XSH-RR).
func (s *Source) next() uint32 {
	old := s.state
	s.state = old*pcgMultiplier + s.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return (xorshifted >> rot) | (xorshifted << ((-rot) & 31))
}

// Uint64 returns a uniformly distributed 64-bit value.
func (s *Source) Uint64() uint64 {
	return uint64(s.next())<<32 | uint64(s.next())
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("rng: Intn argument must be positive, got %d", n))
	}
	// Lemire's nearly-divisionless bounded sampling on 64 bits.
	bound := uint64(n)
	x := s.Uint64()
	hi, lo := mul64(x, bound)
	if lo < bound {
		threshold := -bound % bound
		for lo < threshold {
			x = s.Uint64()
			hi, lo = mul64(x, bound)
		}
	}
	return int(hi)
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	aLo, aHi := a&mask32, a>>32
	bLo, bHi := b&mask32, b>>32
	t := aLo * bLo
	lo = t & mask32
	c := t >> 32
	t = aHi*bLo + c
	m := t & mask32
	c = t >> 32
	t = aLo*bHi + m
	lo |= (t & mask32) << 32
	hi = aHi*bHi + c + (t >> 32)
	return hi, lo
}

// Norm returns a standard normal variate (ratio-of-uniforms is avoided;
// we use the polar Box-Muller with caching for determinism and speed).
func (s *Source) Norm() float64 {
	// Polar Box–Muller without caching the spare: caching would make the
	// stream position depend on call history in a way that complicates
	// substream reasoning, so we deliberately discard the second variate.
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return u * math.Sqrt(-2*math.Log(q)/q)
		}
	}
}

// Normal returns a normal variate with the given mean and standard
// deviation. It panics if stddev is negative.
func (s *Source) Normal(mean, stddev float64) float64 {
	if stddev < 0 {
		panic(fmt.Sprintf("rng: negative stddev %g", stddev))
	}
	return mean + stddev*s.Norm()
}

// LogNormal returns exp(N(mu, sigma)).
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Normal(mu, sigma))
}

// Exponential returns an exponential variate with the given rate (lambda).
// It panics if rate <= 0.
func (s *Source) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic(fmt.Sprintf("rng: non-positive exponential rate %g", rate))
	}
	for {
		u := s.Float64()
		if u > 0 {
			return -math.Log(u) / rate
		}
	}
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (s *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Poisson returns a Poisson variate with the given mean. It is
// NewPoisson(mean).Sample(s); a caller drawing many variates of one mean
// builds the Poisson once instead.
func (s *Source) Poisson(mean float64) int64 {
	return NewPoisson(mean).Sample(s)
}

// Poisson is a Poisson distribution with its per-mean constants computed
// once: Knuth's product limit exp(-mean) for small means, the PTRS
// constants for large ones. Sample draws exactly what Source.Poisson does.
type Poisson struct {
	mean float64
	// l is exp(-mean), Knuth's product limit (mean < 30).
	l float64
	// PTRS constants (mean >= 30).
	b, a, invalpha, vr float64
}

// NewPoisson precomputes the sampler for mean. It panics if mean < 0.
func NewPoisson(mean float64) Poisson {
	if mean < 0 {
		panic(fmt.Sprintf("rng: negative Poisson mean %g", mean))
	}
	p := Poisson{mean: mean}
	if mean < 30 {
		p.l = math.Exp(-mean)
		return p
	}
	p.b = 0.931 + 2.53*math.Sqrt(mean)
	p.a = -0.059 + 0.02483*p.b
	p.invalpha = 1.1239 + 1.1328/(p.b-3.4)
	p.vr = 0.9277 - 3.6224/(p.b-2)
	return p
}

// Sample draws one variate from s. For small means it uses Knuth's product
// method; for large means the PTRS transformed rejection method of Hörmann
// (1993), which is exact and fast.
func (p Poisson) Sample(s *Source) int64 {
	if p.mean == 0 {
		return 0
	}
	if p.mean < 30 {
		k := int64(0)
		prod := 1.0
		for {
			prod *= s.Float64()
			if prod <= p.l {
				return k
			}
			k++
		}
	}
	// PTRS (Hörmann): valid for mean >= 10; we use it above 30.
	a, b := p.a, p.b
	for {
		u := s.Float64() - 0.5
		v := s.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + p.mean + 0.43)
		if us >= 0.07 && v <= p.vr {
			return int64(k)
		}
		if k < 0 || (us < 0.013 && v > us) {
			continue
		}
		if math.Log(v*p.invalpha/(a/(us*us)+b)) <= k*math.Log(p.mean)-p.mean-logGamma(k+1) {
			return int64(k)
		}
	}
}

// logGamma is ln(Γ(x)) via the Lanczos approximation, sufficient for the
// Poisson sampler's acceptance test.
func logGamma(x float64) float64 {
	lg, _ := math.Lgamma(x)
	return lg
}

// Gamma returns a gamma variate with the given shape and scale using the
// Marsaglia–Tsang method. It panics if shape or scale is non-positive.
func (s *Source) Gamma(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic(fmt.Sprintf("rng: non-positive gamma shape %g or scale %g", shape, scale))
	}
	if shape < 1 {
		// Boost via Johnk-style transform: G(a) = G(a+1) * U^{1/a}.
		u := s.Float64()
		for u == 0 {
			u = s.Float64()
		}
		return s.Gamma(shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := s.Norm()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := s.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v * scale
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * scale
		}
	}
}

// Weibull returns a Weibull variate with the given shape and scale.
func (s *Source) Weibull(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic(fmt.Sprintf("rng: non-positive weibull shape %g or scale %g", shape, scale))
	}
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	return scale * math.Pow(-math.Log(u), 1/shape)
}

// Binomial returns the number of successes in n Bernoulli(p) trials. It uses
// direct simulation for small n and a normal approximation never — exactness
// matters for fingerprint determinism, so large n falls back to a
// waiting-time method that is still exact.
func (s *Source) Binomial(n int, p float64) int64 {
	if n < 0 {
		panic(fmt.Sprintf("rng: negative binomial n %d", n))
	}
	if p <= 0 || n == 0 {
		return 0
	}
	if p >= 1 {
		return int64(n)
	}
	if n <= 64 {
		var k int64
		for i := 0; i < n; i++ {
			if s.Float64() < p {
				k++
			}
		}
		return k
	}
	// Waiting-time (geometric gaps) method: exact, O(np) expected.
	logq := math.Log1p(-p)
	var k int64
	var sum float64
	for {
		u := s.Float64()
		for u == 0 {
			u = s.Float64()
		}
		sum += math.Log(u) / logq
		if sum > float64(n) {
			return k
		}
		k++
		if k >= int64(n) {
			return int64(n)
		}
	}
}

// Uniform returns a uniform variate in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}
