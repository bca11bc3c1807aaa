// Package stats provides the streaming statistics substrate used by Fuzzy
// Prophet's Result Aggregator and by the fingerprint engine.
//
// Everything here is numerically careful and allocation-light: the
// aggregator runs once per (group, column, world) and the fingerprint
// correlator runs once per candidate (basis, target) pair during parameter
// exploration.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Moments accumulates count, mean and variance online using Welford's
// algorithm. The zero value is ready to use.
type Moments struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds x into the accumulator.
func (m *Moments) Add(x float64) {
	m.n++
	if m.n == 1 {
		m.min, m.max = x, x
	} else {
		if x < m.min {
			m.min = x
		}
		if x > m.max {
			m.max = x
		}
	}
	delta := x - m.mean
	m.mean += delta / float64(m.n)
	m.m2 += delta * (x - m.mean)
}

// Merge combines another accumulator into m (parallel Welford merge).
func (m *Moments) Merge(o *Moments) {
	if o.n == 0 {
		return
	}
	if m.n == 0 {
		*m = *o
		return
	}
	delta := o.mean - m.mean
	total := m.n + o.n
	m.m2 += o.m2 + delta*delta*float64(m.n)*float64(o.n)/float64(total)
	m.mean += delta * float64(o.n) / float64(total)
	if o.min < m.min {
		m.min = o.min
	}
	if o.max > m.max {
		m.max = o.max
	}
	m.n = total
}

// Count returns the number of samples.
func (m *Moments) Count() int64 { return m.n }

// State returns the accumulator's raw state (count, mean, M2 sum of squared
// deviations, min, max) — the serializable form the shard protocol ships
// between workers and the coordinator.
func (m *Moments) State() (n int64, mean, m2, min, max float64) {
	return m.n, m.mean, m.m2, m.min, m.max
}

// MomentsFromState rebuilds an accumulator from State's raw form. A
// round-trip through State/MomentsFromState is exact, so merging restored
// accumulators behaves identically to merging the originals.
func MomentsFromState(n int64, mean, m2, min, max float64) Moments {
	if n <= 0 {
		return Moments{}
	}
	return Moments{n: n, mean: mean, m2: m2, min: min, max: max}
}

// Mean returns the sample mean (0 when empty).
func (m *Moments) Mean() float64 { return m.mean }

// Variance returns the unbiased sample variance (0 when n < 2).
func (m *Moments) Variance() float64 {
	if m.n < 2 {
		return 0
	}
	return m.m2 / float64(m.n-1)
}

// StdDev returns the unbiased sample standard deviation.
func (m *Moments) StdDev() float64 { return math.Sqrt(m.Variance()) }

// Min returns the minimum sample (0 when empty).
func (m *Moments) Min() float64 { return m.min }

// Max returns the maximum sample (0 when empty).
func (m *Moments) Max() float64 { return m.max }

// StdErr returns the standard error of the mean (0 when n < 2).
func (m *Moments) StdErr() float64 {
	if m.n < 2 {
		return 0
	}
	return m.StdDev() / math.Sqrt(float64(m.n))
}

// CI95 returns the half-width of a 95% normal-approximation confidence
// interval for the mean. This drives the online mode's notion of an
// "accurate guess".
func (m *Moments) CI95() float64 { return 1.96 * m.StdErr() }

// Correlation computes the Pearson correlation coefficient of two equal-
// length vectors. It returns an error when lengths differ or n < 2, and 0
// when either side has zero variance (the caller must treat that case
// specially: a constant output is trivially mappable).
func Correlation(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("stats: correlation length mismatch %d vs %d", len(x), len(y))
	}
	if len(x) < 2 {
		return 0, fmt.Errorf("stats: correlation needs at least 2 points, got %d", len(x))
	}
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, nil
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// AffineFit is the least-squares fit y ≈ A*x + B plus goodness measures.
// It is the mapping the fingerprint engine uses to re-map sample sets
// between correlated parameter points.
type AffineFit struct {
	A, B float64
	// RMSE is the root-mean-square residual of the fit.
	RMSE float64
	// RelRMSE is RMSE divided by the standard deviation of y; 0 means the
	// mapping is exact, 1 means the fit explains nothing. For constant y
	// (zero variance) RelRMSE is 0 when the fit is exact and +Inf otherwise.
	RelRMSE float64
	// R2 is the coefficient of determination.
	R2 float64
}

// FitAffine computes the least-squares affine map from x to y. When x has
// zero variance the fit degenerates to the constant map B = mean(y), A = 0.
func FitAffine(x, y []float64) (AffineFit, error) {
	if len(x) != len(y) {
		return AffineFit{}, fmt.Errorf("stats: affine fit length mismatch %d vs %d", len(x), len(y))
	}
	if len(x) < 2 {
		return AffineFit{}, fmt.Errorf("stats: affine fit needs at least 2 points, got %d", len(x))
	}
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	var fit AffineFit
	if sxx == 0 {
		fit.A = 0
		fit.B = my
	} else {
		fit.A = sxy / sxx
		fit.B = my - fit.A*mx
	}
	var sse float64
	for i := range x {
		r := y[i] - (fit.A*x[i] + fit.B)
		sse += r * r
	}
	fit.RMSE = math.Sqrt(sse / n)
	sdY := math.Sqrt(syy / n)
	switch {
	case sdY > 0:
		fit.RelRMSE = fit.RMSE / sdY
	case fit.RMSE == 0:
		fit.RelRMSE = 0
	default:
		fit.RelRMSE = math.Inf(1)
	}
	if syy == 0 {
		if sse == 0 {
			fit.R2 = 1
		} else {
			fit.R2 = 0
		}
	} else {
		fit.R2 = 1 - sse/syy
	}
	return fit, nil
}

// Apply maps a single value through the fit.
func (f AffineFit) Apply(x float64) float64 { return f.A*x + f.B }

// ApplySlice maps a whole sample vector through the fit, allocating the
// result.
func (f AffineFit) ApplySlice(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f.A*x + f.B
	}
	return out
}

// Quantile returns the q-quantile (0<=q<=1) of xs by sorting a copy and
// linearly interpolating. It returns an error on empty input or q outside
// [0,1].
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("stats: quantile of empty sample")
	}
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("stats: quantile q=%g outside [0,1]", q)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], nil
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo], nil
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac, nil
}
