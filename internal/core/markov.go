package core

import (
	"fmt"
	"math"

	"fuzzyprophet/internal/stats"
)

// The paper (§2): "when a simulation is Markovian (where the simulation
// consists of a series of steps, each depending on the simulation's output
// for the prior step), outputs of successive steps often remain strongly
// correlated. This is particularly true for many processes of interest that
// are built around discontinuities, with discrete events occurring at
// random points in time … Fingerprints can identify such Markovian
// dependencies, enabling automated generation of simple non-Markovian
// estimators. These estimators, valid for regions of the Markov chain,
// allow Fuzzy Prophet to skip the corresponding portions of the
// simulation."
//
// AnalyzeChain receives per-step fingerprints of a chain — outputs[t][i] is
// the chain's value at step t under fixed seed i — and finds maximal runs
// of steps where each step is an affine function of its predecessor within
// tolerance. Composing the per-step maps turns a run [start, end] into a
// single map x_start ↦ x_end: the non-Markovian estimator.

// Region is a maximal chain segment [Start, End] (step indices, End >
// Start) across which the composed affine estimator is valid.
//
// Residuals here are normalized by the chain's RMS level, not by the
// across-seed spread: an estimator predicts the next value, so what makes
// it "valid" is that its error is small relative to the magnitude of the
// quantity (the paper's capacity chain: routine failure noise of a few
// hundred cores against a ~50k-core level passes; a 12k-core purchase
// arrival at a seed-dependent week does not).
type Region struct {
	Start, End int
	// Fit maps the chain value at Start directly to the value at End.
	Fit stats.AffineFit
	// MaxStepResidual is the largest per-step level-relative residual
	// inside the region (diagnostic).
	MaxStepResidual float64
}

// Steps returns the number of simulation steps the region lets the engine
// skip (transitions strictly inside the region).
func (r Region) Steps() int { return r.End - r.Start }

// Estimator is the set of skippable regions found in one chain analysis.
type Estimator struct {
	// StepCount is the number of steps analyzed.
	StepCount int
	Regions   []Region
}

// SkippableSteps returns the total number of step transitions covered by
// regions (out of StepCount-1 total transitions).
func (e *Estimator) SkippableSteps() int {
	total := 0
	for _, r := range e.Regions {
		total += r.Steps()
	}
	return total
}

// SkipFraction returns the fraction of chain transitions the estimator can
// skip.
func (e *Estimator) SkipFraction() float64 {
	if e.StepCount <= 1 {
		return 0
	}
	return float64(e.SkippableSteps()) / float64(e.StepCount-1)
}

// Jump maps a chain value at fromStep to the end of the surrounding region.
// It returns (toStep, mapped value, true) when a region covers fromStep and
// (fromStep, x, false) otherwise — the caller must simulate one step.
//
// When fromStep is strictly inside a region the composed region fit cannot
// be used directly (it starts at Region.Start); Jump therefore only fires
// at exact region starts, which is how the scenario engine uses it: regions
// are aligned to the event discontinuities that break them.
func (e *Estimator) Jump(fromStep int, x float64) (int, float64, bool) {
	for _, r := range e.Regions {
		if r.Start == fromStep {
			return r.End, r.Fit.Apply(x), true
		}
	}
	return fromStep, x, false
}

// AnalyzeChain fingerprint-analyzes a step-wise simulation. outputs[t] is
// the vector of chain values at step t at the fingerprint seeds;
// every step must have the same vector length ≥ 2. A transition t-1 → t is
// "deterministic given the past" when the affine fit of outputs[t] on
// outputs[t-1] has relative residual ≤ cfg.AffineTol; maximal runs of such
// transitions become Regions with composed fits.
func AnalyzeChain(cfg Config, outputs [][]float64) (*Estimator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(outputs) == 0 {
		return &Estimator{}, nil
	}
	width := len(outputs[0])
	if width < 2 {
		return nil, fmt.Errorf("core: chain fingerprints need at least 2 seeds, got %d", width)
	}
	for t, o := range outputs {
		if len(o) != width {
			return nil, fmt.Errorf("core: chain step %d has %d outputs, want %d", t, len(o), width)
		}
	}
	est := &Estimator{StepCount: len(outputs)}

	type stepFit struct {
		ok    bool
		fit   stats.AffineFit
		level float64
	}
	fits := make([]stepFit, len(outputs)) // fits[t]: map from t-1 to t
	for t := 1; t < len(outputs); t++ {
		fit, err := stats.FitAffine(outputs[t-1], outputs[t])
		if err != nil {
			return nil, err
		}
		lv := rmsLevel(outputs[t])
		fits[t] = stepFit{ok: levelResidual(fit, lv) <= cfg.AffineTol, fit: fit, level: lv}
	}

	// Collect maximal runs of OK transitions and compose their fits.
	t := 1
	for t < len(outputs) {
		if !fits[t].ok {
			t++
			continue
		}
		start := t - 1
		composed := fits[t].fit
		maxRes := levelResidual(fits[t].fit, fits[t].level)
		end := t
		for end+1 < len(outputs) && fits[end+1].ok {
			end++
			next := fits[end].fit
			// next ∘ composed: y = nA·(cA·x + cB) + nB.
			composed = stats.AffineFit{
				A: next.A * composed.A,
				B: next.A*composed.B + next.B,
			}
			if r := levelResidual(next, fits[end].level); r > maxRes {
				maxRes = r
			}
		}
		// Validate the composed map end-to-end: composition can accumulate
		// error, so refit directly and keep the better description.
		direct, err := stats.FitAffine(outputs[start], outputs[end])
		if err == nil && levelResidual(direct, rmsLevel(outputs[end])) <= cfg.AffineTol {
			composed = direct
		}
		est.Regions = append(est.Regions, Region{
			Start:           start,
			End:             end,
			Fit:             composed,
			MaxStepResidual: maxRes,
		})
		t = end + 1
	}
	return est, nil
}

// rmsLevel returns the root-mean-square magnitude of a step's outputs, the
// scale the estimator's error is judged against.
func rmsLevel(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x * x
	}
	return math.Sqrt(s / float64(len(xs)))
}

// levelResidual normalizes a step fit's RMSE by the step's level; constant-
// zero chains fall back to the raw RMSE.
func levelResidual(fit stats.AffineFit, level float64) float64 {
	if level == 0 {
		return fit.RMSE
	}
	return fit.RMSE / level
}
