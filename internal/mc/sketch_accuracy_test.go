package mc

import (
	"context"
	"math"
	"sort"
	"testing"

	"fuzzyprophet/internal/sqlparser"
)

// sketchQuantileRankTolerance is the pinned accuracy bound for sketch-only
// evaluation: any quantile read off the merged t-digest must land within
// this much RANK error of the exact sample quantile (at the default
// compression of 200 the theoretical bound is ~q(1-q)/50, well inside
// 0.02 across the whole quantile range). Loosening this constant is an API
// regression: sketch-only consumers size capacity plans off these tails.
const sketchQuantileRankTolerance = 0.02

// rankOf returns the rank interval [fraction <, fraction <=] of v within
// the ascending-sorted samples — an interval because of ties.
func rankOf(sorted []float64, v float64) (float64, float64) {
	n := float64(len(sorted))
	lo := sort.SearchFloat64s(sorted, v)
	hi := sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
	return float64(lo) / n, float64(hi) / n
}

// TestSketchOnlyQuantileAccuracy: for every bundled example scenario and
// shard counts 1, 2, 7 and 16 over in-process workers, quantiles read from
// the sketch-only evaluation (merged per-shard t-digests, no sample
// vectors) agree with
// the exact sample quantiles within sketchQuantileRankTolerance — the
// regression guard for wire protocol v4's compressed response mode.
func TestSketchOnlyQuantileAccuracy(t *testing.T) {
	ctx := context.Background()
	const worlds = 2000
	quantiles := []float64{0.05, 0.25, 0.5, 0.75, 0.95}

	for _, name := range sqlparser.ExampleScenarioNames() {
		t.Run(name, func(t *testing.T) {
			scn := compileExample(t, name)
			pt := scn.DefaultPoint()
			base := NewEvaluator(scn, Options{Worlds: worlds})
			exact, err := base.evaluatePoint(ctx, pt)
			if err != nil {
				t.Fatal(err)
			}
			if len(exact.Columns) == 0 {
				t.Fatalf("%s: no output columns", name)
			}
			sorted := make(map[string][]float64, len(exact.Columns))
			for col, samples := range exact.Columns {
				s := append([]float64(nil), samples...)
				sort.Float64s(s)
				sorted[col] = s
			}

			for _, shards := range []int{1, 2, 7, 16} {
				ev := NewEvaluator(scn, Options{Worlds: worlds, Shards: shards, SketchOnly: true, Runner: workerRunner(scn, Options{})})
				got, err := ev.evaluatePoint(ctx, pt)
				if err != nil {
					t.Fatalf("%d shards: %v", shards, err)
				}
				if len(got.Columns) != 0 {
					t.Errorf("%d shards: sketch-only result carries %d sample vectors", shards, len(got.Columns))
				}
				if len(got.Sketches) == 0 {
					t.Fatalf("%d shards: no sketches in sketch-only result", shards)
				}
				for col, s := range sorted {
					cs, ok := got.Sketches[col]
					if !ok {
						t.Fatalf("%d shards: missing sketch for column %q", shards, col)
					}
					if cs.Count() != int64(len(s)) {
						t.Errorf("%d shards: %s count %d, want %d", shards, col, cs.Count(), len(s))
					}
					for _, q := range quantiles {
						v, qerr := cs.Quantile(q)
						if qerr != nil {
							t.Fatalf("%d shards: %s q=%.2f: %v", shards, col, q, qerr)
						}
						lo, hi := rankOf(s, v)
						// The digest value's rank interval must overlap
						// [q - tol, q + tol].
						err := 0.0
						switch {
						case q < lo:
							err = lo - q
						case q > hi:
							err = q - hi
						}
						if err > sketchQuantileRankTolerance {
							t.Errorf("%d shards: %s q=%.2f sketch value %g has rank [%.4f,%.4f], rank error %.4f > %.3f",
								shards, col, q, v, lo, hi, err, sketchQuantileRankTolerance)
						}
						if math.IsNaN(v) {
							t.Errorf("%d shards: %s q=%.2f sketch quantile is NaN", shards, col, q)
						}
					}
				}
			}
		})
	}
}
