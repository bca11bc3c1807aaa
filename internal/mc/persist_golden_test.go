package mc

import (
	"context"
	"math"
	"testing"

	"fuzzyprophet/internal/core"
	"fuzzyprophet/internal/storage"
)

// TestGoldenSnapshotLoads: testdata/quickstart-v2.snap was written by
// SaveSnapshot before core.Config lost its fingerprint SeedBase field
// (quickstart, 32 worlds, the first four points of the exhaustive sweep).
// gob ignores the missing field, so the snapshot still loads, and every
// point it serves carries the same moments, bit for bit, as a fresh
// evaluator's.
func TestGoldenSnapshotLoads(t *testing.T) {
	scn := compileExample(t, "quickstart")
	pts := scn.Space.Points()[:4]
	loaded, err := LoadSnapshot("testdata/quickstart-v2.snap", storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewReuse(core.DefaultConfig(), storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	warm := NewEvaluator(scn, Options{Worlds: 32, Reuse: loaded})
	cold := NewEvaluator(scn, Options{Worlds: 32, Reuse: fresh})
	for _, pt := range pts {
		got, err := warm.evaluatePoint(context.Background(), pt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := cold.evaluatePoint(context.Background(), pt)
		if err != nil {
			t.Fatal(err)
		}
		for site, k := range got.SiteOutcome {
			if k == Computed {
				t.Errorf("%v: site %s simulated afresh, not served from the snapshot", pt, site)
			}
		}
		if len(got.Sketches) == 0 || len(got.Sketches) != len(want.Sketches) {
			t.Fatalf("%v: %d columns from the snapshot, %d fresh", pt, len(got.Sketches), len(want.Sketches))
		}
		for col, w := range want.Sketches {
			g, ok := got.Sketches[col]
			if !ok {
				t.Fatalf("%v: column %s missing from the snapshot's render", pt, col)
			}
			gn, gmean, gm2, gmin, gmax := g.Moments.State()
			wn, wmean, wm2, wmin, wmax := w.Moments.State()
			gb := [4]uint64{math.Float64bits(gmean), math.Float64bits(gm2), math.Float64bits(gmin), math.Float64bits(gmax)}
			wb := [4]uint64{math.Float64bits(wmean), math.Float64bits(wm2), math.Float64bits(wmin), math.Float64bits(wmax)}
			if gn != wn || gb != wb {
				t.Errorf("%v %s: snapshot (%d, %v, %v, %v, %v), fresh (%d, %v, %v, %v, %v)",
					pt, col, gn, gmean, gm2, gmin, gmax, wn, wmean, wm2, wmin, wmax)
			}
		}
	}
}
