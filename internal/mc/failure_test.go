package mc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"fuzzyprophet/internal/core"
	"fuzzyprophet/internal/guide"
	"fuzzyprophet/internal/rng"
	"fuzzyprophet/internal/scenario"
	"fuzzyprophet/internal/storage"
	"fuzzyprophet/internal/value"
	"fuzzyprophet/internal/vg"
)

// Failure injection: the executor must surface model failures cleanly,
// stay usable afterwards, and behave correctly when the basis store is
// under memory pressure.

// flakyVG fails every invocation once failAfter invocations have happened,
// and, when failSeed is nonzero, every invocation with that world seed.
type flakyVG struct {
	calls     atomic.Int64
	failAfter int64
	failSeed  uint64
}

func (f *flakyVG) Name() string { return "Flaky" }
func (f *flakyVG) Arity() int   { return 1 }
func (f *flakyVG) Generate(seed uint64, args []value.Value) (value.Value, error) {
	n := f.calls.Add(1)
	if (f.failAfter >= 0 && n > f.failAfter) || (f.failSeed != 0 && seed == f.failSeed) {
		return value.Null, errors.New("flaky model exploded")
	}
	return value.Float(rng.New(seed).Normal(0, 1)), nil
}

func flakyScenario(t *testing.T, failAfter int64) (*scenario.Scenario, *flakyVG) {
	t.Helper()
	reg := vg.NewRegistry()
	f := &flakyVG{failAfter: failAfter}
	if err := reg.Register(f); err != nil {
		t.Fatal(err)
	}
	scn, err := scenario.Compile(`
DECLARE PARAMETER @p AS RANGE 0 TO 10 STEP BY 1;
SELECT Flaky(@p) AS x;`, reg)
	if err != nil {
		t.Fatal(err)
	}
	return scn, f
}

func TestMidRunFailureSurfaces(t *testing.T) {
	scn, _ := flakyScenario(t, 30) // fails during the first point's worlds
	ev := NewEvaluator(scn, Options{Worlds: 100, Workers: 1})
	_, err := ev.evaluatePoint(context.Background(), guide.Point{"p": value.Int(0)})
	if err == nil {
		t.Fatal("mid-run VG failure must surface")
	}
	if !strings.Contains(err.Error(), "flaky model exploded") {
		t.Errorf("error lost cause: %v", err)
	}
	if !strings.Contains(err.Error(), "world") {
		t.Errorf("error lacks world context: %v", err)
	}
}

// TestMidRunFailureSurfacesInParallel: world 200 fails, in the fourth of
// four 64-world chunks, so the error comes back from a goroutine other
// than the first.
func TestMidRunFailureSurfacesInParallel(t *testing.T) {
	const worlds, workers, failing = 256, 4, 200
	if simWorkers(worlds, workers) != workers {
		t.Fatal("the evaluation would not fan out")
	}
	scn, f := flakyScenario(t, -1)
	f.failSeed = worldSeed(worldSeeds(DefaultSeedBase, scn.Sites[0].ID), failing)
	ev := NewEvaluator(scn, Options{Worlds: worlds, Workers: workers})
	_, err := ev.evaluatePoint(context.Background(), guide.Point{"p": value.Int(0)})
	if err == nil {
		t.Fatal("parallel mid-run VG failure must surface")
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("world %d", failing)) {
		t.Errorf("error does not name world %d: %v", failing, err)
	}
}

func TestFailureDuringFingerprintProbes(t *testing.T) {
	scn, _ := flakyScenario(t, 10) // fails during the probe prefix
	reuse, err := NewReuse(core.DefaultConfig(), storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(scn, Options{Worlds: 100, Workers: 1, Reuse: reuse})
	_, err = ev.evaluatePoint(context.Background(), guide.Point{"p": value.Int(0)})
	if err == nil {
		t.Fatal("probe failure must surface")
	}
	if !strings.Contains(err.Error(), "fingerprinting") && !strings.Contains(err.Error(), "world") {
		t.Errorf("error lacks context: %v", err)
	}
}

func TestRecoveryAfterFailure(t *testing.T) {
	scn, f := flakyScenario(t, 30)
	ev := NewEvaluator(scn, Options{Worlds: 20, Workers: 1})
	if _, err := ev.evaluatePoint(context.Background(), guide.Point{"p": value.Int(0)}); err != nil {
		t.Fatalf("first 20 worlds should succeed: %v", err)
	}
	if _, err := ev.evaluatePoint(context.Background(), guide.Point{"p": value.Int(1)}); err == nil {
		t.Fatal("second point should hit the failure")
	}
	// "Fix the model": the evaluator keeps working.
	f.failAfter = -1
	f.calls.Store(0)
	if _, err := ev.evaluatePoint(context.Background(), guide.Point{"p": value.Int(1)}); err != nil {
		t.Fatalf("evaluator should recover once the model is fixed: %v", err)
	}
}

// nanVG produces NaN for a specific parameter value.
type nanVG struct{}

func (nanVG) Name() string { return "Nanny" }
func (nanVG) Arity() int   { return 1 }
func (nanVG) Generate(seed uint64, args []value.Value) (value.Value, error) {
	p, _ := args[0].AsInt()
	if p == 3 {
		return value.Float(math.NaN()), nil
	}
	return value.Float(1), nil
}

func TestNaNOutputRejectedByFingerprintPath(t *testing.T) {
	reg := vg.NewRegistry()
	if err := reg.Register(nanVG{}); err != nil {
		t.Fatal(err)
	}
	scn, err := scenario.Compile(`
DECLARE PARAMETER @p AS RANGE 0 TO 10 STEP BY 1;
SELECT Nanny(@p) AS x;`, reg)
	if err != nil {
		t.Fatal(err)
	}
	reuse, err := NewReuse(core.DefaultConfig(), storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(scn, Options{Worlds: 50, Reuse: reuse})
	if _, err := ev.evaluatePoint(context.Background(), guide.Point{"p": value.Int(0)}); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.evaluatePoint(context.Background(), guide.Point{"p": value.Int(3)}); err == nil {
		t.Fatal("NaN output must be rejected before it poisons the index")
	}
	// The index stays clean: other points still work.
	if _, err := ev.evaluatePoint(context.Background(), guide.Point{"p": value.Int(4)}); err != nil {
		t.Fatal(err)
	}
}

// TestStoreEvictionForcesRecompute: with a tiny basis-store budget, bases
// are evicted and reuse degrades to recomputation — results must stay
// correct throughout.
func TestStoreEvictionForcesRecompute(t *testing.T) {
	reg := vg.NewRegistry()
	if err := vg.RegisterBuiltins(reg); err != nil {
		t.Fatal(err)
	}
	scn, err := scenario.Compile(`
DECLARE PARAMETER @p AS RANGE 0 TO 20 STEP BY 1;
SELECT Gaussian(@p, 1) AS x;`, reg)
	if err != nil {
		t.Fatal(err)
	}
	// Budget for roughly two 100-world vectors.
	reuse, err := NewReuse(core.DefaultConfig(), storage.Options{BudgetBytes: 2 * (100*8 + 80)})
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(scn, Options{Worlds: 100, Reuse: reuse})
	direct := NewEvaluator(scn, Options{Worlds: 100})

	// Sweep forward and backward so early points are long evicted.
	order := []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 0, 1, 2}
	for _, p := range order {
		got, err := ev.evaluatePoint(context.Background(), guide.Point{"p": value.Int(p)})
		if err != nil {
			t.Fatal(err)
		}
		want, err := direct.evaluatePoint(context.Background(), guide.Point{"p": value.Int(p)})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Columns["x"] {
			a, b := got.Columns["x"][i], want.Columns["x"][i]
			// Affine-remapped worlds may differ by floating-point rounding
			// of the fitted map; anything beyond that is corruption.
			if math.Abs(a-b) > 1e-9*(1+math.Abs(b)) {
				t.Fatalf("p=%d world %d: eviction corrupted results (%g vs %g)", p, i, a, b)
			}
		}
	}
	if reuse.StoreStats().Evicted == 0 {
		t.Error("test should actually trigger evictions")
	}
}

// TestSmallerWorldCountReusesLargerRun: a cached basis longer than the
// requested world count serves a prefix; a shorter one forces recompute.
func TestWorldCountInteractionWithCache(t *testing.T) {
	reg := vg.NewRegistry()
	if err := vg.RegisterBuiltins(reg); err != nil {
		t.Fatal(err)
	}
	scn, err := scenario.Compile(`
DECLARE PARAMETER @p AS RANGE 0 TO 5 STEP BY 1;
SELECT Gaussian(@p, 1) AS x;`, reg)
	if err != nil {
		t.Fatal(err)
	}
	reuse, err := NewReuse(core.DefaultConfig(), storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	big := NewEvaluator(scn, Options{Worlds: 200, Reuse: reuse})
	small := NewEvaluator(scn, Options{Worlds: 50, Reuse: reuse})
	pt := guide.Point{"p": value.Int(2)}
	if _, err := big.evaluatePoint(context.Background(), pt); err != nil {
		t.Fatal(err)
	}
	res, err := small.evaluatePoint(context.Background(), pt)
	if err != nil {
		t.Fatal(err)
	}
	if res.SiteOutcome["Gaussian#0"] != CachedExact {
		t.Errorf("prefix of a longer run should be a cache hit, got %v", res.SiteOutcome)
	}
	// The other direction recomputes (no silent truncation).
	pt2 := guide.Point{"p": value.Int(3)}
	if _, err := small.evaluatePoint(context.Background(), pt2); err != nil {
		t.Fatal(err)
	}
	res, err = big.evaluatePoint(context.Background(), pt2)
	if err != nil {
		t.Fatal(err)
	}
	if res.SiteOutcome["Gaussian#0"] == CachedExact {
		t.Error("a shorter cached run must not serve a longer request")
	}
	if len(res.Columns["x"]) != 200 {
		t.Errorf("world count = %d", len(res.Columns["x"]))
	}
}
