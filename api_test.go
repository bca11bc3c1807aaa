package fuzzyprophet

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestOptimizeCancellation: a cancelled context aborts an offline sweep that
// would otherwise run for a long time, returning context's error within a
// small multiple of one world-batch.
func TestOptimizeCancellation(t *testing.T) {
	sys := demoSystem(t)
	// The full figure2 grid at 400 worlds is far beyond interactive time
	// uncancelled (14×14×3 groups × 53 free points); the deadline is 50ms.
	scn, err := sys.Compile(figure2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = scn.Optimize(ctx, nil, WithWorlds(400))
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("cancelled sweep took %v; cancellation is not prompt", elapsed)
	}
}

// TestRenderCancellationLeavesReuseConsistent: cancelling a render mid-sweep
// returns the context error; the same session then renders to completion and
// its graph matches a never-cancelled session's exactly (partial reuse state
// must not change results).
func TestRenderCancellationLeavesReuseConsistent(t *testing.T) {
	sys := demoSystem(t)
	scn, err := sys.Compile(figure2)
	if err != nil {
		t.Fatal(err)
	}
	session, err := scn.OpenSession(WithWorlds(80))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the render must abort immediately
	if _, err := session.Render(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	g, err := session.Render(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	clean, err := scn.OpenSession(WithWorlds(80))
	if err != nil {
		t.Fatal(err)
	}
	want, err := clean.Render(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for si := range g.Series {
		for pi := range g.Series[si].Y {
			if math.Abs(g.Series[si].Y[pi]-want.Series[si].Y[pi]) > 1e-9 {
				t.Fatalf("series %d point %d: %g != %g after cancelled render",
					si, pi, g.Series[si].Y[pi], want.Series[si].Y[pi])
			}
		}
	}
}

// TestSessionConcurrentSetParamRender hammers SetParam and Render from
// concurrent goroutines; run under -race this verifies the mutex-guarded
// slider state and snapshot-based rendering.
func TestSessionConcurrentSetParamRender(t *testing.T) {
	sys := demoSystem(t)
	scn, err := sys.Compile(figure2)
	if err != nil {
		t.Fatal(err)
	}
	session, err := scn.OpenSession(WithWorlds(20))
	if err != nil {
		t.Fatal(err)
	}
	positions := []int{0, 4, 8, 12, 16}
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for w := 0; w < 2; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				param := "purchase1"
				if w == 1 {
					param = "purchase2"
				}
				if err := session.SetParam(param, positions[i%len(positions)]); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if _, err := session.Render(context.Background()); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	// The session is still coherent afterwards.
	if _, err := session.Render(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestEvaluateBatchAmortizesReuse: a 20-point correlated grid (fixed week,
// varying purchase dates) evaluated through one shared reuse engine serves
// more than half the points by reuse, and spends far fewer VG invocations
// than the same points through independent single Evaluate calls.
func TestEvaluateBatchAmortizesReuse(t *testing.T) {
	sys := demoSystem(t)
	scn, err := sys.Compile(figure2)
	if err != nil {
		t.Fatal(err)
	}
	var points []map[string]any
	for p1 := 0; p1 <= 48 && len(points) < 20; p1 += 8 {
		for _, p2 := range []int{32, 40, 48} {
			if len(points) == 20 {
				break
			}
			points = append(points, map[string]any{
				"current": 26, "purchase1": p1, "purchase2": p2, "feature": 36,
			})
		}
	}
	if len(points) != 20 {
		t.Fatalf("grid has %d points, want 20", len(points))
	}

	sys.ResetVGInvocations()
	res, err := scn.EvaluateBatch(context.Background(), points, WithWorlds(100))
	if err != nil {
		t.Fatal(err)
	}
	batchInv := sys.VGInvocations()

	if len(res.Points) != len(points) {
		t.Fatalf("batch returned %d points, want %d", len(res.Points), len(points))
	}
	reusedPoints := 0
	for _, bp := range res.Points {
		fresh := false
		for _, outcome := range bp.SiteOutcome {
			if outcome == "computed" {
				fresh = true
			}
		}
		if !fresh {
			reusedPoints++
		}
		if bp.Summaries["capacity"].N != 100 {
			t.Fatalf("point %v: capacity N = %d", bp.Point, bp.Summaries["capacity"].N)
		}
	}
	if reusedPoints*2 <= len(points) {
		t.Errorf("only %d/%d points served by reuse; want more than half (counts %v)",
			reusedPoints, len(points), res.ReuseCounts)
	}
	reusedSites := res.ReuseCounts["cached"] + res.ReuseCounts["identity"] + res.ReuseCounts["affine"]
	if reusedSites <= res.ReuseCounts["computed"] {
		t.Errorf("reuse counts %v: reused sites should dominate computed", res.ReuseCounts)
	}

	// The naive loop: each Evaluate gets a fresh reuse engine, so nothing
	// amortizes.
	sys.ResetVGInvocations()
	for _, p := range points {
		if _, err := scn.Evaluate(context.Background(), p, WithWorlds(100)); err != nil {
			t.Fatal(err)
		}
	}
	loopInv := sys.VGInvocations()
	if batchInv*2 > loopInv {
		t.Errorf("batch spent %d VG invocations vs loop %d; batching should at least halve the cost",
			batchInv, loopInv)
	}
}

// TestEvaluateBatchCancellation: a cancelled batch stops promptly.
func TestEvaluateBatchCancellation(t *testing.T) {
	sys := demoSystem(t)
	scn, err := sys.Compile(figure2)
	if err != nil {
		t.Fatal(err)
	}
	var points []map[string]any
	for p1 := 0; p1 <= 48; p1 += 4 {
		points = append(points, map[string]any{
			"current": 26, "purchase1": p1, "purchase2": 48, "feature": 36,
		})
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := scn.EvaluateBatch(ctx, points, WithWorlds(2000)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestCompileErrorCarriesPosition(t *testing.T) {
	sys := demoSystem(t)
	_, err := sys.Compile("DECLARE PARAMETER @p AS RANGE 0 TO 5 STEP BY 1;\nSELECT Gaussian(@p, ;")
	if err == nil {
		t.Fatal("malformed script should not compile")
	}
	var ce *CompileError
	if !errors.As(err, &ce) {
		t.Fatalf("err %T is not a *CompileError", err)
	}
	if ce.Line != 2 {
		t.Errorf("Line = %d, want 2 (err: %v)", ce.Line, err)
	}
	if ce.Col == 0 {
		t.Errorf("Col = 0, want a position (err: %v)", err)
	}

	// Validation failures (no single source position) still yield a
	// *CompileError, with zero position.
	_, err = sys.Compile("SELECT Gaussian(@undeclared, 1) AS g;")
	if err == nil {
		t.Fatal("undeclared parameter should not compile")
	}
	if !errors.As(err, &ce) {
		t.Fatalf("err %T is not a *CompileError", err)
	}
	if ce.Line != 0 {
		t.Errorf("validation error Line = %d, want 0", ce.Line)
	}
}

func TestUnknownParamError(t *testing.T) {
	sys := demoSystem(t)
	scn, err := sys.Compile(figure2)
	if err != nil {
		t.Fatal(err)
	}
	var upe *UnknownParamError
	_, err = scn.Evaluate(context.Background(), map[string]any{"nope": 1}, WithWorlds(10))
	if !errors.As(err, &upe) || upe.Name != "nope" {
		t.Errorf("Evaluate err = %v, want *UnknownParamError{nope}", err)
	}
	session, err := scn.OpenSession(WithWorlds(10))
	if err != nil {
		t.Fatal(err)
	}
	if err := session.SetParam("bogus", 1); !errors.As(err, &upe) || upe.Name != "bogus" {
		t.Errorf("SetParam err = %v, want *UnknownParamError{bogus}", err)
	}
	if _, err := scn.GeneratedSQL(map[string]any{"ghost": 3}); !errors.As(err, &upe) || upe.Name != "ghost" {
		t.Errorf("GeneratedSQL err = %v, want *UnknownParamError{ghost}", err)
	}
}

func TestDeterminismError(t *testing.T) {
	sys, err := New()
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	err = sys.RegisterVG("Flaky", 0, func(seed uint64, args []float64) (float64, error) {
		calls++
		return float64(calls), nil // ignores the seed: nondeterministic
	})
	if err != nil {
		t.Fatal(err)
	}
	var de *DeterminismError
	if err := sys.CheckDeterminism("Flaky", 1, nil); !errors.As(err, &de) || de.Func != "Flaky" {
		t.Errorf("err = %v, want *DeterminismError{Flaky}", err)
	}
}

// TestAsciiCarriesCIAndSecondAxis: the chart round-trip keeps the CI band
// and the y2 placement (it used to drop both).
func TestAsciiCarriesCIAndSecondAxis(t *testing.T) {
	sys := demoSystem(t)
	scn, err := sys.Compile(figure2)
	if err != nil {
		t.Fatal(err)
	}
	session, err := scn.OpenSession(WithWorlds(60))
	if err != nil {
		t.Fatal(err)
	}
	g, err := session.Render(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	anyCI := false
	for _, srs := range g.Series {
		for _, ci := range srs.CI95 {
			if ci > 0 {
				anyCI = true
			}
		}
	}
	if !anyCI {
		t.Fatal("render produced no CI95 values; the chart test is vacuous")
	}
	chart, err := session.Ascii(g, 14)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(chart, ":") {
		t.Errorf("chart has no CI band shading:\n%s", chart)
	}
	if !strings.Contains(chart, "(y2)") {
		t.Errorf("chart lost the second-axis placement:\n%s", chart)
	}
}
