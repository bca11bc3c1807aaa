package online

import (
	"context"
	"errors"
	"maps"
	"sync"
	"sync/atomic"
	"testing"

	"fuzzyprophet/internal/core"
	"fuzzyprophet/internal/mc"
	"fuzzyprophet/internal/models"
	"fuzzyprophet/internal/scenario"
	"fuzzyprophet/internal/storage"
	"fuzzyprophet/internal/value"
	"fuzzyprophet/internal/vg"
)

// The ways a render can end without a full frame, injected by fault.
const (
	faultNone = iota
	faultError
	faultPanic
	faultCancel
)

// fault is a switch a test flips to make a model's calls fail from a
// given call on: return an error, panic, or cancel the render's context.
type fault struct {
	mode   atomic.Int32
	left   atomic.Int64
	cancel context.CancelFunc // set before the render it cancels starts
}

// arm makes the after-th call from now, and every later one, fail the
// mode's way.
func (f *fault) arm(mode int32, after int64, cancel context.CancelFunc) {
	f.cancel = cancel
	f.left.Store(after)
	f.mode.Store(mode)
}

func (f *fault) hit() error {
	mode := f.mode.Load()
	if mode == faultNone || f.left.Add(-1) > 0 {
		return nil
	}
	switch mode {
	case faultError:
		return errors.New("injected VG failure")
	case faultPanic:
		panic("injected VG panic")
	case faultCancel:
		f.cancel()
	}
	return nil
}

// faultyCapacity is the capacity series model behind a fault, in each of
// the ways a chain is simulated: whole, as a base, or as an overlay.
type faultyCapacity struct {
	*models.CapacityModel
	f *fault
}

func (c *faultyCapacity) Series(seed uint64, args []value.Value, out []float64) error {
	if err := c.f.hit(); err != nil {
		return err
	}
	return c.CapacityModel.Series(seed, args, out)
}

// Base has no error to return, so an injected error panics.
func (c *faultyCapacity) Base(seed uint64, out []byte) {
	if err := c.f.hit(); err != nil {
		panic(err)
	}
	c.CapacityModel.Base(seed, out)
}

func (c *faultyCapacity) Overlay(seed uint64, args []value.Value, base []byte, out []float64) error {
	if err := c.f.hit(); err != nil {
		return err
	}
	return c.CapacityModel.Overlay(seed, args, base, out)
}

// faultyDemand is the demand model behind a fault.
type faultyDemand struct {
	*models.DemandModel
	f *fault
}

func (d *faultyDemand) Generate(seed uint64, args []value.Value) (value.Value, error) {
	if err := d.f.hit(); err != nil {
		return value.Value{}, err
	}
	return d.DemandModel.Generate(seed, args)
}

// faultScenario compiles figure2 over models that fail when capacity or
// demand is armed.
func faultScenario(t *testing.T) (scn *scenario.Scenario, capacity, demand *fault) {
	t.Helper()
	capacity, demand = &fault{}, &fault{}
	reg := vg.NewRegistry()
	if err := reg.Register(&faultyDemand{models.NewDemandModel(models.DefaultDemandConfig()), demand}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(&faultyCapacity{models.NewCapacityModel(models.DefaultCapacityConfig()), capacity}); err != nil {
		t.Fatal(err)
	}
	scn, err := scenario.Compile(figure2, reg)
	if err != nil {
		t.Fatal(err)
	}
	return scn, capacity, demand
}

// TestHeldStateAfterFailedRender: a render that errors, panics in a VG,
// is cancelled mid-simulation or is cut to a degraded frame drops the
// session's render state, and the session's next render is the frame a
// fresh session renders at the same pins on a twin reuse engine, bit for
// bit, with the same reuse outcomes.
func TestHeldStateAfterFailedRender(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name  string
		mode  int32
		after int64 // the call that fails
		move  string
		val   int64
	}{
		// A purchase1 move re-simulates the capacity chains, whose 100th
		// world fails; a feature move the demand vectors of every point,
		// whose 1500th call falls in the 18th point.
		{"error", faultError, 1500, "feature", 36},
		{"panic", faultPanic, 100, "purchase1", 16},
		{"cancelled", faultCancel, 100, "purchase1", 16},
		{"degraded", faultCancel, 1500, "feature", 36},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// run plays the script on a new engine: a full render, the
			// move, the failing render, then the next render — on the same
			// session, or with fresh set on a new session at its pins.
			run := func(fresh bool) (*Graph, map[mc.ReuseKind]int) {
				scn, capacity, demand := faultScenario(t)
				reuse, err := mc.NewReuse(core.DefaultConfig(), storage.Options{})
				if err != nil {
					t.Fatal(err)
				}
				opts := mc.Options{Worlds: 200, Workers: 1, Reuse: reuse, AllowDegraded: tc.name == "degraded"}
				s, err := NewSession(scn, opts)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.Render(ctx); err != nil {
					t.Fatal(err)
				}
				if s.state == nil {
					t.Fatal("a full render did not check its state in")
				}
				if err := s.SetParam(tc.move, value.Int(tc.val)); err != nil {
					t.Fatal(err)
				}
				f := capacity
				if tc.move == "feature" {
					f = demand
				}
				fctx, cancel := context.WithCancel(ctx)
				defer cancel()
				f.arm(tc.mode, tc.after, cancel)
				g, err := s.Render(fctx)
				f.mode.Store(faultNone)
				var perr *mc.PanicError
				switch {
				case tc.name == "degraded":
					if err != nil || !g.Stats.Degraded || len(g.X) == 0 || len(g.X) == 53 {
						t.Fatalf("render = %v; want a degraded frame of some but not all points", err)
					}
				case err == nil:
					t.Fatal("the faulty render succeeded")
				case tc.mode == faultPanic && !errors.As(err, &perr):
					t.Fatalf("err = %v, want a *mc.PanicError", err)
				case tc.mode == faultCancel && !errors.Is(err, context.Canceled):
					t.Fatalf("err = %v, want context.Canceled", err)
				}
				if s.state != nil {
					t.Fatal("the render that fell short checked its state in")
				}
				next := s
				if fresh {
					if next, err = NewSession(scn, opts); err != nil {
						t.Fatal(err)
					}
					if err := next.SetParams(s.Pins()); err != nil {
						t.Fatal(err)
					}
				}
				before := reuse.Counts()
				g, err = next.Render(ctx)
				if err != nil {
					t.Fatal(err)
				}
				delta := reuse.Counts()
				for k, n := range before {
					delta[k] -= n
				}
				maps.DeleteFunc(delta, func(_ mc.ReuseKind, n int) bool { return n == 0 })
				return g, delta
			}
			got, gotCounts := run(false)
			want, wantCounts := run(true)
			if !sameFrame(got, want) {
				t.Error("the render after the failed one differs from a fresh session's")
			}
			gs, ws := got.Stats, want.Stats
			gs.Elapsed, ws.Elapsed = 0, 0
			if gs != ws || !maps.Equal(gotCounts, wantCounts) {
				t.Errorf("stats %+v, reuse %v; a fresh session's are %+v, %v", gs, gotCounts, ws, wantCounts)
			}
		})
	}
}

// TestSessionKeepsChainsAcrossMoves: a session's renders share one
// evaluator, so with reuse off a feature move, which leaves the capacity
// site's non-axis arguments as they were, simulates none of its 400 chains
// again, while a purchase1 move replays all 400 overlays over the bases the
// first render drew.
func TestSessionKeepsChainsAcrossMoves(t *testing.T) {
	scn, capacity := countingScenario(t)
	s, err := NewSession(scn, mc.Options{Worlds: 400})
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		move            string
		val             int64
		bases, overlays int64
	}{{"", 0, 400, 400}, {"feature", 36, 400, 400}, {"purchase1", 16, 400, 800}} {
		if step.move != "" {
			if err := s.SetParam(step.move, value.Int(step.val)); err != nil {
				t.Fatal(err)
			}
		}
		mustRender(t, s)
		if got, want := capacity.counts(), [3]int64{step.bases, step.overlays, 0}; got != want {
			t.Errorf("after the %q move: [bases overlays series] = %v, want %v", step.move, got, want)
		}
	}
}

// TestConcurrentRenderAndProgressive: Render and RenderProgressive calls
// run at once on one session, so they contend for its one render state:
// each either holds it or builds its own. Every frame is the one renders
// taken one at a time give, with reuse off (every render simulates on its
// state's chains) and on a warm reuse engine.
func TestConcurrentRenderAndProgressive(t *testing.T) {
	reg := vg.NewRegistry()
	if err := models.RegisterDefaults(reg); err != nil {
		t.Fatal(err)
	}
	scn, err := scenario.Compile(figure2, reg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const worlds, start = 128, 32
	for _, tc := range []struct {
		name  string
		reuse bool
	}{{"reuse off", false}, {"reuse on", true}} {
		t.Run(tc.name, func(t *testing.T) {
			opts := mc.Options{Worlds: worlds, Workers: 2}
			if tc.reuse {
				reuse, err := mc.NewReuse(core.DefaultConfig(), storage.Options{})
				if err != nil {
					t.Fatal(err)
				}
				opts.Reuse = reuse
			}
			s, err := NewSession(scn, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.SetParam("purchase1", value.Int(16)); err != nil {
				t.Fatal(err)
			}
			// The frames one at a time: every pass's world count, and a
			// full render.
			want := map[int]*Graph{}
			if _, err := s.RenderProgressive(ctx, start, func(g *Graph, w int) bool {
				want[w] = g
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if !sameFrame(want[worlds], mustRender(t, s)) {
				t.Fatal("a render differs from the progressive render's last pass")
			}
			var wg sync.WaitGroup
			for i := 0; i < 4; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for j := 0; j < 3; j++ {
						if (i+j)%2 == 0 {
							g, err := s.Render(ctx)
							if err != nil {
								t.Error(err)
								return
							}
							if !sameFrame(g, want[worlds]) {
								t.Error("a concurrent render differs from one rendered alone")
							}
							continue
						}
						if _, err := s.RenderProgressive(ctx, start, func(g *Graph, w int) bool {
							if !sameFrame(g, want[w]) {
								t.Errorf("a concurrent %d-world pass differs from one rendered alone", w)
							}
							return true
						}); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			if s.state == nil {
				t.Error("no render state was checked in")
			}
		})
	}
}

func mustRender(t *testing.T, s *Session) *Graph {
	t.Helper()
	g, err := s.Render(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return g
}
