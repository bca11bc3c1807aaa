package online

import (
	"context"
	"testing"

	"fuzzyprophet/internal/benchfix"
	"fuzzyprophet/internal/core"
	"fuzzyprophet/internal/mc"
	"fuzzyprophet/internal/obs"
	"fuzzyprophet/internal/scenario"
	"fuzzyprophet/internal/sqlparser"
	"fuzzyprophet/internal/storage"
)

// TestColdRenderAllocs pins what a first render with nothing to reuse
// allocates: a fresh 32-world session on a private seed base and its own
// reuse engine, over capacityplanning's 53 weeks. Its simulations — 16
// probe worlds and 16 remaining worlds per site and point — are under one
// world batch per goroutine, so they run on the calling goroutine. Such a
// render allocates 2274 times; fanning each simulation out across two
// goroutines cost 3973. The bound is the inline count plus 5 %.
func TestColdRenderAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	reg, err := benchfix.Registry()
	if err != nil {
		t.Fatal(err)
	}
	scn, err := scenario.Compile(sqlparser.ExampleScenarios()["capacityplanning"], reg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	seed := uint64(1)
	render := func() {
		seed += 2
		reuse, err := mc.NewReuse(core.DefaultConfig(), storage.Options{})
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSession(scn, mc.Options{Worlds: 32, Workers: 2, SeedBase: seed, Reuse: reuse})
		if err != nil {
			t.Fatal(err)
		}
		g, err := s.Render(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(g.X) != 53 {
			t.Fatalf("rendered %d points, want 53", len(g.X))
		}
	}
	const inlineAllocs = 2274
	if allocs := testing.AllocsPerRun(20, render); allocs > 1.05*inlineAllocs {
		t.Fatalf("a cold 32-world render allocates %v times, want <= %v", allocs, 1.05*inlineAllocs)
	}
}

// TestRevisitRenderAllocs pins what a render the point memo answers in
// full allocates: the fourth render of a 400-world capacityplanning session
// on its reuse engine, where every one of the 53 points is a memo hit. When
// each hit evaluated its site arguments, built its key string and
// allocated its own result and outcome map, such a render allocated 886
// times; answering the batch's hits in one pass took that to 276, and
// keeping the session's evaluator and sweep buffers from render to render
// (one Point map per swept point and one evaluator per render before), with
// the frame's values carved from one slab, to 117: the frame itself, the
// batch's result slabs and outcome map, and one moments-only Sketches map
// per point. The bound is that count plus 5 %. It holds as well over a
// spill tier whose RAM budget is a seventh of the bases, since a memo hit
// reads generations, not payloads: when each hit promoted its bases, that
// render allocated 595 times. A render that records its spans, as every
// fpserver render does, allocates 125 times: the memo hits' point and
// simulate spans come from the trace's span chunks.
func TestRevisitRenderAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	reg, err := benchfix.Registry()
	if err != nil {
		t.Fatal(err)
	}
	scn, err := scenario.Compile(sqlparser.ExampleScenarios()["capacityplanning"], reg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// session returns a session on a new reuse engine over a store opened
	// with opts, after three renders: the first computes the sites, the
	// next two find them cached and memoise every point.
	session := func(opts storage.Options) *Session {
		reuse, err := mc.NewReuse(core.DefaultConfig(), opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { reuse.Close() })
		s, err := NewSession(scn, mc.Options{Worlds: 400, Workers: 2, Reuse: reuse})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := s.Render(ctx); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	ram := session(storage.Options{})
	bases := ram.opts.Reuse.StoreStats().UsedBytes
	const revisitAllocs, tracedAllocs = 117, 125
	for _, tc := range []struct {
		name   string
		s      *Session
		traced bool
		want   float64
	}{
		{"RAM only", ram, false, revisitAllocs},
		{"spill tier", session(storage.Options{BudgetBytes: bases / 7, SpillDir: t.TempDir()}), false, revisitAllocs},
		{"traced", ram, true, tracedAllocs},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if st := tc.s.opts.Reuse.StoreStats(); st.Budget > 0 && st.SpillEntries == 0 {
				t.Fatalf("nothing was spilled: %+v", st)
			}
			render := func() {
				rctx := ctx
				if tc.traced {
					rctx = obs.With(ctx, obs.New("render", "").Root())
				}
				g, err := tc.s.Render(rctx)
				if err != nil {
					t.Fatal(err)
				}
				if len(g.X) != 53 || g.Stats.Unchanged != 53 {
					t.Fatalf("rendered %d points, %d unchanged; want 53 and 53", len(g.X), g.Stats.Unchanged)
				}
			}
			if allocs := testing.AllocsPerRun(20, render); allocs > 1.05*tc.want {
				t.Fatalf("a memo-hit render allocates %v times, want <= %v", allocs, 1.05*tc.want)
			}
		})
	}
}
