package online

import (
	"context"
	"testing"

	"fuzzyprophet/internal/benchfix"
	"fuzzyprophet/internal/core"
	"fuzzyprophet/internal/mc"
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
// times; answering the batch's hits in one pass allocates 277. The bound is
// that count plus 5 %.
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
	reuse, err := mc.NewReuse(core.DefaultConfig(), storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(scn, mc.Options{Worlds: 400, Workers: 2, Reuse: reuse})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// The first render computes the sites, the next two find them cached
	// and memoise every point.
	for i := 0; i < 3; i++ {
		if _, err := s.Render(ctx); err != nil {
			t.Fatal(err)
		}
	}
	render := func() {
		g, err := s.Render(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(g.X) != 53 || g.Stats.Unchanged != 53 {
			t.Fatalf("rendered %d points, %d unchanged; want 53 and 53", len(g.X), g.Stats.Unchanged)
		}
	}
	const revisitAllocs = 277
	if allocs := testing.AllocsPerRun(20, render); allocs > 1.05*revisitAllocs {
		t.Fatalf("a memo-hit render allocates %v times, want <= %v", allocs, 1.05*revisitAllocs)
	}
}
