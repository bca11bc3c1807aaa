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
	"fuzzyprophet/internal/value"
)

// TestRevisitPromotionsFollowMemoWarmUp pins where a revisit over a spill
// tier promotes bases: only on the points the point memo does not answer
// yet, and the memo answers a point from its third all-exact render on (it
// records a point the second time it misses with every site an exact store
// hit). The session is slider_revisit's: capacityplanning at 400 worlds over
// a 256 KiB RAM budget, whose 21 combinations (7 purchase1 × 3 feature,
// purchase2 24) are each rendered once, then revisited in three passes. A
// combination whose first render computed or mapped a site (the first of
// each purchase1, and the first with each feature) reaches its second
// all-exact miss in the first pass, so the memo answers it from the third
// pass on; one whose first render was already all exact, from the second.
// Every point not answered reads both its bases back from the spill tier,
// so in total the three passes promote 2,226, 954 and 0 times and the memo
// answers 0, 636 and 1,113 of the 1,113 points.
func TestRevisitPromotionsFollowMemoWarmUp(t *testing.T) {
	if testing.Short() {
		t.Skip("renders 84 frames at 400 worlds")
	}
	reg, err := benchfix.Registry()
	if err != nil {
		t.Fatal(err)
	}
	scn, err := scenario.Compile(sqlparser.ExampleScenarios()["capacityplanning"], reg)
	if err != nil {
		t.Fatal(err)
	}
	reuse, err := mc.NewReuse(core.DefaultConfig(), storage.Options{BudgetBytes: 256 << 10, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer reuse.Close()
	s, err := NewSession(scn, mc.Options{Worlds: 400, Workers: 2, Reuse: reuse})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	type combo struct{ purchase1, feature int64 }
	var combos []combo
	for p1 := int64(0); p1 <= 48; p1 += 8 {
		for _, f := range []int64{12, 36, 44} {
			combos = append(combos, combo{p1, f})
		}
	}
	sites := len(scn.Sites)
	// render moves to c and renders it, returning the frame, the points the
	// memo answered and the store's promotions during the render.
	render := func(c combo) (*Graph, int, int64) {
		t.Helper()
		if err := s.SetParams(map[string]value.Value{
			"purchase1": value.Int(c.purchase1), "purchase2": value.Int(24), "feature": value.Int(c.feature),
		}); err != nil {
			t.Fatal(err)
		}
		before := reuse.StoreStats().Promoted
		tr := obs.New("render", "")
		g, err := s.Render(obs.With(ctx, tr.Root()))
		if err != nil {
			t.Fatal(err)
		}
		tr.End()
		answered := 0
		tr.Tree().Visit(func(_ int, n *obs.Node) {
			if n.Name == "point" && n.Attrs["memo_hit"] == int64(1) {
				answered++
			}
		})
		return g, answered, reuse.StoreStats().Promoted - before
	}
	exactFirst := make([]bool, len(combos))
	for i, c := range combos {
		g, _, _ := render(c)
		exactFirst[i] = g.Stats.Unchanged == len(g.X)
	}
	var answeredTotal [3]int
	var promotedTotal [3]int64
	for pass := range 3 {
		for i, c := range combos {
			g, answered, promoted := render(c)
			want := 0
			if pass == 2 || pass == 1 && exactFirst[i] {
				want = len(g.X)
			}
			wantPromoted := int64((len(g.X) - want) * sites)
			if answered != want || promoted != wantPromoted {
				t.Errorf("pass %d, %+v (first render all exact: %v): memo answered %d points, %d promotions; want %d and %d",
					pass+1, c, exactFirst[i], answered, promoted, want, wantPromoted)
			}
			answeredTotal[pass] += answered
			promotedTotal[pass] += promoted
		}
	}
	if answeredTotal != [3]int{0, 636, 1113} || promotedTotal != [3]int64{2226, 954, 0} {
		t.Errorf("per pass: memo answered %v points, %v promotions; want [0 636 1113] and [2226 954 0]", answeredTotal, promotedTotal)
	}
}
