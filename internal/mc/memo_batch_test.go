package mc

import (
	"container/list"
	"context"
	"maps"
	"testing"
	"unsafe"

	"fuzzyprophet/internal/core"
	"fuzzyprophet/internal/guide"
	"fuzzyprophet/internal/obs"
	"fuzzyprophet/internal/stats"
	"fuzzyprophet/internal/storage"
)

// TestPointMemoBatch: a batch answers its memoised points in one pass with
// what evaluating the same points one by one gives: the same frames, bit
// for bit and equal to a fresh evaluator's, and the same points served by
// the memo. Its deltas in the reuse counts and the store's hits and
// promotions are those of one by one, and those of a third engine on which
// the sites of the points the memo must not serve are looked up one at a
// time: every site cached, once per point, and the store read only for
// those points. A memo hit reads no basis, so over a spill tier it
// promotes none. When a basis the batch's points share was evicted, one by
// one is the reference: the first point recomputes it and the others hit
// it. Each case runs untraced and traced, since a traced point notes the
// spill work of its own lookups.
func TestPointMemoBatch(t *testing.T) {
	const worlds = 64
	ctx := context.Background()
	scn := compileExample(t, "capacityplanning")
	sweep, err := scn.Space.Sweep("current", scn.DefaultPoint())
	if err != nil {
		t.Fatal(err)
	}
	sweep = sweep[:12]
	// Two points' bases fit in this RAM budget, three do not.
	const budget = 3000
	// Along @purchase1 every point shares its DemandModel(@current,
	// @feature) basis. The seven points' bases fit in evictBudget with room
	// to spare.
	shared, err := scn.Space.Sweep("purchase1", scn.DefaultPoint())
	if err != nil {
		t.Fatal(err)
	}
	const evictBudget = 8000
	replace := func(t *testing.T, reuse *Reuse) {
		if _, err := memoEvaluator(t, scn, 2*worlds, reuse).evaluatePoint(ctx, sweep[3]); err != nil {
			t.Fatal(err)
		}
	}

	for _, tc := range []struct {
		name  string
		spill bool
		// evicted runs the batch along shared, on a RAM-only store of
		// budget evictBudget, after the event evicted the shared basis.
		evicted bool
		batch   []int // indices into sweep, or into shared when evicted
		// event acts on a warmed engine before the batch.
		event func(t *testing.T, reuse *Reuse)
		// seedBase, when non-zero, is the batch's seed base.
		seedBase uint64
		// recompute lists the batch positions the memo must not serve.
		recompute []int
	}{
		{name: "whole sweep", batch: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}},
		{name: "one basis replaced", batch: []int{0, 1, 2, 3, 4, 5}, recompute: []int{3}, event: replace},
		{name: "spilled and promoted", spill: true, batch: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}},
		{name: "spilled, one basis replaced", spill: true, batch: []int{0, 1, 2, 3, 4, 5}, recompute: []int{3}, event: replace},
		{name: "shared basis evicted", evicted: true, batch: []int{0, 1, 2, 3, 4, 5, 6},
			recompute: []int{0, 1, 2, 3, 4, 5, 6}, event: func(t *testing.T, reuse *Reuse) {
				evictShared(t, memoEvaluator(t, scn, worlds, reuse), shared, evictBudget)
			}},
		{name: "duplicates", batch: []int{2, 5, 2, 2, 7, 5}},
		{name: "one point", batch: []int{4}},
		{name: "empty", batch: nil},
		{name: "seed base mismatch", batch: []int{0, 1, 2}, seedBase: 7},
	} {
		for _, traced := range []bool{false, true} {
			name := tc.name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				from := sweep
				if tc.evicted {
					from = shared
				}
				pts := make([]guide.Point, len(tc.batch))
				for i, p := range tc.batch {
					pts[i] = from[p]
				}
				// Three engines brought to the same state: every point of
				// the sweep memoised, then the case's event.
				var evs [3]*Evaluator
				for i := range evs {
					opts := storage.Options{}
					if tc.spill {
						opts = storage.Options{BudgetBytes: budget, SpillDir: t.TempDir()}
					} else if tc.evicted {
						opts = storage.Options{BudgetBytes: evictBudget}
					}
					reuse, err := NewReuse(core.DefaultConfig(), opts)
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { reuse.Close() })
					warm := memoEvaluator(t, scn, worlds, reuse)
					for visit := 0; visit < 3; visit++ {
						if _, err := warm.EvaluatePoints(ctx, from); err != nil {
							t.Fatal(err)
						}
					}
					if tc.event != nil {
						tc.event(t, reuse)
					}
					evs[i] = NewEvaluator(scn, Options{Worlds: worlds, SeedBase: tc.seedBase, Reuse: reuse})
					evs[i].Reads(scn.OutputCols...)
				}
				batch, seq, lookups := evs[0], evs[1], evs[2]
				bBefore, sBefore, lBefore := reuseState(batch.opts.Reuse), reuseState(seq.opts.Reuse), reuseState(lookups.opts.Reuse)

				bctx, tr := ctx, obs.New("render", obs.NewID())
				if traced {
					bctx = obs.With(ctx, tr.Root())
				}
				got, berr := batch.EvaluatePoints(bctx, pts)
				tr.End()
				var one []*PointResult
				var serr error
				for _, pt := range pts {
					var res *PointResult
					if res, serr = seq.evaluatePoint(ctx, pt); serr != nil {
						break
					}
					one = append(one, res)
				}

				if tc.seedBase != 0 {
					if berr == nil || serr == nil || len(got) != 0 {
						t.Fatalf("a batch under another seed base: %d results, error %v (one by one: %v); want an error", len(got), berr, serr)
					}
				} else if berr != nil || serr != nil {
					t.Fatalf("batch error %v, one by one %v", berr, serr)
				}
				if len(got) != len(one) {
					t.Fatalf("%d results, one by one %d", len(got), len(one))
				}
				recompute := map[int]bool{}
				for _, i := range tc.recompute {
					recompute[i] = true
				}
				// A memo hit counts every site as cached and reads no basis;
				// the sites of a point the memo must not serve are looked up
				// one at a time, each one that hits counting as cached.
				want := reuseCounters{counts: map[ReuseKind]int{}}
				looked := 0
				if berr == nil && !tc.evicted {
					for i, pt := range pts {
						for _, k := range pointKeys(t, lookups, pt) {
							if !recompute[i] {
								want.counts[CachedExact]++
								continue
							}
							looked++
							if _, _, ok := lookups.opts.Reuse.store.Lookup(k.Site, k.Key); ok {
								want.counts[CachedExact]++
							}
						}
					}
				}
				ld := reuseState(lookups.opts.Reuse).minus(lBefore)
				want.hits, want.promoted = ld.hits, ld.promoted
				if tc.evicted {
					// Only the first point recomputes the shared basis.
					want = reuseState(seq.opts.Reuse).minus(sBefore)
					if n := len(pts)*len(scn.Sites) - want.counts[CachedExact]; n != 1 {
						t.Fatalf("one by one obtained %d site vectors other than from the store (counts %v), want 1", n, want.counts)
					}
				} else if berr == nil && want.hits != int64(looked) {
					t.Fatalf("%d of the %d site lookups of the points the memo must not serve hit, want all", want.hits, looked)
				}
				if bd, sd := reuseState(batch.opts.Reuse).minus(bBefore), reuseState(seq.opts.Reuse).minus(sBefore); !bd.equal(want) || !sd.equal(want) {
					t.Fatalf("batch deltas %+v, one by one %+v, want %+v", bd, sd, want)
				} else if tc.spill {
					// The memo-served points' bases stayed in the spill tier.
					var served []storage.KeyRef
					for i, pt := range pts {
						if !recompute[i] {
							served = append(served, pointKeys(t, batch, pt)...)
						}
					}
					if promotions(t, batch.opts.Reuse, served) == 0 {
						t.Fatal("none of the memo-served points' bases was in the spill tier alone")
					}
				}
				if len(got) == 0 {
					return
				}

				fresh, err := memoEvaluator(t, scn, worlds, nil).EvaluatePoints(ctx, pts)
				if err != nil {
					t.Fatal(err)
				}
				var spans []*obs.Node
				tr.Tree().Visit(func(_ int, n *obs.Node) {
					if n.Name == "point" {
						spans = append(spans, n)
					}
				})
				if traced && len(spans) != len(pts) {
					t.Fatalf("%d point spans for %d points", len(spans), len(pts))
				}
				if traced && tc.spill {
					// Every promotion, made by the points the memo does not
					// serve, is noted under the point it served.
					var noted int64
					tr.Tree().Visit(func(_ int, n *obs.Node) {
						if n.Name == "spill-promote" {
							noted += n.Attrs["count"].(int64)
						}
					})
					if noted != want.promoted {
						t.Fatalf("spill-promote spans count %d promotions, want %d", noted, want.promoted)
					}
				}
				for i := range pts {
					// A memo answer carries no sample vectors.
					hit := got[i].Columns == nil
					if hit != (one[i].Columns == nil) || hit == recompute[i] {
						t.Fatalf("point %d: memo hit = %v, one by one %v, want %v", i, hit, one[i].Columns == nil, !recompute[i])
					}
					sameAggregates(t, "batch vs one by one", one[i], got[i])
					sameAggregates(t, "batch vs fresh", fresh[i], got[i])
					if !maps.Equal(got[i].SiteOutcome, one[i].SiteOutcome) {
						t.Fatalf("point %d: outcomes %v, one by one %v", i, got[i].SiteOutcome, one[i].SiteOutcome)
					}
					if !traced {
						continue
					}
					if spanHit := spans[i].Attrs["memo_hit"] == int64(1); spanHit != hit {
						t.Fatalf("point %d: span memo_hit = %v, want %v", i, spanHit, hit)
					}
					if hit {
						sim := spans[i].Children
						if len(sim) != 1 || sim[0].Name != "simulate" || sim[0].Attrs["sites_cached"] != int64(len(scn.Sites)) {
							t.Fatalf("point %d: a memo hit's children %+v, want one simulate span with every site cached", i, sim)
						}
					}
				}
			})
		}
	}
}

// evictShared leaves pts memoised on ev's engine, a RAM-only store of the
// given budget, with every basis in RAM but the one the points share: it
// looks every other basis up, so that the shared one is least recently
// used, stores a filler just large enough to evict it alone, then shrinks
// the filler so that the shared basis fits again once recomputed.
func evictShared(t *testing.T, ev *Evaluator, pts []guide.Point, budget int64) {
	t.Helper()
	r := ev.opts.Reuse
	if n := r.memo.order.Len(); n != len(pts) {
		t.Fatalf("%d memo entries, want one per point (%d)", n, len(pts))
	}
	first, second := pointKeys(t, ev, pts[0]), pointKeys(t, ev, pts[1])
	var gone storage.KeyRef
	for si := range first {
		if first[si] == second[si] {
			gone = first[si]
		}
	}
	var keep []storage.KeyRef
	for _, pt := range pts {
		for _, k := range pointKeys(t, ev, pt) {
			if k != gone {
				keep = append(keep, k)
				if _, _, ok := r.store.Lookup(k.Site, k.Key); !ok {
					t.Fatalf("basis %v is not stored", k)
				}
			}
		}
	}
	free := budget - r.store.Stats().UsedBytes
	r.store.Put("filler", "", make([]float64, free/8+1))
	r.store.Put("filler", "", nil)
	held := map[storage.KeyRef]bool{}
	for _, e := range r.store.Snapshot() {
		held[storage.KeyRef{Site: e.Site, Key: e.Key}] = true
	}
	if held[gone] || gone.Site == "" {
		t.Fatalf("the shared basis %v was not evicted", gone)
	}
	for _, k := range keep {
		if !held[k] {
			t.Fatalf("basis %v was evicted with the shared one", k)
		}
	}
}

// reuseCounters is what a batch changes in a reuse engine's counts and its
// store's hit and promotion counters.
type reuseCounters struct {
	counts         map[ReuseKind]int
	hits, promoted int64
}

func reuseState(r *Reuse) reuseCounters {
	st := r.StoreStats()
	return reuseCounters{counts: r.Counts(), hits: st.Hits, promoted: st.Promoted}
}

func (c reuseCounters) minus(o reuseCounters) reuseCounters {
	d := reuseCounters{counts: map[ReuseKind]int{}, hits: c.hits - o.hits, promoted: c.promoted - o.promoted}
	for k, n := range c.counts {
		if n != o.counts[k] {
			d.counts[k] = n - o.counts[k]
		}
	}
	return d
}

func (c reuseCounters) equal(o reuseCounters) bool {
	return maps.Equal(c.counts, o.counts) && c.hits == o.hits && c.promoted == o.promoted
}

// TestPointMemoEntryBytes pins an entry's accounting: its fixed overhead,
// the point key, the generations, the moments and each stored site key.
// The bound of boundMemo, no larger than the bases the memo vouches for,
// depends on it.
func TestPointMemoEntryBytes(t *testing.T) {
	e := &memoEntry{
		key:     memoKey{scenario: "fp", point: "current=5,feature=12", worlds: 400, reads: "capacity"},
		keys:    []string{"(5,12)", "(5,16,32)"},
		gens:    []uint64{7, 9},
		cols:    []string{"capacity"},
		moments: make([]stats.Moments, 1),
	}
	want := int64(unsafe.Sizeof(memoEntry{})+unsafe.Sizeof(list.Element{})) + 24 +
		int64(len("current=5,feature=12")) + 2*8 +
		int64(unsafe.Sizeof(stats.Moments{})) +
		2*int64(unsafe.Sizeof("")) + int64(len("(5,12)")+len("(5,16,32)"))
	if got := e.bytes(); got != want {
		t.Fatalf("bytes() = %d, want %d", got, want)
	}
	// A recorded entry is charged on the way in and refunded on the way
	// out, so the memo's size returns to zero.
	m := newPointMemo()
	m.missed(1, e.key, e.keys, e.gens, nil)
	m.missed(1, e.key, e.keys, e.gens, nil)
	if n := m.order.Len(); n != 1 {
		t.Fatalf("the second miss recorded %d entries, want 1", n)
	}
	if got, want := m.size(), m.order.Front().Value.(*memoEntry).bytes(); got != want {
		t.Fatalf("memo size %d, want the entry's %d", got, want)
	}
	m.trim(0)
	if got := m.size(); got != 0 {
		t.Fatalf("memo size %d after trimming everything, want 0", got)
	}
}
