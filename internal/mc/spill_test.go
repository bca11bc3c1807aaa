package mc

import (
	"bytes"
	"context"
	"encoding/gob"
	"os"
	"testing"

	"fuzzyprophet/internal/core"
	"fuzzyprophet/internal/sqlparser"
	"fuzzyprophet/internal/storage"
)

// spillBudget is small enough that a single 300-world basis overflows the
// RAM tier: with spill enabled nearly every basis lives out-of-core.
const spillBudget = 4096

// TestSpillDifferentialBitIdentical is the tentpole acceptance test: for
// every bundled example scenario, a point sweep evaluated with a RAM
// budget far below the basis working set plus a spill tier produces
// byte-for-byte the same output vectors as unbounded in-RAM reuse — on the
// first pass (demotions during the sweep) and on a second pass over the
// same points (every basis faulted back from disk). The reuse decisions
// match because the two stores address the same basis set; the samples
// match because spilled payloads round-trip exactly.
func TestSpillDifferentialBitIdentical(t *testing.T) {
	ctx := context.Background()
	const worlds = 300
	for _, name := range sqlparser.ExampleScenarioNames() {
		t.Run(name, func(t *testing.T) {
			scn := compileExample(t, name)
			axis := scn.Space.Params[0].Name
			points, err := scn.Space.Sweep(axis, scn.DefaultPoint())
			if err != nil {
				t.Fatal(err)
			}

			baseReuse, err := NewReuse(core.DefaultConfig(), storage.Options{})
			if err != nil {
				t.Fatal(err)
			}
			base := NewEvaluator(scn, Options{Worlds: worlds, Reuse: baseReuse})

			spillReuse, err := NewReuse(core.DefaultConfig(), storage.Options{
				BudgetBytes: spillBudget,
				SpillDir:    t.TempDir(),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer spillReuse.Close()
			spill := NewEvaluator(scn, Options{Worlds: worlds, Reuse: spillReuse})

			for pass := 0; pass < 2; pass++ {
				for pi, pt := range points {
					want, err := base.evaluatePoint(ctx, pt)
					if err != nil {
						t.Fatal(err)
					}
					got, err := spill.evaluatePoint(ctx, pt)
					if err != nil {
						t.Fatalf("pass %d point %d (spilled): %v", pass, pi, err)
					}
					assertSameColumns(t, pass, want, got)
					for site, kind := range want.SiteOutcome {
						if got.SiteOutcome[site] != kind {
							t.Fatalf("pass %d point %d: site %s outcome %v, want %v (reuse decisions diverged)",
								pass, pi, site, got.SiteOutcome[site], kind)
						}
					}
				}
			}

			st := spillReuse.StoreStats()
			if st.Inserted >= 2 && st.Demoted == 0 {
				t.Fatalf("working set never spilled: %+v", st)
			}
			if st.SpillErrors != 0 || st.Quarantined != 0 {
				t.Fatalf("spill tier errors: %+v", st)
			}
		})
	}
}

// TestSpillDifferentialPointMemo is the spill differential for callers that
// declare Reads: on every scenario the repo ships, a sweep with a RAM budget
// far below the working set plus a spill tier makes the same memo decisions
// as unbounded RAM, because a basis keeps its generation through the spill
// tier. Passes 3 and 4 are memo hits on both, and their count, mean, M2,
// min and max equal, bit for bit, unbounded RAM's and a fresh evaluator's.
func TestSpillDifferentialPointMemo(t *testing.T) {
	const worlds = 300
	for name, src := range shippedSources(t) {
		t.Run(name, func(t *testing.T) {
			scn := compileShipped(t, name, src)
			points, err := scn.Space.Sweep(scn.Space.Params[0].Name, scn.DefaultPoint())
			if err != nil {
				t.Fatal(err)
			}
			base := memoEvaluator(t, scn, worlds, nil)
			spillReuse, err := NewReuse(core.DefaultConfig(), storage.Options{
				BudgetBytes: spillBudget,
				SpillDir:    t.TempDir(),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer spillReuse.Close()
			spill := memoEvaluator(t, scn, worlds, spillReuse)

			var fresh *Evaluator
			for pass := 0; pass < 5; pass++ {
				if pass == 3 {
					// A fresh engine over unbounded RAM's bases, with no memo.
					var snap bytes.Buffer
					if err := base.opts.Reuse.Save(&snap); err != nil {
						t.Fatal(err)
					}
					loaded, err := LoadReuse(&snap, storage.Options{})
					if err != nil {
						t.Fatal(err)
					}
					fresh = memoEvaluator(t, scn, worlds, loaded)
				}
				for pi, pt := range points {
					want, wantHit := evalTraced(t, base, pt)
					got, hit := evalTraced(t, spill, pt)
					if hit != wantHit || (pass >= 3 && !hit) {
						t.Fatalf("pass %d point %d: memo hit = %v spilled, %v in RAM", pass, pi, hit, wantHit)
					}
					for site, kind := range want.SiteOutcome {
						if got.SiteOutcome[site] != kind {
							t.Fatalf("pass %d point %d: site %s outcome %v, want %v (reuse decisions diverged)",
								pass, pi, site, got.SiteOutcome[site], kind)
						}
					}
					sameAggregates(t, name, want, got)
					if fresh != nil {
						computed, freshHit := evalTraced(t, fresh, pt)
						if freshHit {
							t.Fatalf("pass %d point %d: the fresh engine answered from a memo", pass, pi)
						}
						sameAggregates(t, name, computed, got)
					}
				}
			}

			st := spillReuse.StoreStats()
			if st.Demoted == 0 || st.Promoted == 0 {
				t.Fatalf("the sweep never went through the spill tier: %+v", st)
			}
			if st.SpillErrors != 0 || st.Quarantined != 0 {
				t.Fatalf("spill tier errors: %+v", st)
			}
		})
	}
}

// TestSpillKillAndReopen: snapshot a spill-enabled engine WITHOUT closing
// it (simulating a killed process — the tier persists its manifest after
// every put, and column files are fsynced before rename), reopen against
// the same spill dir, and require every basis back with zero corrupted
// reads: all sites serve as exact cache hits, nothing is quarantined, and
// the outputs are bit-identical.
func TestSpillKillAndReopen(t *testing.T) {
	ctx := context.Background()
	const worlds = 300
	scn := compileExample(t, "capacityplanning")
	axis := scn.Space.Params[0].Name
	points, err := scn.Space.Sweep(axis, scn.DefaultPoint())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	snap := dir + "/reuse.snap"

	reuse, err := NewReuse(core.DefaultConfig(), storage.Options{BudgetBytes: spillBudget, SpillDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(scn, Options{Worlds: worlds, Reuse: reuse})
	want := make([]*PointResult, len(points))
	for i, pt := range points {
		if want[i], err = ev.evaluatePoint(ctx, pt); err != nil {
			t.Fatal(err)
		}
	}
	if err := reuse.SaveSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	// The manifest-mode snapshot carries keys, not payloads: it must be far
	// smaller than the bases it addresses (len(points) sites × worlds × 8B).
	if fi, err := os.Stat(snap); err != nil {
		t.Fatal(err)
	} else if max := int64(len(points)) * worlds * 8 / 2; fi.Size() > max {
		t.Fatalf("manifest snapshot is %d bytes (payload-sized; want < %d)", fi.Size(), max)
	}
	// No Close: the process "dies" here.

	loaded, err := LoadSnapshot(snap, storage.Options{BudgetBytes: spillBudget, SpillDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	ev2 := NewEvaluator(scn, Options{Worlds: worlds, Reuse: loaded})
	for i, pt := range points {
		got, err := ev2.evaluatePoint(ctx, pt)
		if err != nil {
			t.Fatal(err)
		}
		assertSameColumns(t, i, want[i], got)
		for site, kind := range got.SiteOutcome {
			if kind != CachedExact {
				t.Fatalf("point %d site %s: outcome %v after reopen, want cached (basis lost or re-simulated)", i, site, kind)
			}
		}
	}
	st := loaded.StoreStats()
	if st.Quarantined != 0 || st.SpillErrors != 0 {
		t.Fatalf("reopen saw corruption: %+v", st)
	}
}

// TestLoadSnapshotWithSpillKeys: snapshots of spill-mode engines once also
// listed the spilled keys (a SpillKeys field) beside the tier's manifest.
// A stream in that layout still loads: gob skips the field, the reopened
// tier's manifest re-addresses every basis, and each serves as an exact
// cache hit with nothing quarantined.
func TestLoadSnapshotWithSpillKeys(t *testing.T) {
	ctx := context.Background()
	const worlds = 300
	scn := compileExample(t, "capacityplanning")
	axis := scn.Space.Params[0].Name
	points, err := scn.Space.Sweep(axis, scn.DefaultPoint())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opts := storage.Options{BudgetBytes: spillBudget, SpillDir: dir}
	reuse, err := NewReuse(core.DefaultConfig(), opts)
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(scn, Options{Worlds: worlds, Reuse: reuse})
	want := make([]*PointResult, len(points))
	for i, pt := range points {
		if want[i], err = ev.evaluatePoint(ctx, pt); err != nil {
			t.Fatal(err)
		}
	}

	// The older layout, field for field.
	type spillKeysSnapshot struct {
		Version   int
		Config    core.Config
		SeedBase  uint64
		Bound     bool
		Bases     []storage.Entry
		Index     []core.IndexEntry
		SpillKeys []storage.KeyRef
	}
	if err := reuse.store.Sync(); err != nil {
		t.Fatal(err)
	}
	old := spillKeysSnapshot{
		Version:  snapshotVersion,
		Config:   reuse.cfg,
		SeedBase: reuse.seedBase,
		Bound:    reuse.seedBound,
		Index:    reuse.index.Export(),
	}
	for _, e := range reuse.store.Snapshot() {
		old.SpillKeys = append(old.SpillKeys, storage.KeyRef{Site: e.Site, Key: e.Key})
	}
	if len(old.SpillKeys) == 0 {
		t.Fatal("the spill-mode engine stored no bases")
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&old); err != nil {
		t.Fatal(err)
	}
	if err := reuse.Close(); err != nil {
		t.Fatal(err)
	}

	loaded, err := LoadReuse(&buf, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	ev2 := NewEvaluator(scn, Options{Worlds: worlds, Reuse: loaded})
	for i, pt := range points {
		got, err := ev2.evaluatePoint(ctx, pt)
		if err != nil {
			t.Fatal(err)
		}
		assertSameColumns(t, i, want[i], got)
		for site, kind := range got.SiteOutcome {
			if kind != CachedExact {
				t.Fatalf("point %d site %s: outcome %v, want cached", i, site, kind)
			}
		}
	}
	if st := loaded.StoreStats(); st.Quarantined != 0 || st.SpillErrors != 0 {
		t.Fatalf("loading the older layout saw corruption: %+v", st)
	}
}
