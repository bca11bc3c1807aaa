package mc

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"fuzzyprophet/internal/core"
	"fuzzyprophet/internal/guide"
	"fuzzyprophet/internal/scenario"
	"fuzzyprophet/internal/storage"
	"fuzzyprophet/internal/value"
)

// pointKeys returns the store address of every site's basis at pt.
func pointKeys(t *testing.T, ev *Evaluator, pt guide.Point) []storage.KeyRef {
	t.Helper()
	keys := make([]storage.KeyRef, len(ev.scn.Sites))
	for si := range ev.scn.Sites {
		call, err := ev.callAt(si, pt)
		if err != nil {
			t.Fatal(err)
		}
		keys[si] = storage.KeyRef{Site: ev.scn.Sites[si].ID, Key: call.key}
	}
	return keys
}

// spilledPoint is a memoised point whose bases were then pushed out of the
// RAM tier into the spill tier under dir.
type spilledPoint struct {
	scn   *scenario.Scenario
	pt    guide.Point
	reuse *Reuse
	ev    *Evaluator
	dir   string
	opts  storage.Options
}

// TestPointMemoSpillRenewal: every event that renews the generation of a
// spilled basis makes a point memoised over it recompute, with the result
// of a fresh evaluator. Only a demotion and promotion of the same payload
// keeps the memo's answer (TestPointMemoInvalidation, "spilled and
// promoted"). A corrupted spill file renews nothing until a payload read
// quarantines it: until then the memo's answer, whose moments came from
// the valid payload of that generation, stands.
func TestPointMemoSpillRenewal(t *testing.T) {
	const worlds = 64
	// Two capacityplanning points' bases fit in this RAM budget, three do not.
	const budget = 3000
	// fileBytes is one spilled basis: a header page and the samples.
	const fileBytes = 4096 + 8*worlds

	for _, tc := range []struct {
		name        string
		spillBudget int64
		quarantines bool
		// event renews the generations of the point's bases and returns the
		// evaluator to revisit the point through.
		event func(t *testing.T, sp *spilledPoint) *Evaluator
	}{
		{"Put after promotion", 0, false, func(t *testing.T, sp *spilledPoint) *Evaluator {
			assertMemo(t, "promoted", sp.scn, sp.ev, sp.pt, true)
			if _, err := memoEvaluator(t, sp.scn, 2*worlds, sp.reuse).evaluatePoint(context.Background(), sp.pt); err != nil {
				t.Fatal(err)
			}
			return sp.ev
		}},
		{"Put while spilled", 0, false, func(t *testing.T, sp *spilledPoint) *Evaluator {
			if _, err := memoEvaluator(t, sp.scn, 2*worlds, sp.reuse).evaluatePoint(context.Background(), sp.pt); err != nil {
				t.Fatal(err)
			}
			return sp.ev
		}},
		{"dropped by the spill budget", 2 * fileBytes, false, func(t *testing.T, sp *spilledPoint) *Evaluator {
			held := storedKeys(sp.reuse.store)
			for _, k := range pointKeys(t, sp.ev, sp.pt) {
				if !held[k] {
					return sp.ev
				}
			}
			t.Fatal("the spill budget dropped none of the point's bases")
			return nil
		}},
		{"quarantined", 0, true, func(t *testing.T, sp *spilledPoint) *Evaluator {
			corruptSpilled(t, sp.dir, pointKeys(t, sp.ev, sp.pt))
			assertMemo(t, "over corrupted spill files", sp.scn, sp.ev, sp.pt, true)
			if q := sp.reuse.StoreStats().Quarantined; q != 0 {
				t.Fatalf("the memo hit quarantined %d spill files, want 0", q)
			}
			// An evaluator without Reads never consults the memo: it reads
			// the payloads, which quarantines their files.
			plain := NewEvaluator(sp.scn, Options{Worlds: worlds, Reuse: sp.reuse})
			assertRecomputed(t, "first payload read", sp.scn, plain, sp.pt)
			if q := sp.reuse.StoreStats().Quarantined; q == 0 {
				t.Fatal("the first payload read quarantined no spill file")
			}
			return sp.ev
		}},
		{"reopened", 0, false, func(t *testing.T, sp *spilledPoint) *Evaluator {
			snap := filepath.Join(t.TempDir(), "reuse.snap")
			if err := sp.reuse.SaveSnapshot(snap); err != nil {
				t.Fatal(err)
			}
			if err := sp.reuse.Close(); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadSnapshot(snap, sp.opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { loaded.Close() })
			return memoEvaluator(t, sp.scn, worlds, loaded)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sp := &spilledPoint{scn: compileExample(t, "capacityplanning"), dir: t.TempDir()}
			sp.pt = sp.scn.DefaultPoint()
			sp.opts = storage.Options{BudgetBytes: budget, SpillDir: sp.dir, SpillBudgetBytes: tc.spillBudget}
			var err error
			if sp.reuse, err = NewReuse(core.DefaultConfig(), sp.opts); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { sp.reuse.Close() })
			sp.ev = memoEvaluator(t, sp.scn, worlds, sp.reuse)
			for visit := 0; visit < 4; visit++ {
				if _, hit := evalTraced(t, sp.ev, sp.pt); hit != (visit == 3) {
					t.Fatalf("visit %d: memo hit = %v", visit, hit)
				}
			}
			for week := 10; week < 13; week++ {
				other := sp.scn.DefaultPoint()
				other["current"] = value.Int(int64(week))
				if _, err := sp.ev.evaluatePoint(context.Background(), other); err != nil {
					t.Fatal(err)
				}
			}
			if sp.reuse.StoreStats().Demoted == 0 {
				t.Fatal("nothing was demoted")
			}
			assertRecomputed(t, tc.name, sp.scn, tc.event(t, sp), sp.pt)
			if q := sp.reuse.StoreStats().Quarantined; (q > 0) != tc.quarantines {
				t.Fatalf("%d spill files quarantined", q)
			}
		})
	}
}

// TestPointMemoHitReadsNoPayload: a render the point memo answers in full
// leaves the basis store as it found it, even when most of its bases are
// in the spill tier alone: no hit, miss, promotion, demotion or eviction,
// the same resident bytes and spill files. Its frames are a fresh
// evaluator's. A spill file corrupted before its first read is quarantined
// by that read, not by the memo: the memo still answers, and the first
// evaluation that reads the payload recomputes it.
func TestPointMemoHitReadsNoPayload(t *testing.T) {
	const worlds = 64
	ctx := context.Background()
	scn := compileExample(t, "capacityplanning")
	points, err := scn.Space.Sweep("current", scn.DefaultPoint())
	if err != nil {
		t.Fatal(err)
	}
	full := memoEvaluator(t, scn, worlds, nil)
	fresh, err := full.EvaluatePoints(ctx, points)
	if err != nil {
		t.Fatal(err)
	}
	// The RAM budget is a seventh of the sweep's bases.
	budget := full.opts.Reuse.StoreStats().UsedBytes / 7
	dir := t.TempDir()
	reuse, err := NewReuse(core.DefaultConfig(), storage.Options{BudgetBytes: budget, SpillDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer reuse.Close()
	ev := memoEvaluator(t, scn, worlds, reuse)
	// The first render computes the sites, the next two find them cached
	// and memoise every point.
	for visit := 0; visit < 3; visit++ {
		if _, err := ev.EvaluatePoints(ctx, points); err != nil {
			t.Fatal(err)
		}
	}
	if st := reuse.StoreStats(); st.SpillEntries < 2*st.Entries {
		t.Fatalf("%d bases in the spill tier, %d in RAM: too few spilled to test", st.SpillEntries, st.Entries)
	}
	type storeState struct {
		hits, misses, promoted, demoted, evicted, used int64
		spillEntries                                   int
	}
	state := func() storeState {
		st := reuse.StoreStats()
		return storeState{st.Hits, st.Misses, st.Promoted, st.Demoted, st.Evicted, st.UsedBytes, st.SpillEntries}
	}
	before := state()
	got, err := ev.EvaluatePoints(ctx, points)
	if err != nil {
		t.Fatal(err)
	}
	if after := state(); after != before {
		t.Fatalf("a memo-hit render moved the store %+v -> %+v", before, after)
	}
	for i := range points {
		if got[i].Columns != nil {
			t.Fatalf("point %v was recomputed, want a memo hit", points[i])
		}
		sameAggregates(t, "memo hit", fresh[i], got[i])
	}

	// A point off the sweep, memoised while its bases are in RAM, then
	// pushed to the spill tier by an evaluator without Reads that reads
	// every payload of the sweep: its spill files have never been mapped,
	// so a corrupted one fails verification at its first read. Its sites
	// are computed, not re-mapped from the sweep's bases, so the memo's
	// answer and the recompute are a fresh evaluator's bits; how far a
	// re-mapped answer strays is not this test's subject.
	pt := guide.Point{"current": value.Int(38), "feature": value.Int(36), "purchase1": value.Int(32), "purchase2": value.Int(32)}
	for visit := 0; visit < 3; visit++ {
		res, hit := evalTraced(t, ev, pt)
		if hit {
			t.Fatalf("visit %d: memo hit", visit)
		}
		if visit == 0 {
			for site, kind := range res.SiteOutcome {
				if kind != Computed {
					t.Fatalf("site %s = %v on the first visit, want computed", site, kind)
				}
			}
		}
	}
	assertMemo(t, "memoised", scn, ev, pt, true)
	plain := NewEvaluator(scn, Options{Worlds: worlds, Reuse: reuse})
	if _, err := plain.EvaluatePoints(ctx, points); err != nil {
		t.Fatal(err)
	}
	keys := pointKeys(t, ev, pt)
	if n := corruptSpilled(t, dir, keys); n != len(keys) {
		t.Fatalf("%d of the point's %d bases have a spill file", n, len(keys))
	}
	assertMemo(t, "over corrupted spill files", scn, ev, pt, true)
	if q := reuse.StoreStats().Quarantined; q != 0 {
		t.Fatalf("the memo hit quarantined %d spill files, want 0", q)
	}
	assertRecomputed(t, "first payload read", scn, plain, pt)
	if q := reuse.StoreStats().Quarantined; q != int64(len(keys)) {
		t.Fatalf("the first payload read quarantined %d spill files, want %d", q, len(keys))
	}
}

// corruptSpilled flips the last byte of the spill file of every key of keys
// the spill tier under dir holds, and returns how many it flipped.
func corruptSpilled(t *testing.T, dir string, keys []storage.KeyRef) int {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "MANIFEST.json"))
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		Entries []struct{ Site, Key, File string }
	}
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	files := map[storage.KeyRef]string{}
	for _, e := range man.Entries {
		files[storage.KeyRef{Site: e.Site, Key: e.Key}] = e.File
	}
	n := 0
	for _, k := range keys {
		if file, ok := files[k]; ok {
			flipLastByte(t, filepath.Join(dir, file))
			n++
		}
	}
	return n
}

// storedKeys returns every key s holds, in either tier.
func storedKeys(s *storage.Store) map[storage.KeyRef]bool {
	held := map[storage.KeyRef]bool{}
	for _, e := range s.Snapshot() {
		held[storage.KeyRef{Site: e.Site, Key: e.Key}] = true
	}
	return held
}

// promotions looks every key of keys up in r's store, one at a time, and
// returns how many of the lookups promoted a basis from the spill tier.
func promotions(t *testing.T, r *Reuse, keys []storage.KeyRef) int64 {
	t.Helper()
	before := r.StoreStats().Promoted
	for _, k := range keys {
		if _, _, ok := r.store.Lookup(k.Site, k.Key); !ok {
			t.Fatalf("basis %v is not stored", k)
		}
	}
	return r.StoreStats().Promoted - before
}

// flipLastByte corrupts a file's payload in place, without truncating it.
func flipLastByte(t *testing.T, path string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, fi.Size()-1); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b, fi.Size()-1); err != nil {
		t.Fatal(err)
	}
}
