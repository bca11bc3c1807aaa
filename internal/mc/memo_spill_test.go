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
// promoted").
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
			data, err := os.ReadFile(filepath.Join(sp.dir, "MANIFEST.json"))
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
			for _, k := range pointKeys(t, sp.ev, sp.pt) {
				if file, ok := files[k]; ok {
					flipLastByte(t, filepath.Join(sp.dir, file))
				}
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

// storedKeys returns every key s holds, in either tier.
func storedKeys(s *storage.Store) map[storage.KeyRef]bool {
	held := map[storage.KeyRef]bool{}
	for _, e := range s.Snapshot() {
		held[storage.KeyRef{Site: e.Site, Key: e.Key}] = true
	}
	return held
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
