package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// openSpillStore returns a store whose RAM tier fits about `fit` entries of
// 100 samples each, spilling to a temp dir.
func openSpillStore(t *testing.T, fit int) *Store {
	t.Helper()
	perEntry := (&Entry{Site: "s", Key: "k00", Samples: make([]float64, 100)}).bytes()
	s, err := Open(Options{
		BudgetBytes: int64(fit)*perEntry + 10,
		SpillDir:    t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func spillVec(seed float64) []float64 {
	out := make([]float64, 100)
	for i := range out {
		out[i] = seed*1000 + float64(i)
	}
	return out
}

func TestSpillDemoteOnEvict(t *testing.T) {
	s := openSpillStore(t, 2)
	for i := 0; i < 5; i++ {
		s.Put("s", fmt.Sprintf("k%02d", i), spillVec(float64(i)))
	}
	st := s.Stats()
	if st.Evicted != 3 || st.Demoted != 3 {
		t.Fatalf("evicted=%d demoted=%d, want 3/3", st.Evicted, st.Demoted)
	}
	if st.SpillEntries != 3 || st.SpillBytes == 0 {
		t.Fatalf("spill occupancy = %d entries / %d bytes", st.SpillEntries, st.SpillBytes)
	}
	// Every key is still addressable, wherever it lives.
	for i := 0; i < 5; i++ {
		if !stored(s, "s", fmt.Sprintf("k%02d", i)) {
			t.Fatalf("key k%02d lost after demotion", i)
		}
	}
}

func TestSpillPromoteOnGet(t *testing.T) {
	s := openSpillStore(t, 2)
	for i := 0; i < 4; i++ {
		s.Put("s", fmt.Sprintf("k%02d", i), spillVec(float64(i)))
	}
	// k00 and k01 were demoted; fault k00 back.
	got, ok := s.Get("s", "k00")
	if !ok {
		t.Fatal("spilled key not faulted back")
	}
	want := spillVec(0)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d = %v, want %v", i, got[i], want[i])
		}
	}
	st := s.Stats()
	if st.Promoted != 1 || st.Hits != 1 {
		t.Fatalf("promoted=%d hits=%d, want 1/1", st.Promoted, st.Hits)
	}
	// The promotion displaced the RAM LRU victim, which was demoted in turn.
	if st.Demoted < 3 {
		t.Fatalf("demoted = %d, want >= 3", st.Demoted)
	}
	// A promoted (on-disk) entry evicts for free: cycle enough keys to push
	// k00 back out and confirm demotions did not double-count it.
	// RAM now holds [k00 (on-disk), k03]. Two more puts evict both: k03
	// costs one demotion, k00 evicts for free (its payload is already on
	// disk), so exactly one demotion total.
	demotedBefore := st.Demoted
	s.Put("s", "k90", spillVec(90))
	s.Put("s", "k91", spillVec(91))
	if after := s.Stats(); after.Demoted != demotedBefore+1 {
		t.Fatalf("on-disk entry re-demoted: demoted went %d -> %d, want +1",
			demotedBefore, after.Demoted)
	}
	if !stored(s, "s", "k00") {
		t.Fatal("k00 lost after free eviction")
	}
}

// TestSpillPutInvalidatesStaleCopy: re-Putting a key that has a spill copy
// must invalidate it — the new vector may be longer (grown world count
// under the same arguments), and serving the short stale copy later would
// silently truncate the basis.
func TestSpillPutInvalidatesStaleCopy(t *testing.T) {
	s := openSpillStore(t, 1)
	s.Put("s", "k00", spillVec(1))
	s.Put("s", "k01", spillVec(2)) // demotes k00
	if st := s.Stats(); st.Demoted != 1 {
		t.Fatalf("setup: demoted = %d", st.Demoted)
	}
	longer := make([]float64, 250)
	for i := range longer {
		longer[i] = float64(i) + 0.5
	}
	s.Put("s", "k00", longer) // must drop the 100-sample spill copy
	s.Put("s", "k02", spillVec(3))
	s.Put("s", "k03", spillVec(4)) // cycles k00 out again
	got, ok := s.Get("s", "k00")
	if !ok {
		t.Fatal("k00 lost")
	}
	if len(got) != 250 || got[249] != 249.5 {
		t.Fatalf("stale spill copy served: len=%d", len(got))
	}
}

// TestSpillSyncAndReopen: Sync + Close + Open over the same dir restores
// every basis from the manifest — the snapshot path for spilled stores.
func TestSpillSyncAndReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{BudgetBytes: 0, SpillDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		s.Put("s", fmt.Sprintf("k%02d", i), spillVec(float64(i)))
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if keys := s.SpillKeys(); len(keys) != 6 {
		t.Fatalf("SpillKeys after Sync = %d, want 6", len(keys))
	}
	// Sync leaves the RAM tier intact.
	if n := s.Stats().Entries; n != 6 {
		t.Fatalf("Sync disturbed RAM tier: len = %d", n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(Options{BudgetBytes: 0, SpillDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for i := 0; i < 6; i++ {
		key := fmt.Sprintf("k%02d", i)
		got, ok := re.Get("s", key)
		if !ok {
			t.Fatalf("key %s lost across reopen", key)
		}
		want := spillVec(float64(i))
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("key %s sample %d = %v, want %v", key, j, got[j], want[j])
			}
		}
	}
	if st := re.Stats(); st.Quarantined != 0 {
		t.Fatalf("clean reopen quarantined %d files", st.Quarantined)
	}
}

// TestSnapshotIncludesSpilled: Snapshot materializes spilled-only bases so
// full exports see the complete set.
func TestSnapshotIncludesSpilled(t *testing.T) {
	s := openSpillStore(t, 2)
	for i := 0; i < 5; i++ {
		s.Put("s", fmt.Sprintf("k%02d", i), spillVec(float64(i)))
	}
	snap := s.Snapshot()
	if len(snap) != 5 {
		t.Fatalf("snapshot has %d entries, want 5", len(snap))
	}
	seen := map[string]bool{}
	for _, e := range snap {
		seen[e.Key] = true
		if len(e.Samples) != 100 {
			t.Fatalf("entry %s has %d samples", e.Key, len(e.Samples))
		}
	}
	for i := 0; i < 5; i++ {
		if !seen[fmt.Sprintf("k%02d", i)] {
			t.Fatalf("snapshot missing k%02d", i)
		}
	}
}

func TestRAMOnlyStoreHasNoSpill(t *testing.T) {
	s := NewStore(0)
	if s.HasSpill() {
		t.Fatal("NewStore configured a spill tier")
	}
	if keys := s.SpillKeys(); keys != nil {
		t.Fatalf("SpillKeys = %v on RAM-only store", keys)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSpillCounters: SpillCounters reads the spill fields Stats reports,
// and reports none for a RAM-only store.
func TestSpillCounters(t *testing.T) {
	if _, ok := NewStore(0).SpillCounters(); ok {
		t.Fatal("a RAM-only store reported spill counters")
	}
	s := openSpillStore(t, 2)
	for i := 0; i < 4; i++ {
		s.Put("s", fmt.Sprintf("k%02d", i), spillVec(float64(i)))
	}
	if _, ok := s.Get("s", "k00"); !ok {
		t.Fatal("spilled key not faulted back")
	}
	c, ok := s.SpillCounters()
	st := s.Stats()
	want := SpillCounters{Demoted: st.Demoted, Promoted: st.Promoted, DemoteNanos: st.DemoteNanos, PromoteNanos: st.PromoteNanos}
	if !ok || c != want || c.Demoted == 0 || c.Promoted != 1 {
		t.Fatalf("SpillCounters = %+v, %v; Stats has %+v", c, ok, want)
	}
}

// TestLookupGenerations: a lookup returns the generation its entry was
// stored under — unchanged while the entry lives, also across a demotion
// and promotion through the spill tier, new whenever the entry is
// replaced, 0 on a miss.
func TestLookupGenerations(t *testing.T) {
	s := openSpillStore(t, 2)
	s.Put("s", "k00", spillVec(0))
	_, g1, ok := s.Lookup("s", "k00")
	if !ok || g1 == 0 {
		t.Fatalf("Lookup after Put = gen %d, ok %v", g1, ok)
	}
	if _, again, _ := s.Lookup("s", "k00"); again != g1 {
		t.Fatalf("a second lookup of a live entry moved its generation %d -> %d", g1, again)
	}
	s.Put("s", "k00", spillVec(0))
	_, g2, _ := s.Lookup("s", "k00")
	if g2 == g1 {
		t.Fatal("replacing an entry kept its generation")
	}
	// Two more entries demote k00; the next lookup promotes it.
	s.Put("s", "k01", spillVec(1))
	s.Put("s", "k02", spillVec(2))
	_, g3, ok := s.Lookup("s", "k00")
	if !ok || s.Stats().Promoted != 1 {
		t.Fatalf("k00 was not promoted from the spill tier (ok %v, %+v)", ok, s.Stats())
	}
	if g3 != g2 {
		t.Fatalf("a promoted entry came back under generation %d, want its own %d", g3, g2)
	}
	if _, g, ok := s.Lookup("s", "nope"); ok || g != 0 {
		t.Fatalf("a miss returned generation %d, ok %v", g, ok)
	}
}

// TestLookupGenerationsAcrossTiers: per event in a basis's life across the
// two tiers, whether its generation is kept or renewed. A generation names
// a payload: it survives every trip through the spill tier that brings back
// the bytes it was assigned to, and nothing else.
func TestLookupGenerationsAcrossTiers(t *testing.T) {
	perEntry := (&Entry{Site: "s", Key: "k00", Samples: make([]float64, 100)}).bytes()
	// open opens a store over dir whose RAM tier fits one entry; spillFiles
	// > 0 bounds the spill tier to that many column files.
	open := func(t *testing.T, dir string, spillFiles int64) *Store {
		t.Helper()
		s, err := Open(Options{
			BudgetBytes:      perEntry + 10,
			SpillDir:         dir,
			SpillBudgetBytes: spillFiles * (4096 + 100*8),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	// spillK00 leaves k00 in the spill tier only: k01 displaces it.
	spillK00 := func(s *Store) { s.Put("s", "k01", spillVec(1)) }
	// promoteK00 faults k00 back into RAM and requires it found.
	promoteK00 := func(t *testing.T, s *Store) {
		t.Helper()
		if _, _, ok := s.Lookup("s", "k00"); !ok {
			t.Fatal("k00 not found")
		}
	}
	// reput stores k00 again, with the same samples, and spills it.
	reput := func(s *Store) {
		s.Put("s", "k00", spillVec(0))
		spillK00(s)
	}

	for _, tc := range []struct {
		name string
		keep bool
		// event acts on a store holding k00 in RAM and returns the store
		// to look k00 up in.
		event func(t *testing.T, s *Store, dir string) *Store
	}{
		{"demote then promote", true, func(t *testing.T, s *Store, _ string) *Store {
			spillK00(s)
			if st := s.Stats(); st.Demoted != 1 {
				t.Fatalf("demoted = %d, want 1", st.Demoted)
			}
			return s
		}},
		{"Sync, evict, promote", true, func(t *testing.T, s *Store, _ string) *Store {
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
			spillK00(s)
			if st := s.Stats(); st.Demoted != 1 || st.Evicted != 1 {
				t.Fatalf("demoted = %d, evicted = %d; want k00 evicted free after Sync", st.Demoted, st.Evicted)
			}
			return s
		}},
		{"promote twice", true, func(t *testing.T, s *Store, _ string) *Store {
			spillK00(s)
			promoteK00(t, s)
			spillK00(s)
			return s
		}},
		{"Put after promotion", false, func(t *testing.T, s *Store, _ string) *Store {
			spillK00(s)
			promoteK00(t, s)
			s.Put("s", "k00", spillVec(0))
			return s
		}},
		{"Put while spilled", false, func(t *testing.T, s *Store, _ string) *Store {
			spillK00(s)
			s.Put("s", "k00", spillVec(0))
			return s
		}},
		{"dropped by the spill budget", false, func(t *testing.T, _ *Store, dir string) *Store {
			// A tier of one file: spilling k01 drops k00's file.
			s := open(t, dir+"-small", 1)
			s.Put("s", "k00", spillVec(0))
			spillK00(s)
			s.Put("s", "k02", spillVec(2))
			if _, g, ok := s.Lookup("s", "k00"); ok || g != 0 {
				t.Fatalf("k00 served (gen %d) after the spill budget dropped it", g)
			}
			reput(s)
			return s
		}},
		{"quarantined", false, func(t *testing.T, s *Store, dir string) *Store {
			spillK00(s)
			files, err := filepath.Glob(filepath.Join(dir, "*.col"))
			if err != nil || len(files) != 1 {
				t.Fatalf("spill files = %v, %v; want k00's alone", files, err)
			}
			data, err := os.ReadFile(files[0])
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-1] ^= 0xff
			if err := os.WriteFile(files[0], data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, g, ok := s.Lookup("s", "k00"); ok || g != 0 {
				t.Fatalf("a corrupted spill file was served (gen %d)", g)
			}
			if q := s.Stats().Quarantined; q != 1 {
				t.Fatalf("quarantined = %d, want 1", q)
			}
			reput(s)
			return s
		}},
		{"reopened", false, func(t *testing.T, s *Store, dir string) *Store {
			spillK00(s)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			re := open(t, dir, 0)
			// The reopened store counts generations from 1 again: a few
			// entries first, so a fresh one cannot equal k00's old one by
			// coincidence.
			for i := 2; i < 6; i++ {
				re.Put("s", fmt.Sprintf("k%02d", i), spillVec(float64(i)))
			}
			return re
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "spill")
			s := open(t, dir, 0)
			s.Put("s", "k00", spillVec(0))
			_, g0, _ := s.Lookup("s", "k00")
			s = tc.event(t, s, dir)
			got, g, ok := s.Lookup("s", "k00")
			if !ok || g == 0 {
				t.Fatalf("k00 lost (gen %d, ok %v)", g, ok)
			}
			if want := spillVec(0); got[99] != want[99] {
				t.Fatalf("k00 sample 99 = %v, want %v", got[99], want[99])
			}
			if kept := g == g0; kept != tc.keep {
				t.Fatalf("generation %d -> %d: kept = %v, want %v", g0, g, kept, tc.keep)
			}
			if _, again, _ := s.Lookup("s", "k00"); again != g {
				t.Fatalf("a live entry's generation moved %d -> %d", g, again)
			}
		})
	}
}

// TestSpilledGensBounded: the generations remembered for spilled bases stay
// proportional to the spill tier, however many bases its budget drops.
func TestSpilledGensBounded(t *testing.T) {
	perEntry := (&Entry{Site: "s", Key: "k00", Samples: make([]float64, 100)}).bytes()
	s, err := Open(Options{BudgetBytes: perEntry + 10, SpillDir: t.TempDir(), SpillBudgetBytes: 2 * (4096 + 100*8)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 300; i++ {
		s.Put("s", fmt.Sprintf("k%03d", i), spillVec(float64(i)))
		if n, max := len(s.spilledGens), 2*s.spill.Len()+65; n > max {
			t.Fatalf("after %d puts: %d generations remembered for a tier of %d", i+1, n, s.spill.Len())
		}
	}
}
