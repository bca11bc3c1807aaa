package colstore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func mustPut(t *testing.T, tier *Tier, site, key string, samples []float64) {
	t.Helper()
	if err := tier.Put(site, key, samples); err != nil {
		t.Fatalf("Put(%s,%s): %v", site, key, err)
	}
}

func vec(seed float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = seed + float64(i)*0.5
	}
	return out
}

func TestTierPutGetRoundTrip(t *testing.T) {
	tier, err := OpenTier(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()

	want := vec(3, 100)
	mustPut(t, tier, "Site#1", "(7)", want)
	got, ok := tier.Get("Site#1", "(7)")
	if !ok {
		t.Fatal("Get missed a just-spilled key")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d = %v, want %v", i, got[i], want[i])
		}
	}
	if _, ok := tier.Get("Site#1", "(8)"); ok {
		t.Fatal("Get hit an absent key")
	}
	if !tier.Contains("Site#1", "(7)") || tier.Contains("Other", "(7)") {
		t.Fatal("Contains wrong")
	}
	st := tier.Stats()
	if st.Entries != 1 || st.Puts != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTierReopenRestoresEntries(t *testing.T) {
	dir := t.TempDir()
	tier, err := OpenTier(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	vecs := map[string][]float64{}
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("(%d)", i)
		vecs[key] = vec(float64(i), 50+i)
		mustPut(t, tier, "S", key, vecs[key])
	}
	if err := tier.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenTier(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 10 {
		t.Fatalf("reopened tier has %d entries, want 10", re.Len())
	}
	for key, want := range vecs {
		got, ok := re.Get("S", key)
		if !ok {
			t.Fatalf("key %s lost across reopen", key)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("key %s sample %d = %v, want %v", key, i, got[i], want[i])
			}
		}
	}
	if st := re.Stats(); st.Quarantined != 0 {
		t.Fatalf("clean reopen quarantined %d files", st.Quarantined)
	}
}

func TestTierBudgetEvictsLRU(t *testing.T) {
	// Each 64-value file is headerSize+512 bytes; budget fits ~3.
	budget := int64(3 * (headerSize + 512))
	tier, err := OpenTier(t.TempDir(), budget)
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()
	for i := 0; i < 6; i++ {
		mustPut(t, tier, "S", fmt.Sprintf("(%d)", i), vec(float64(i), 64))
	}
	st := tier.Stats()
	if st.Bytes > budget {
		t.Fatalf("tier holds %d bytes over budget %d", st.Bytes, budget)
	}
	if st.Evicted == 0 {
		t.Fatal("no evictions under a tight budget")
	}
	// Oldest keys evicted first.
	if _, ok := tier.Get("S", "(0)"); ok {
		t.Fatal("LRU key (0) survived")
	}
	if _, ok := tier.Get("S", "(5)"); !ok {
		t.Fatal("most recent key (5) evicted")
	}
}

// TestTierQuarantinesCorruptFile is the crash-safety satellite: a column
// file corrupted mid-payload must be quarantined at first read after
// reopen, turning into a miss (re-simulation) instead of garbage samples.
func TestTierQuarantinesCorruptFile(t *testing.T) {
	dir := t.TempDir()
	tier, err := OpenTier(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, tier, "S", "good", vec(1, 256))
	mustPut(t, tier, "S", "bad", vec(2, 256))
	if err := tier.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one payload bit of the "bad" entry's file.
	corrupted := corruptOneEntry(t, dir, "bad")

	re, err := OpenTier(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, ok := re.Get("S", "bad"); ok {
		t.Fatal("corrupt entry served instead of quarantined")
	}
	st := re.Stats()
	if st.Quarantined != 1 {
		t.Fatalf("quarantined = %d, want 1", st.Quarantined)
	}
	if _, err := os.Stat(filepath.Join(dir, corrupted+quarantineSuffix)); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	// The intact entry still reads back perfectly.
	got, ok := re.Get("S", "good")
	if !ok {
		t.Fatal("intact entry lost")
	}
	if got[3] != vec(1, 256)[3] {
		t.Fatal("intact entry corrupted")
	}
	// A second open after quarantine starts clean: the manifest no longer
	// references the quarantined file.
	re.Close()
	re2, err := OpenTier(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if re2.Len() != 1 || re2.Stats().Quarantined != 0 {
		t.Fatalf("post-quarantine reopen: len=%d stats=%+v", re2.Len(), re2.Stats())
	}
}

// TestTierQuarantinesTruncatedFile covers the torn-write shape of
// corruption: the manifest size check catches it at reopen, before any map.
func TestTierQuarantinesTruncatedFile(t *testing.T) {
	dir := t.TempDir()
	tier, err := OpenTier(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, tier, "S", "torn", vec(5, 512))
	tier.Close()

	name := fileForKey(t, dir, "torn")
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), data[:headerSize+37], 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := OpenTier(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if st := re.Stats(); st.Quarantined != 1 || re.Len() != 0 {
		t.Fatalf("truncated file not quarantined at reopen: len=%d stats=%+v", re.Len(), st)
	}
	if _, ok := re.Get("S", "torn"); ok {
		t.Fatal("truncated entry served")
	}
}

func TestTierSweepsOrphansAndTempFiles(t *testing.T) {
	dir := t.TempDir()
	tier, err := OpenTier(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, tier, "S", "keep", vec(1, 10))
	tier.Close()

	// Simulate a crash between file rename and manifest write (orphan
	// column file) and mid-write (temp file).
	orphan, err := Encode(&Column{Kind: KindFloat64, Floats: vec(9, 10)})
	if err != nil {
		t.Fatal(err)
	}
	os.WriteFile(filepath.Join(dir, "b99999999.col"), orphan, 0o644)
	os.WriteFile(filepath.Join(dir, "b00000002.col.tmp123"), []byte("partial"), 0o644)

	re, err := OpenTier(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 1 {
		t.Fatalf("reopened len = %d, want 1", re.Len())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range entries {
		if strings.Contains(de.Name(), ".tmp") || de.Name() == "b99999999.col" {
			t.Fatalf("stale file %s not swept", de.Name())
		}
	}
}

func TestTierDropAndClear(t *testing.T) {
	dir := t.TempDir()
	tier, err := OpenTier(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()
	mustPut(t, tier, "S", "a", vec(1, 8))
	mustPut(t, tier, "S", "b", vec(2, 8))
	tier.Drop("S", "a")
	if tier.Contains("S", "a") || !tier.Contains("S", "b") {
		t.Fatal("Drop wrong")
	}
	tier.Drop("S", "b")
	if tier.Len() != 0 || tier.Stats().Bytes != 0 {
		t.Fatalf("Drop left %d entries, %d bytes", tier.Len(), tier.Stats().Bytes)
	}
	// Only the manifest remains on disk.
	entries, _ := os.ReadDir(dir)
	for _, de := range entries {
		if de.Name() != manifestName {
			t.Fatalf("Drop left %s", de.Name())
		}
	}
}

// TestTierReplaceKeepsOldViewsValid: replacing a key's spill retires the
// old mapping instead of unmapping it, so a view handed out earlier stays
// readable until Close.
func TestTierReplaceKeepsOldViewsValid(t *testing.T) {
	tier, err := OpenTier(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()
	mustPut(t, tier, "S", "k", vec(1, 64))
	old, ok := tier.Get("S", "k")
	if !ok {
		t.Fatal("miss")
	}
	mustPut(t, tier, "S", "k", vec(100, 128))
	fresh, ok := tier.Get("S", "k")
	if !ok || len(fresh) != 128 || fresh[0] != 100 {
		t.Fatal("replacement not served")
	}
	if old[0] != 1 || len(old) != 64 {
		t.Fatal("old view invalidated by replacement")
	}
}

// corruptOneEntry flips a payload bit in the file backing (S, key) and
// returns its file name.
func corruptOneEntry(t *testing.T, dir, key string) string {
	t.Helper()
	name := fileForKey(t, dir, key)
	path := filepath.Join(dir, name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[headerSize+11] ^= 0x04
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return name
}

// fileForKey reads the manifest to find the file backing ("S", key).
func fileForKey(t *testing.T, dir, key string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	var man manifest
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	for _, e := range man.Entries {
		if e.Key == key {
			return e.File
		}
	}
	t.Fatalf("key %s not in manifest", key)
	return ""
}

// TestTwoTiersOneDir: two tiers open on one directory number their files
// from the same sequence. Neither may publish over a file the other wrote,
// so each keeps serving its own keys' samples.
func TestTwoTiersOneDir(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenTier(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := OpenTier(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	mustPut(t, a, "s", "k1", vec(1, 64))
	mustPut(t, b, "s", "k2", vec(2, 64))
	mustPut(t, a, "s", "k3", vec(3, 64))
	for _, c := range []struct {
		tier *Tier
		key  string
		seed float64
	}{{a, "k1", 1}, {b, "k2", 2}, {a, "k3", 3}} {
		got, ok := c.tier.Get("s", c.key)
		if !ok {
			t.Fatalf("%s lost", c.key)
		}
		if want := vec(c.seed, 64); got[0] != want[0] {
			t.Fatalf("%s serves sample 0 = %v, want %v (another key's file)", c.key, got[0], want[0])
		}
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.col"))
	if err != nil || len(files) != 3 {
		t.Fatalf("column files = %v, %v; want one per put", files, err)
	}
}

// TestTierRefusesFileReusedAfterOrphanSweep: tier A publishes a file but
// has not yet saved its manifest when tier B opens the same directory. B
// sweeps the file as an orphan and its next Put reuses the name. A's first
// map of that entry must miss, not serve B's samples under A's key.
func TestTierRefusesFileReusedAfterOrphanSweep(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenTier(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	manPath := filepath.Join(dir, manifestName)
	before, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, a, "S", "K1", vec(1, 64))
	// Roll the manifest back: A's file is now published but unrecorded.
	if err := os.WriteFile(manPath, before, 0o644); err != nil {
		t.Fatal(err)
	}

	b, err := OpenTier(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	k2 := vec(1000, 64)
	mustPut(t, b, "S", "K2", k2)

	if got, ok := a.Get("S", "K1"); ok {
		if got[0] == k2[0] {
			t.Fatalf("A served B's K2 samples under K1: %v", got[:4])
		}
		t.Fatalf("A served a file it did not write for K1: %v", got[:4])
	}
}
