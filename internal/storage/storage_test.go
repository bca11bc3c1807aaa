package storage

import (
	"container/list"
	"fmt"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

func TestPutGet(t *testing.T) {
	s := NewStore(0)
	s.Put("site", "k1", []float64{1, 2, 3})
	got, ok := s.Get("site", "k1")
	if !ok || len(got) != 3 || got[0] != 1 {
		t.Fatalf("Get = %v, %v", got, ok)
	}
	if _, ok := s.Get("site", "k2"); ok {
		t.Error("missing key should miss")
	}
	if _, ok := s.Get("other", "k1"); ok {
		t.Error("site namespaces must be separate")
	}
}

func TestPutCopies(t *testing.T) {
	s := NewStore(0)
	src := []float64{1, 2}
	s.Put("s", "k", src)
	src[0] = 99
	got, _ := s.Get("s", "k")
	if got[0] != 1 {
		t.Error("Put must copy the samples")
	}
}

func TestReplace(t *testing.T) {
	s := NewStore(0)
	s.Put("s", "k", []float64{1})
	s.Put("s", "k", []float64{2, 3})
	got, _ := s.Get("s", "k")
	if len(got) != 2 || got[0] != 2 {
		t.Errorf("replace failed: %v", got)
	}
	if n := s.Stats().Entries; n != 1 {
		t.Errorf("len = %d", n)
	}
}

func TestCompositeKeyNoCollision(t *testing.T) {
	s := NewStore(0)
	// "ab"+"c" vs "a"+"bc" must be distinct entries.
	s.Put("ab", "c", []float64{1})
	s.Put("a", "bc", []float64{2})
	if n := s.Stats().Entries; n != 2 {
		t.Fatalf("len = %d, key collision", n)
	}
	g1, _ := s.Get("ab", "c")
	g2, _ := s.Get("a", "bc")
	if g1[0] != 1 || g2[0] != 2 {
		t.Error("entries crossed")
	}
}

func TestLRUEviction(t *testing.T) {
	// Budget for exactly two entries of 100 samples each.
	perEntry := (&Entry{Site: "s", Key: "a", Samples: make([]float64, 100)}).bytes()
	s := NewStore(2*perEntry + 10)
	samples := make([]float64, 100)
	s.Put("s", "a", samples)
	s.Put("s", "b", samples)
	// Touch "a" so "b" is the LRU victim.
	if _, ok := s.Get("s", "a"); !ok {
		t.Fatal("a should be present")
	}
	s.Put("s", "c", samples)
	if stored(s, "s", "b") {
		t.Error("b should have been evicted")
	}
	if !stored(s, "s", "a") || !stored(s, "s", "c") {
		t.Error("a and c should remain")
	}
	st := s.Stats()
	if st.Evicted != 1 {
		t.Errorf("evicted = %d", st.Evicted)
	}
	if st.UsedBytes > st.Budget {
		t.Errorf("used %d over budget %d", st.UsedBytes, st.Budget)
	}
}

func TestUnboundedNeverEvicts(t *testing.T) {
	s := NewStore(0)
	for i := 0; i < 1000; i++ {
		s.Put("s", fmt.Sprintf("k%d", i), make([]float64, 100))
	}
	if n := s.Stats().Entries; n != 1000 {
		t.Errorf("len = %d", n)
	}
	if s.Stats().Evicted != 0 {
		t.Error("unbounded store must not evict")
	}
}

func TestStatsCounters(t *testing.T) {
	s := NewStore(0)
	s.Put("s", "k", []float64{1})
	s.Get("s", "k")
	s.Get("s", "nope")
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Inserted != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := NewStore(1 << 20)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", i%20)
				s.Put("s", key, []float64{float64(i)})
				s.Get("s", key)
				s.Lookup("s", key)
			}
		}(w)
	}
	wg.Wait()
	if s.Stats().Entries == 0 {
		t.Error("store empty after concurrent writes")
	}
}

// TestLookupAllocationFree: Get is the hottest reuse-lookup path; the
// composite key is built in a stack buffer and passed to the map as an
// elided string conversion, so the call may not allocate.
func TestLookupAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	s := NewStore(0)
	s.Put("CapacityModel#1", "(12,36,44)", []float64{1, 2, 3})
	if a := testing.AllocsPerRun(100, func() {
		if _, ok := s.Get("CapacityModel#1", "(12,36,44)"); !ok {
			t.Fatal("entry vanished")
		}
	}); a != 0 {
		t.Errorf("Get allocates %v per call, want 0", a)
	}
}

// TestCompositeKeyLongSiteNames: keys longer than the stack buffer still
// encode correctly (the append spills to the heap transparently).
func TestCompositeKeyLongSiteNames(t *testing.T) {
	s := NewStore(0)
	site := strings.Repeat("VeryLongModelName", 8) + "#1"
	key := "(" + strings.Repeat("123456789,", 20) + "0)"
	s.Put(site, key, []float64{42})
	got, ok := s.Get(site, key)
	if !ok || got[0] != 42 {
		t.Fatalf("long-key round trip failed: %v %v", got, ok)
	}
}

// TestEntryBytesAccounting pins the byte-accounting formula. The budget
// charge must cover more than the raw payload: the Entry struct, its
// list.Element, both strings (stored once in the Entry and again inside
// the composite index key), the key framing, and the index map's per-entry
// share. The old formula (payload + site + key + 64) undercounted all of
// that, so small-sample workloads blew far past their configured budget.
func TestEntryBytesAccounting(t *testing.T) {
	e := &Entry{Site: "CapacityModel#1", Key: "(12,36,44)", Samples: make([]float64, 100)}
	want := int64(100*8) +
		2*int64(len(e.Site)+len(e.Key)) +
		keyFrameOverhead + mapEntryOverhead +
		int64(unsafe.Sizeof(Entry{})) + int64(unsafe.Sizeof(list.Element{}))
	if got := e.bytes(); got != want {
		t.Fatalf("bytes() = %d, want %d", got, want)
	}
	// Regression guard for the undercount: the charge must exceed the old
	// formula's value for any entry.
	old := int64(len(e.Samples))*8 + int64(len(e.Site)+len(e.Key)) + 64
	if e.bytes() <= old {
		t.Fatalf("bytes() = %d does not exceed the old undercounting formula %d", e.bytes(), old)
	}
	// An empty entry still carries its fixed overhead.
	empty := &Entry{}
	if got := empty.bytes(); got != keyFrameOverhead+mapEntryOverhead+structOverhead {
		t.Fatalf("empty entry bytes() = %d", got)
	}
}

func BenchmarkStoreGet(b *testing.B) {
	s := NewStore(0)
	s.Put("CapacityModel#1", "(12,36,44)", make([]float64, 1000))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Get("CapacityModel#1", "(12,36,44)")
	}
}

// stored reports whether (site, key) is in either tier, without touching
// LRU order or mapping a file.
func stored(s *Store, site, key string) bool {
	s.mu.Lock()
	_, ok := s.index[string(appendCompositeKey(nil, site, key))]
	s.mu.Unlock()
	return ok || s.spill != nil && s.spill.Contains(site, key)
}
