// Package storage implements Fuzzy Prophet's Storage Manager: the component
// that "manages the set of basis distributions" (paper §2, architecture
// cycle step 3).
//
// A basis distribution is the Monte Carlo sample vector produced for one
// (call site, argument tuple) during scenario evaluation. The online mode
// correlates new parameter points against these stored bases via
// fingerprints; a hit re-maps the stored samples instead of re-invoking the
// VG-Function.
//
// The store is a two-tier cache. The RAM tier is bounded by a byte budget
// with LRU ordering. Without a spill tier, eviction drops the basis
// (classic bounded cache). With a spill tier configured (Options.SpillDir),
// the RAM tier becomes the hot cache above an out-of-core columnar tier
// (internal/colstore): eviction DEMOTES the basis to a memory-mapped column
// file instead of discarding it, and a Get that misses RAM faults the basis
// back as a zero-copy mapped view — read-only consumers (the reuse
// remapper, the SQL engine's plan kernels) run directly over the mapped
// slice, so a working set far beyond the RAM budget stays one page fault
// away instead of one re-simulation away.
package storage

import (
	"container/list"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"fuzzyprophet/internal/colstore"
)

// KeyRef names one basis by its composite (site, key) address.
type KeyRef = colstore.KeyRef

// Options configures a Store.
type Options struct {
	// BudgetBytes bounds the RAM tier (<= 0 means unbounded).
	BudgetBytes int64
	// SpillDir, when non-empty, enables the out-of-core tier rooted at
	// that directory: evictions demote to memory-mapped column files and
	// misses fault them back. The directory is created if absent and
	// reopened crash-safely (CRC-verified, torn files quarantined).
	SpillDir string
	// SpillBudgetBytes bounds the spill tier's disk usage (<= 0 means
	// unbounded). Over-budget spill files are dropped least-recently-used;
	// a dropped basis is re-simulated on demand.
	SpillBudgetBytes int64
}

// Entry is one stored basis distribution.
type Entry struct {
	// Site identifies the VG call site (e.g. "CapacityModel#1").
	Site string
	// Key canonically encodes the argument tuple the samples were drawn
	// under.
	Key string
	// Samples is the Monte Carlo sample vector (one value per world).
	Samples []float64

	// onDisk marks an entry whose payload already lives in the spill tier
	// (promoted from it, or demoted while remaining resident): evicting it
	// needs no disk write, and its Samples may be a read-only mapped view.
	onDisk bool
	// gen names the entry's payload (see Lookup): assigned by Put, and
	// carried through the spill tier when the entry is demoted and
	// promoted again.
	gen uint64
}

// Per-entry bookkeeping the byte budget charges beyond the sample payload.
// An entry costs, in addition to its samples:
//
//   - the Entry struct and the list.Element holding it;
//   - the Site and Key strings themselves (their bytes live once, but are
//     referenced from both the Entry and the composite index key, which
//     stores its own copy of both — hence 2×);
//   - the composite index key's framing (string header + length digits and
//     separators) and the index map's per-entry bucket share.
//
// The constants are deliberately simple round numbers — this is cache
// accounting, not a heap profiler — but they are pinned by
// TestEntryBytesAccounting so drift is a conscious choice.
const (
	// mapEntryOverhead approximates the index map's per-entry cost: bucket
	// share, key string header, element pointer.
	mapEntryOverhead = 48
	// keyFrameOverhead covers the composite key's length prefix, separators
	// and allocator slack.
	keyFrameOverhead = 16
	// structOverhead is the Entry struct plus its list.Element.
	structOverhead = int64(unsafe.Sizeof(Entry{})) + int64(unsafe.Sizeof(list.Element{}))
)

func (e *Entry) bytes() int64 {
	return int64(len(e.Samples))*8 +
		2*int64(len(e.Site)+len(e.Key)) +
		keyFrameOverhead + mapEntryOverhead + structOverhead
}

// Store is a bounded, thread-safe basis-distribution store with LRU
// eviction and an optional out-of-core spill tier. The
// hit/miss/eviction/insertion counters are atomic so monitoring can read
// them without contending on the structural lock.
type Store struct {
	mu     sync.Mutex
	budget int64
	used   int64
	order  *list.List               // front = most recent
	index  map[string]*list.Element // composite key → element
	spill  *colstore.Tier           // nil without a spill tier
	gen    uint64                   // last generation assigned by Put
	// spilledGens remembers the generation of each entry that left RAM
	// with its payload in the spill tier, so its promotion restores it.
	spilledGens map[KeyRef]uint64

	hits     atomic.Int64
	misses   atomic.Int64
	evicted  atomic.Int64
	inserted atomic.Int64
	demoted  atomic.Int64
	promoted atomic.Int64
	// spillErrors counts demotions that failed to write; the entry is then
	// dropped like a plain eviction (a lost cache entry, never bad data).
	spillErrors atomic.Int64
	// demoteNanos/promoteNanos accumulate wall time spent writing spill
	// files on eviction and faulting them back on Get. Render tracing reads
	// SpillCounters around a stage and attributes the delta to synthetic
	// spill spans — no per-operation callback, no extra locking.
	demoteNanos  atomic.Int64
	promoteNanos atomic.Int64
}

// NewStore returns a RAM-only store with the given memory budget in bytes.
// A budget of <= 0 means unbounded.
func NewStore(budgetBytes int64) *Store {
	s, err := Open(Options{BudgetBytes: budgetBytes})
	if err != nil {
		// Unreachable: only the spill tier can fail to open.
		panic(err)
	}
	return s
}

// Open returns a store configured by opts, opening (or crash-safely
// reopening) the spill tier when opts.SpillDir is set. Bases already
// spilled under that directory are immediately addressable again.
func Open(opts Options) (*Store, error) {
	s := &Store{
		budget: opts.BudgetBytes,
		order:  list.New(),
		index:  make(map[string]*list.Element),
	}
	if opts.SpillDir != "" {
		s.spilledGens = make(map[KeyRef]uint64)
		tier, err := colstore.OpenTier(opts.SpillDir, opts.SpillBudgetBytes)
		if err != nil {
			return nil, err
		}
		s.spill = tier
	}
	return s, nil
}

// appendCompositeKey appends the unambiguous index encoding of (site, key)
// to dst: the site length in decimal, then the two strings. It replaces
// the earlier fmt.Sprintf on the hottest reuse-lookup path — built into a
// stack buffer and passed to map operations as string(b), Get and Lookup
// perform no allocation at all (the compiler elides the conversion for
// map lookups); only Put allocates the key it inserts.
func appendCompositeKey(dst []byte, site, key string) []byte {
	dst = strconv.AppendInt(dst, int64(len(site)), 10)
	dst = append(dst, ':')
	dst = append(dst, site...)
	dst = append(dst, '|')
	dst = append(dst, key...)
	return dst
}

// Put stores (or replaces) the samples for (site, key). The stored slice is
// copied so later caller mutations cannot corrupt the basis. A stale spill
// copy of the same key is invalidated (the new samples may be longer — a
// larger world count under the same arguments).
func (s *Store) Put(site, key string, samples []float64) {
	cp := append([]float64(nil), samples...)
	e := &Entry{Site: site, Key: key, Samples: cp}
	var buf [64]byte
	ck := string(appendCompositeKey(buf[:0], site, key))

	s.mu.Lock()
	defer s.mu.Unlock()
	s.gen++
	e.gen = s.gen
	if s.spill != nil {
		delete(s.spilledGens, KeyRef{Site: site, Key: key})
		if s.spill.Contains(site, key) {
			s.spill.Drop(site, key)
		}
	}
	if el, ok := s.index[ck]; ok {
		old := el.Value.(*Entry)
		s.used -= old.bytes()
		el.Value = e
		s.used += e.bytes()
		s.order.MoveToFront(el)
	} else {
		el := s.order.PushFront(e)
		s.index[ck] = el
		s.used += e.bytes()
		s.inserted.Add(1)
	}
	s.evictLocked()
}

// Get returns the samples for (site, key), marking the entry recently used.
// A RAM miss consults the spill tier: a spilled basis is returned as a
// zero-copy mapped view and promoted back into the RAM tier (flagged as
// on-disk, so its later eviction costs nothing). The returned slice is
// shared — and possibly a read-only mapping — so callers must not mutate
// it; mc's consumers never do.
func (s *Store) Get(site, key string) ([]float64, bool) {
	samples, _, ok := s.Lookup(site, key)
	return samples, ok
}

// Lookup is Get that also returns the entry's generation: a number, unique
// within the store, that names the entry's payload. Only Put assigns one.
// A basis demoted to the spill tier (or evicted after Sync wrote it there)
// keeps its generation, and its promotion restores it: the promoted samples
// are the bytes the demotion wrote, CRC-checked at first map. So two lookups
// that return the same generation returned the same samples. A replaced or
// dropped basis, one evicted with no spill copy, one whose spill file is
// gone (dropped for the spill budget or quarantined) and every basis of a
// reopened spill tier come back under a new generation. A miss returns
// generation 0.
func (s *Store) Lookup(site, key string) ([]float64, uint64, bool) {
	var buf [64]byte
	ck := appendCompositeKey(buf[:0], site, key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.index[string(ck)]; ok {
		s.hits.Add(1)
		s.order.MoveToFront(el)
		e := el.Value.(*Entry)
		return e.Samples, e.gen, true
	}
	if s.spill != nil {
		t0 := time.Now()
		samples, ok := s.spill.Get(site, key)
		s.promoteNanos.Add(time.Since(t0).Nanoseconds())
		ref := KeyRef{Site: site, Key: key}
		gen, kept := s.spilledGens[ref]
		delete(s.spilledGens, ref)
		if ok {
			if !kept {
				s.gen++
				gen = s.gen
			}
			e := &Entry{Site: site, Key: key, Samples: samples, onDisk: true, gen: gen}
			el := s.order.PushFront(e)
			s.index[string(appendCompositeKey(buf[:0], site, key))] = el
			s.used += e.bytes()
			s.promoted.Add(1)
			s.hits.Add(1)
			s.evictLocked()
			return samples, e.gen, true
		}
	}
	s.misses.Add(1)
	return nil, 0, false
}

func (s *Store) removeLocked(el *list.Element) {
	e := el.Value.(*Entry)
	s.order.Remove(el)
	var buf [64]byte
	delete(s.index, string(appendCompositeKey(buf[:0], e.Site, e.Key)))
	s.used -= e.bytes()
}

// evictLocked enforces the RAM budget. With a spill tier, a victim whose
// payload is not yet on disk is demoted (written as a column file) before
// leaving RAM; failures to write count as spillErrors and degrade to a
// plain eviction. Entries already on disk just vanish from RAM. A victim
// that leaves with its payload on disk leaves its generation behind for
// its promotion.
func (s *Store) evictLocked() {
	if s.budget <= 0 {
		return
	}
	for s.used > s.budget && s.order.Len() > 0 {
		el := s.order.Back()
		e := el.Value.(*Entry)
		if s.spill != nil && !e.onDisk {
			t0 := time.Now()
			err := s.spill.Put(e.Site, e.Key, e.Samples)
			s.demoteNanos.Add(time.Since(t0).Nanoseconds())
			if err != nil {
				s.spillErrors.Add(1)
			} else {
				s.demoted.Add(1)
				e.onDisk = true
			}
		}
		if e.onDisk {
			s.rememberGenLocked(e)
		}
		s.removeLocked(el)
		s.evicted.Add(1)
	}
}

// rememberGenLocked records the generation of e, whose payload is in the
// spill tier, for its promotion. Once the map holds more than twice the
// tier's entries, the generations of bases the tier has since dropped are
// pruned, so the map stays proportional to the tier.
func (s *Store) rememberGenLocked(e *Entry) {
	s.spilledGens[KeyRef{Site: e.Site, Key: e.Key}] = e.gen
	if len(s.spilledGens) > 2*s.spill.Len()+64 {
		for ref := range s.spilledGens {
			if !s.spill.Contains(ref.Site, ref.Key) {
				delete(s.spilledGens, ref)
			}
		}
	}
}

// Sync demotes every RAM-resident basis whose payload is not yet on disk
// to the spill tier, leaving the RAM tier intact (entries stay resident,
// flagged on-disk). After Sync, the spill tier's manifest addresses the
// complete basis set, which is what snapshot persistence serializes
// instead of the payloads. A no-op without a spill tier.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.spill == nil {
		return nil
	}
	var first error
	for el := s.order.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*Entry)
		if e.onDisk {
			continue
		}
		t0 := time.Now()
		err := s.spill.Put(e.Site, e.Key, e.Samples)
		s.demoteNanos.Add(time.Since(t0).Nanoseconds())
		if err != nil {
			s.spillErrors.Add(1)
			if first == nil {
				first = err
			}
			continue
		}
		s.demoted.Add(1)
		e.onDisk = true
	}
	return first
}

// HasSpill reports whether a spill tier is configured.
func (s *Store) HasSpill() bool { return s.spill != nil }

// SpillKeys returns the keys resident in the spill tier, most recently
// used first (nil without a tier). Combined with Sync, this is the
// manifest form of a snapshot: the payloads stay in their column files.
func (s *Store) SpillKeys() []KeyRef {
	if s.spill == nil {
		return nil
	}
	return s.spill.Keys()
}

// Close releases the spill tier's mappings and flushes its manifest. Views
// previously returned by Get become invalid; the RAM tier is untouched.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.spill == nil {
		return nil
	}
	return s.spill.Close()
}

// Stats is a snapshot of store counters.
type Stats struct {
	Entries   int
	UsedBytes int64
	Budget    int64
	Hits      int64
	Misses    int64
	Evicted   int64
	Inserted  int64

	// Spill-tier telemetry (zero without a spill tier). Demoted counts
	// evictions written out as column files; Promoted counts RAM misses
	// served by mapping a spilled basis back in; SpillErrors counts failed
	// demotions (degraded to plain evictions). SpillEntries/SpillBytes/
	// SpillBudget describe current disk occupancy, and Quarantined counts
	// files renamed aside after failing CRC or size verification.
	Demoted      int64
	Promoted     int64
	SpillErrors  int64
	SpillEntries int
	SpillBytes   int64
	SpillBudget  int64
	Quarantined  int64

	// Wall time spent demoting (writing spill files) and promoting
	// (mapping them back). Tracing reads these (SpillCounters) around a
	// render stage and reports the deltas as spill spans.
	DemoteNanos  int64
	PromoteNanos int64
}

// Stats returns a snapshot of the store counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	entries, used, budget := s.order.Len(), s.used, s.budget
	var ts colstore.TierStats
	if s.spill != nil {
		ts = s.spill.Stats()
	}
	s.mu.Unlock()
	return Stats{
		Entries:      entries,
		UsedBytes:    used,
		Budget:       budget,
		Hits:         s.hits.Load(),
		Misses:       s.misses.Load(),
		Evicted:      s.evicted.Load(),
		Inserted:     s.inserted.Load(),
		Demoted:      s.demoted.Load(),
		Promoted:     s.promoted.Load(),
		SpillErrors:  s.spillErrors.Load(),
		DemoteNanos:  s.demoteNanos.Load(),
		PromoteNanos: s.promoteNanos.Load(),
		SpillEntries: ts.Entries,
		SpillBytes:   ts.Bytes,
		SpillBudget:  ts.Budget,
		Quarantined:  ts.Quarantined,
	}
}

// SpillCounters is a store's cumulative spill-tier work: demotions and
// promotions, with the wall time spent on each.
type SpillCounters struct {
	Demoted, Promoted         int64
	DemoteNanos, PromoteNanos int64
}

// SpillCounters reads the four spill counters without the store lock. ok
// is false for a store without a spill tier, whose counters never change.
func (s *Store) SpillCounters() (c SpillCounters, ok bool) {
	if s.spill == nil {
		return SpillCounters{}, false
	}
	return SpillCounters{
		Demoted:      s.demoted.Load(),
		Promoted:     s.promoted.Load(),
		DemoteNanos:  s.demoteNanos.Load(),
		PromoteNanos: s.promoteNanos.Load(),
	}, true
}

// Snapshot returns a copy of every stored entry, most recently used first:
// RAM-resident entries in LRU order, then spilled-only entries (their
// payloads are materialized from the mapped files). Sample slices are
// copied; the snapshot is safe to serialize. Stores with a spill tier
// normally persist via Sync + SpillKeys instead — a manifest operation —
// and use Snapshot only for full exports.
func (s *Store) Snapshot() []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Entry, 0, s.order.Len())
	seen := make(map[string]bool, s.order.Len())
	var buf [64]byte
	for el := s.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*Entry)
		out = append(out, Entry{
			Site:    e.Site,
			Key:     e.Key,
			Samples: append([]float64(nil), e.Samples...),
		})
		seen[string(appendCompositeKey(buf[:0], e.Site, e.Key))] = true
	}
	if s.spill != nil {
		for _, kr := range s.spill.Keys() {
			if seen[string(appendCompositeKey(buf[:0], kr.Site, kr.Key))] {
				continue
			}
			if samples, ok := s.spill.Get(kr.Site, kr.Key); ok {
				out = append(out, Entry{
					Site:    kr.Site,
					Key:     kr.Key,
					Samples: append([]float64(nil), samples...),
				})
			}
		}
	}
	return out
}

// Restore inserts the snapshot's entries (least recently used first, so the
// snapshot's recency order is reproduced). Existing entries with the same
// keys are replaced; the budget applies as usual.
func (s *Store) Restore(entries []Entry) {
	for i := len(entries) - 1; i >= 0; i-- {
		s.Put(entries[i].Site, entries[i].Key, entries[i].Samples)
	}
}
