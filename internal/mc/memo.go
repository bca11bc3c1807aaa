package mc

// The point memo: the paper's fingerprint reuse lifted from site vectors to
// point aggregates. When every site of a point resolves to an exact store
// hit, the point's output is a pure function of the scenario's content, the
// point, the world count and the store entries just read — so the moments
// its caller reads can be kept and served again as long as each of those
// entries is still the very one they were computed from. Entries are
// validated by the store's generations (storage.Store.Gens), never by
// comparing samples, so the memo holds no sample vectors and its check
// reads no payload. A generation names a payload, not a residency: a basis
// demoted to the spill tier keeps it, so a revisit through the spill tier
// is still answered here, without promoting the basis. An entry also keeps each site's store key, so a batch's
// memoised points are answered in one pass (memoPass) that evaluates no
// site argument. A point is recorded the second time it misses: a sweep
// that visits each point once (a first exploration of the parameter space)
// leaves one hash per point, not a whole entry.

import (
	"container/list"
	"context"
	"encoding/binary"
	"hash/maphash"
	"maps"
	"slices"
	"strings"
	"sync"
	"unsafe"

	"fuzzyprophet/internal/aggregate"
	"fuzzyprophet/internal/core"
	"fuzzyprophet/internal/guide"
	"fuzzyprophet/internal/obs"
	"fuzzyprophet/internal/stats"
	"fuzzyprophet/internal/storage"
)

// memoKey addresses one memoised point.
type memoKey struct {
	scenario string // the scenario's content fingerprint
	point    string // core.PointKey of the point
	worlds   int
	reads    string // the caller's read columns, sorted, NUL-separated
}

// memoEntry is one memoised point: each site's store key and the store
// generation its vector was read at (keys and gens are parallel, in site
// order), and the moments of each read column (cols, sorted, and moments
// are parallel).
type memoEntry struct {
	key     memoKey
	hash    uint64
	keys    []string
	gens    []uint64
	cols    []string
	moments []stats.Moments
}

// memoEntryOverhead approximates an entry's fixed cost: the entry struct,
// its list.Element and its share of the index map. The key's scenario and
// reads strings and the cols slice are shared between entries.
const memoEntryOverhead = int64(unsafe.Sizeof(memoEntry{})+unsafe.Sizeof(list.Element{})) + 24

func (e *memoEntry) bytes() int64 {
	n := memoEntryOverhead + int64(len(e.key.point)) + 8*int64(len(e.gens)) +
		int64(len(e.moments))*int64(unsafe.Sizeof(stats.Moments{}))
	for _, k := range e.keys {
		n += int64(unsafe.Sizeof(k)) + int64(len(k))
	}
	return n
}

// seenBytes approximates what one missed-once hash costs in its map.
const seenBytes = 16

// pointMemo is an LRU map of memoised points, indexed by a hash of their
// keys and verified against the full key. Safe for concurrent use.
type pointMemo struct {
	mu    sync.Mutex
	seed  maphash.Seed
	used  int64
	order *list.List // front = most recent
	index map[uint64]*list.Element
	// seen holds the hashes of the points that missed once since they were
	// last recorded.
	seen map[uint64]struct{}
	// cols is the column list of the last recorded entry, which the next
	// entry shares when it names the same columns.
	cols []string
}

func newPointMemo() *pointMemo {
	return &pointMemo{
		seed:  maphash.MakeSeed(),
		order: list.New(),
		index: make(map[uint64]*list.Element),
		seen:  make(map[uint64]struct{}),
	}
}

// hash returns the index hash of the memo key (scenario, point, worlds,
// reads), point being the bytes of its core.PointKey.
func (m *pointMemo) hash(scenario string, point []byte, worlds int, reads string) uint64 {
	var h maphash.Hash
	h.SetSeed(m.seed)
	h.WriteString(scenario)
	h.WriteByte(0)
	h.Write(point)
	h.WriteByte(0)
	h.WriteString(reads)
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], uint64(worlds))
	h.Write(w[:])
	return h.Sum64()
}

// find looks up every point of b under one acquisition of the memo lock,
// setting b.entries[p] to point p's entry or nil. Each entry found becomes
// the most recently used, in point order.
func (m *pointMemo) find(b *memoBatch) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for p, h := range b.hashes {
		b.entries[p] = nil
		el, ok := m.index[h]
		if !ok {
			continue
		}
		e := el.Value.(*memoEntry)
		k := &e.key
		if k.point != string(b.point(p)) || k.scenario != b.scenario || k.worlds != b.worlds || k.reads != b.reads {
			continue
		}
		m.order.MoveToFront(el)
		b.entries[p] = e
	}
}

// drop removes entries whose sites no longer hold the generations they were
// recorded under. Generations are never reused, so such an entry can never
// be served again.
func (m *pointMemo) drop(stale []*memoEntry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range stale {
		if el, ok := m.index[e.hash]; ok && el.Value.(*memoEntry) == e {
			m.removeLocked(el)
		}
	}
}

// missed reports that the point of memo key key and index hash h, after
// its batch's memo pass found no entry to serve it, was evaluated to
// sketches from site vectors of store keys keys and generations gens. The
// first miss only remembers the hash; the next one records the moments of
// sketches, replacing any earlier record under the hash.
func (m *pointMemo) missed(h uint64, key memoKey, keys []string, gens []uint64, sketches map[string]*aggregate.ColumnStats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, again := m.seen[h]; !again {
		m.seen[h] = struct{}{}
		m.used += seenBytes
		return
	}
	delete(m.seen, h)
	m.used -= seenBytes

	cols := slices.Sorted(maps.Keys(sketches))
	if slices.Equal(cols, m.cols) {
		cols = m.cols
	}
	m.cols = cols
	moments := make([]stats.Moments, len(cols))
	for i, col := range cols {
		moments[i] = sketches[col].Moments
	}
	if el, ok := m.index[h]; ok {
		m.removeLocked(el)
	}
	e := &memoEntry{key: key, hash: h, keys: slices.Clone(keys), gens: slices.Clone(gens), cols: cols, moments: moments}
	m.index[h] = m.order.PushFront(e)
	m.used += e.bytes()
}

// trim brings the memo down to at most limit bytes: it forgets the
// missed-once hashes first, then evicts least recently used entries.
func (m *pointMemo) trim(limit int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.used > limit {
		m.used -= seenBytes * int64(len(m.seen))
		m.seen = make(map[uint64]struct{})
	}
	for m.used > limit && m.order.Len() > 0 {
		m.removeLocked(m.order.Back())
	}
}

// size returns the memo's accounted bytes.
func (m *pointMemo) size() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.used
}

func (m *pointMemo) removeLocked(el *list.Element) {
	e := el.Value.(*memoEntry)
	m.order.Remove(el)
	delete(m.index, e.hash)
	m.used -= e.bytes()
}

// boundMemo evicts memo entries, least recently used first, until the memo
// is no larger than the bytes of the bases it can vouch for — those resident
// in RAM plus those in the spill tier (a spilled basis keeps its
// generation). That bound keeps it from needing a budget of its own.
func (r *Reuse) boundMemo() {
	if r.memo.size() > 0 {
		st := r.store.Stats()
		r.memo.trim(st.UsedBytes + st.SpillBytes)
	}
}

// readsKey is the canonical form of a read-column set.
func readsKey(reads map[string]bool) string {
	return strings.Join(slices.Sorted(maps.Keys(reads)), "\x00")
}

// memoOn reports whether the point memo serves and records this
// evaluator's points: its caller declared Reads, and it runs locally with a
// reuse engine, not sketch-only.
func (ev *Evaluator) memoOn() bool {
	return ev.opts.Reuse != nil && ev.reads != nil && ev.opts.Runner == nil && !ev.opts.SketchOnly
}

// memoizable reports whether a point the memo pass did not serve is
// recorded: the memo is on, and every site resolved to an exact store hit.
// A result that is degraded is never recorded (evaluateLocal skips the
// memo step for it).
func (ev *Evaluator) memoizable(outcome map[string]ReuseKind) bool {
	if !ev.memoOn() {
		return false
	}
	for _, k := range outcome {
		if k != CachedExact {
			return false
		}
	}
	return true
}

// memoBatch is the point memo's work on one EvaluatePoints call, in buffers
// the evaluator keeps from batch to batch.
type memoBatch struct {
	// scenario, worlds and reads are the batch's memo key, but the point.
	scenario string
	worlds   int
	reads    string

	names   []string         // the sorted parameter names of the points keyed last
	keys    []byte           // every point's core.PointKey, back to back
	ends    []int            // point p's key ends at keys[ends[p]]
	hashes  []uint64         // point p's index hash
	entries []*memoEntry     // point p's entry the pass serves, or nil
	refs    []storage.KeyRef // the sites of the entries found, entry after entry
	gens    []uint64         // the generation each of refs holds now
}

// point returns point p's core.PointKey, as bytes of b.keys.
func (b *memoBatch) point(p int) []byte {
	lo := 0
	if p > 0 {
		lo = b.ends[p-1]
	}
	return b.keys[lo:b.ends[p]]
}

// key returns point p's memo key.
func (b *memoBatch) key(p int) memoKey {
	return memoKey{scenario: b.scenario, point: string(b.point(p)), worlds: b.worlds, reads: b.reads}
}

// sameNames reports whether pt's parameter names are exactly names: a
// sweep's points share one name set, so a batch sorts its names once.
func sameNames(names []string, pt guide.Point) bool {
	if len(names) != len(pt) {
		return false
	}
	for _, n := range names {
		if _, ok := pt[n]; !ok {
			return false
		}
	}
	return true
}

// resize returns s with length n, reusing its storage when it is large
// enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// memoPass answers, before any other point of the batch runs, every point
// of pts whose memo entry's generations are those its sites' store entries
// still have, setting out[p] for each. Every point's key is built in one
// buffer and the entries are found under one memo lock; the generations of
// every entry's sites are read under one store lock (storage.Store.Gens,
// which reads no payload); the cached sites are counted under one engine
// lock, and the results are carved from slabs. A point with no entry, or
// whose entry is stale, is left to the per-point pipeline; a stale entry
// is dropped.
func (ev *Evaluator) memoPass(ctx context.Context, pts []guide.Point, out []*PointResult) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	r, b := ev.opts.Reuse, &ev.batch
	b.scenario, b.worlds, b.reads = ev.scn.Fingerprint(), ev.opts.Worlds, ev.readsKey
	b.keys = b.keys[:0]
	b.ends = slices.Grow(b.ends[:0], len(pts))
	b.hashes = slices.Grow(b.hashes[:0], len(pts))
	for _, pt := range pts {
		lo := len(b.keys)
		if !sameNames(b.names, pt) {
			b.names = core.SortedNames(b.names, pt)
		}
		b.keys = core.AppendPointKey(b.keys, b.names, pt)
		b.ends = append(b.ends, len(b.keys))
		b.hashes = append(b.hashes, r.memo.hash(b.scenario, b.keys[lo:], b.worlds, b.reads))
	}
	b.entries = resize(b.entries, len(pts))
	r.memo.find(b)

	sites := ev.scn.Sites
	held := 0
	for _, e := range b.entries {
		if e != nil {
			held++
		}
	}
	if held == 0 {
		return nil
	}
	b.refs = slices.Grow(b.refs[:0], held*len(sites))
	for _, e := range b.entries {
		if e == nil {
			continue
		}
		for si, k := range e.keys {
			b.refs = append(b.refs, storage.KeyRef{Site: sites[si].ID, Key: k})
		}
	}
	if len(sites) > 0 {
		if err := r.bindSeedBase(ev.opts.SeedBase); err != nil {
			return err
		}
	}
	b.gens = resize(b.gens, len(b.refs))
	r.store.Gens(b.refs, b.gens)

	var stale []*memoEntry
	hits, cols, at := 0, 0, 0
	for p, e := range b.entries {
		if e == nil {
			continue
		}
		now := b.gens[at : at+len(sites)]
		at += len(sites)
		if !slices.Equal(now, e.gens) {
			stale = append(stale, e)
			b.entries[p] = nil
			continue
		}
		hits++
		cols += len(e.cols)
	}
	if len(stale) > 0 {
		r.memo.drop(stale)
	}
	if hits == 0 {
		return nil
	}
	r.recordN(CachedExact, hits*len(sites))
	results := make([]PointResult, hits)
	slab := make([]aggregate.ColumnStats, cols)
	outcome := make(map[string]ReuseKind, len(sites))
	for si := range sites {
		outcome[sites[si].ID] = CachedExact
	}
	for p, e := range b.entries {
		if e == nil {
			continue
		}
		res := &results[0]
		results = results[1:]
		res.Point, res.Worlds, res.SiteOutcome = pts[p], ev.opts.Worlds, outcome
		res.Sketches = make(map[string]*aggregate.ColumnStats, len(e.cols))
		for i, col := range e.cols {
			cs := &slab[0]
			slab = slab[1:]
			*cs = *aggregate.MomentsOnly(e.moments[i])
			res.Sketches[col] = cs
		}
		out[p] = res
	}
	return nil
}

// traceHit records a memo hit's spans under parent, the shape its
// per-point evaluation had: a point span marked memo_hit over a simulate
// span that counts the cached sites.
func (ev *Evaluator) traceHit(parent *obs.Span) {
	if parent == nil {
		return
	}
	psp := ev.pointSpan(parent)
	ssp := psp.Child("simulate")
	n := int64(len(ev.scn.Sites))
	ssp.SetInt("sites", n)
	if n > 0 {
		ssp.SetInt(outcomeKeys[CachedExact], n)
	}
	ssp.End()
	psp.SetInt("memo_hit", 1)
	psp.End()
}
