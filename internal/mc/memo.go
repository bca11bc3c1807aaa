package mc

// The point memo: the paper's fingerprint reuse lifted from site vectors to
// point aggregates. When every site of a point resolves to an exact store
// hit, the point's output is a pure function of the scenario's content, the
// point, the world count and the store entries just read — so the moments
// its caller reads can be kept and served again as long as each of those
// entries is still the very one they were computed from. Entries are
// validated by the store's generations (storage.Store.Lookup), never by
// comparing samples, so the memo holds no sample vectors. A generation
// names a payload, not a residency: a basis demoted to the spill tier and
// promoted back keeps it, so a revisit through the spill tier is still
// answered here. A point is
// recorded the second time it misses: a sweep that visits each point once
// (a first exploration of the parameter space) leaves one hash per point,
// not a whole entry.

import (
	"container/list"
	"hash/maphash"
	"maps"
	"slices"
	"strings"
	"sync"
	"unsafe"

	"fuzzyprophet/internal/aggregate"
	"fuzzyprophet/internal/core"
	"fuzzyprophet/internal/guide"
	"fuzzyprophet/internal/stats"
)

// memoKey addresses one memoised point.
type memoKey struct {
	scenario string // the scenario's content fingerprint
	point    string // core.PointKey of the point
	worlds   int
	reads    string // the caller's read columns, sorted, NUL-separated
}

// memoEntry is one memoised point: the store generation each site's
// vector was read at, and the moments of each read column (cols, sorted,
// and moments are parallel).
type memoEntry struct {
	key     memoKey
	hash    uint64
	gens    []uint64
	cols    []string
	moments []stats.Moments
}

// memoEntryOverhead approximates an entry's fixed cost: the entry struct,
// its list.Element and its share of the index map. The key's scenario and
// reads strings and the cols slice are shared between entries.
const memoEntryOverhead = int64(unsafe.Sizeof(memoEntry{})+unsafe.Sizeof(list.Element{})) + 24

func (e *memoEntry) bytes() int64 {
	return memoEntryOverhead + int64(len(e.key.point)) + 8*int64(len(e.gens)) +
		int64(len(e.moments))*int64(unsafe.Sizeof(stats.Moments{}))
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

// get returns fresh moments-only stats of the memoised point key, provided
// gens are the generations it was recorded under. An entry recorded under
// other generations can never be served again — generations are never
// reused — so it is dropped.
func (m *pointMemo) get(key memoKey, gens []uint64) (map[string]*aggregate.ColumnStats, bool) {
	h := maphash.Comparable(m.seed, key)
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.index[h]
	if !ok {
		return nil, false
	}
	e := el.Value.(*memoEntry)
	if e.key != key {
		return nil, false
	}
	if !slices.Equal(e.gens, gens) {
		m.removeLocked(el)
		return nil, false
	}
	m.order.MoveToFront(el)
	out := make(map[string]*aggregate.ColumnStats, len(e.cols))
	for i, col := range e.cols {
		out[col] = aggregate.MomentsOnly(e.moments[i])
	}
	return out, true
}

// missed reports that point key, after get missed, was evaluated to
// sketches from site vectors of generations gens. The first miss only
// remembers the key's hash; the next one records the moments of sketches,
// replacing any earlier record under the hash.
func (m *pointMemo) missed(key memoKey, gens []uint64, sketches map[string]*aggregate.ColumnStats) {
	h := maphash.Comparable(m.seed, key)
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
	e := &memoEntry{key: key, hash: h, gens: slices.Clone(gens), cols: cols, moments: moments}
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

// memoizable reports whether the point memo serves and records this
// evaluation: its caller declared Reads, it runs locally with a reuse
// engine, it is not sketch-only, and every site resolved to an exact store
// hit. A result that is degraded is never recorded (evaluateLocal skips
// the memo step for it).
func (ev *Evaluator) memoizable(outcome map[string]ReuseKind) bool {
	if ev.opts.Reuse == nil || ev.reads == nil || ev.opts.Runner != nil || ev.opts.SketchOnly {
		return false
	}
	for _, k := range outcome {
		if k != CachedExact {
			return false
		}
	}
	return true
}

// memoKeyFor returns pt's memo key.
func (ev *Evaluator) memoKeyFor(pt guide.Point) memoKey {
	return memoKey{scenario: ev.scn.Fingerprint(), point: core.PointKey(pt), worlds: ev.opts.Worlds, reads: ev.readsKey}
}
