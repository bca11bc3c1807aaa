package colstore

import (
	"container/list"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// manifestName is the key→file mapping at the root of a tier directory.
const manifestName = "MANIFEST.json"

// quarantineSuffix marks files that failed verification; they are renamed
// aside (never deleted) so an operator can inspect them.
const quarantineSuffix = ".quarantine"

// KeyRef names one basis by the Storage Manager's composite addressing
// scheme: the VG call site plus the canonical argument-tuple key.
type KeyRef struct {
	Site string `json:"site"`
	Key  string `json:"key"`
}

// manifestEntry is one column file's record in the manifest.
type manifestEntry struct {
	KeyRef
	// File is the column file's name within the tier directory.
	File string `json:"file"`
	// Bytes is the expected file size — a cheap truncation check at reopen,
	// ahead of the CRC verification at first map.
	Bytes int64 `json:"bytes"`
	// Length is the stored value count.
	Length int `json:"length"`
	// PayloadCRC is the payload CRC-32C of the file this tier wrote. The
	// first map checks it against the file's header, so a file that
	// another tier on the same directory swept as an orphan and then
	// reused the name of is never served as this entry. Zero in manifests
	// written before it was recorded: those entries skip the check.
	PayloadCRC uint32 `json:"payload_crc,omitempty"`
}

// manifest is the serialized form of a tier's key→file mapping.
type manifest struct {
	Version int             `json:"version"`
	Seq     uint64          `json:"seq"`
	Entries []manifestEntry `json:"entries"`
}

// tierEntry is the in-memory state of one spilled column.
type tierEntry struct {
	manifestEntry
	el *list.Element // position in the tier LRU
	m  *Mapped       // open mapping, nil until first Get
}

// TierStats is a snapshot of a tier's occupancy and lifecycle counters.
type TierStats struct {
	// Entries and Bytes describe current disk occupancy; Budget is the
	// configured bound (0 = unbounded).
	Entries int
	Bytes   int64
	Budget  int64
	// Hits/Misses count Get outcomes; Puts counts spills written; Evicted
	// counts files dropped by the disk budget; Quarantined counts files
	// renamed aside after failing verification; Errors counts write/map
	// failures that were absorbed (the tier is a cache — a failed spill
	// loses durability, never correctness).
	Hits        int64
	Misses      int64
	Puts        int64
	Evicted     int64
	Quarantined int64
	Errors      int64
	// PutNanos/GetNanos accumulate wall time spent inside Put and Get
	// (write+fsync+rename and map+verify respectively) so callers can
	// attribute spill-tier cost in render traces without per-call hooks.
	PutNanos int64
	GetNanos int64
}

// Tier is a directory of column files addressed by (site, key): the
// out-of-core half of the Storage Manager. All methods are safe for
// concurrent use. Zero-copy views returned by Get stay valid until Close —
// evicting or replacing an entry retires its mapping instead of unmapping
// it, so long-lived readers (plan kernels mid-render) never fault.
type Tier struct {
	dir    string
	budget int64

	mu      sync.Mutex
	entries map[string]*tierEntry // composite key → entry
	order   *list.List            // front = most recently used
	bytes   int64
	seq     uint64
	retired []*Mapped // mappings kept alive for outstanding views
	stats   TierStats
	closed  bool
}

// compositeKey mirrors the RAM store's unambiguous (site, key) encoding.
func compositeKey(site, key string) string {
	return strconv.Itoa(len(site)) + ":" + site + "|" + key
}

// OpenTier opens (or creates) a spill tier rooted at dir, bounded to
// budgetBytes of column files (<= 0 = unbounded). Reopen is crash-safe:
// manifest entries whose file is missing are dropped, entries whose file
// size disagrees with the manifest are quarantined, temp files from
// interrupted writes and orphan column files (written but never recorded)
// are removed. Payload CRCs are verified lazily, at first map.
func OpenTier(dir string, budgetBytes int64) (*Tier, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("colstore: spill dir: %w", err)
	}
	t := &Tier{
		dir:     dir,
		budget:  budgetBytes,
		entries: make(map[string]*tierEntry),
		order:   list.New(),
	}

	var man manifest
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	switch {
	case os.IsNotExist(err):
		// Fresh tier.
	case err != nil:
		return nil, fmt.Errorf("colstore: reading manifest: %w", err)
	default:
		if err := json.Unmarshal(data, &man); err != nil {
			// A torn manifest cannot happen through our temp+rename writes,
			// but defend anyway: start empty, treating every file as orphan.
			man = manifest{}
			t.stats.Errors++
		}
	}
	t.seq = man.Seq

	inManifest := make(map[string]bool, len(man.Entries))
	for _, me := range man.Entries {
		inManifest[me.File] = true
		path := filepath.Join(dir, me.File)
		fi, err := os.Stat(path)
		if err != nil {
			continue // spilled file lost; the basis will be re-simulated
		}
		if fi.Size() != me.Bytes {
			t.quarantineLocked(me.File)
			continue
		}
		e := &tierEntry{manifestEntry: me}
		e.el = t.order.PushBack(e) // manifest order is recency order
		t.entries[compositeKey(me.Site, me.Key)] = e
		t.bytes += me.Bytes
	}

	// Sweep temp files and orphan column files from interrupted writes.
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("colstore: scanning spill dir: %w", err)
	}
	for _, de := range names {
		name := de.Name()
		if name == manifestName || de.IsDir() || strings.HasSuffix(name, quarantineSuffix) {
			continue
		}
		if strings.Contains(name, ".tmp") || (strings.HasSuffix(name, ".col") && !inManifest[name]) {
			os.Remove(filepath.Join(dir, name))
		}
	}
	if err := t.saveManifestLocked(); err != nil {
		return nil, err
	}
	return t, nil
}

// saveManifestLocked writes the manifest atomically (temp + rename),
// recording entries in recency order so reopen reproduces the LRU.
func (t *Tier) saveManifestLocked() error {
	man := manifest{Version: 1, Seq: t.seq, Entries: make([]manifestEntry, 0, t.order.Len())}
	for el := t.order.Front(); el != nil; el = el.Next() {
		man.Entries = append(man.Entries, el.Value.(*tierEntry).manifestEntry)
	}
	data, err := json.Marshal(&man)
	if err != nil {
		return fmt.Errorf("colstore: encoding manifest: %w", err)
	}
	path := filepath.Join(t.dir, manifestName)
	tmp, err := os.CreateTemp(t.dir, manifestName+".tmp*")
	if err != nil {
		return fmt.Errorf("colstore: manifest temp file: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("colstore: writing manifest: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("colstore: closing manifest: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("colstore: renaming manifest: %w", err)
	}
	return nil
}

// quarantineLocked renames a failed file aside and counts it.
func (t *Tier) quarantineLocked(file string) {
	os.Rename(filepath.Join(t.dir, file), filepath.Join(t.dir, file+quarantineSuffix))
	t.stats.Quarantined++
}

// removeLocked drops an entry: the file is unlinked, an open mapping is
// retired (views stay valid until Close), and the byte count shrinks.
func (t *Tier) removeLocked(e *tierEntry, unlink bool) {
	t.order.Remove(e.el)
	delete(t.entries, compositeKey(e.Site, e.Key))
	t.bytes -= e.Bytes
	if e.m != nil {
		t.retired = append(t.retired, e.m)
		e.m = nil
	}
	if unlink {
		os.Remove(filepath.Join(t.dir, e.File))
	}
}

// Put spills one basis vector (a float64 column) under (site, key),
// replacing any previous spill of the same key. The write is crash-safe
// (temp + fsync + link, manifest updated after the file lands); over-
// budget entries are evicted least-recently-used.
//
// Put never replaces a column file it did not write: the temp file is
// published with a hard link, which fails on an existing name, and a taken
// name moves Put on to the next sequence number. So another tier sharing
// the directory (a retired cache still in use, or another process) may
// cost durability, but its files are never overwritten with another key's
// samples. A tier opened while this one is between publishing a file and
// saving its manifest sweeps that file as an orphan and may reuse its
// name; the entry's recorded payload CRC makes the first Get refuse such a
// file.
func (t *Tier) Put(site, key string, samples []float64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	start := time.Now()
	defer func() { t.stats.PutNanos += time.Since(start).Nanoseconds() }()
	if t.closed {
		return fmt.Errorf("colstore: tier is closed")
	}
	t.seq++
	file := fmt.Sprintf("b%08d.col", t.seq)
	tmp, crc, err := writeTemp(filepath.Join(t.dir, file), &Column{Kind: KindFloat64, Floats: samples})
	if err != nil {
		t.stats.Errors++
		return err
	}
	defer os.Remove(tmp)
	for {
		err = os.Link(tmp, filepath.Join(t.dir, file))
		if !os.IsExist(err) {
			break
		}
		t.seq++
		file = fmt.Sprintf("b%08d.col", t.seq)
	}
	if err != nil {
		t.stats.Errors++
		return fmt.Errorf("colstore: publishing %s: %w", file, err)
	}
	fi, err := os.Stat(tmp)
	if err != nil {
		t.stats.Errors++
		return err
	}

	ck := compositeKey(site, key)
	if old, ok := t.entries[ck]; ok {
		t.removeLocked(old, true)
	}
	e := &tierEntry{manifestEntry: manifestEntry{
		KeyRef:     KeyRef{Site: site, Key: key},
		File:       file,
		Bytes:      fi.Size(),
		Length:     len(samples),
		PayloadCRC: crc,
	}}
	e.el = t.order.PushFront(e)
	t.entries[ck] = e
	t.bytes += e.Bytes
	t.stats.Puts++

	if t.budget > 0 {
		for t.bytes > t.budget && t.order.Len() > 0 {
			t.removeLocked(t.order.Back().Value.(*tierEntry), true)
			t.stats.Evicted++
		}
	}
	return t.saveManifestLocked()
}

// Get returns the spilled basis for (site, key) as a zero-copy view of the
// mapped file (little-endian hosts; a verified copy elsewhere). The first
// Get of an entry maps and CRC-verifies its file, and checks the payload
// CRC against the one Put recorded; either failure quarantines the file and
// reports a miss, so a corrupt or foreign spill degrades to re-simulation,
// never to garbage or another key's samples. The view is read-only and valid
// until Close.
func (t *Tier) Get(site, key string) ([]float64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	start := time.Now()
	defer func() { t.stats.GetNanos += time.Since(start).Nanoseconds() }()
	e, ok := t.entries[compositeKey(site, key)]
	if !ok || t.closed {
		t.stats.Misses++
		return nil, false
	}
	if e.m == nil {
		m, err := OpenMapped(filepath.Join(t.dir, e.File))
		if err != nil {
			t.quarantineLocked(e.File)
			t.removeLocked(e, false)
			t.saveManifestLocked()
			t.stats.Misses++
			return nil, false
		}
		if m.Kind() != KindFloat64 || (e.PayloadCRC != 0 && m.h.payloadCRC != e.PayloadCRC) {
			m.Close()
			t.quarantineLocked(e.File)
			t.removeLocked(e, false)
			t.saveManifestLocked()
			t.stats.Misses++
			return nil, false
		}
		e.m = m
	}
	fs, err := e.m.Float64s()
	if err != nil {
		t.stats.Misses++
		return nil, false
	}
	t.order.MoveToFront(e.el)
	t.stats.Hits++
	return fs, true
}

// Contains reports whether (site, key) is spilled, without mapping it or
// touching LRU order.
func (t *Tier) Contains(site, key string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, ok := t.entries[compositeKey(site, key)]
	return ok && !t.closed
}

// Drop removes (site, key)'s spill file if present.
func (t *Tier) Drop(site, key string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.entries[compositeKey(site, key)]; ok {
		t.removeLocked(e, true)
		t.saveManifestLocked()
	}
}

// Keys returns every spilled (site, key), most recently used first.
func (t *Tier) Keys() []KeyRef {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]KeyRef, 0, t.order.Len())
	for el := t.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*tierEntry).KeyRef)
	}
	return out
}

// Len returns the number of spilled entries.
func (t *Tier) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.order.Len()
}

// Stats returns a snapshot of the tier counters.
func (t *Tier) Stats() TierStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.stats
	st.Entries = t.order.Len()
	st.Bytes = t.bytes
	st.Budget = t.budget
	return st
}

// Close releases every mapping (live and retired) and flushes the
// manifest. Views handed out by Get become invalid.
func (t *Tier) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	t.closed = true
	var first error
	for el := t.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*tierEntry)
		if e.m != nil {
			if err := e.m.Close(); err != nil && first == nil {
				first = err
			}
			e.m = nil
		}
	}
	for _, m := range t.retired {
		if err := m.Close(); err != nil && first == nil {
			first = err
		}
	}
	t.retired = nil
	if err := t.saveManifestLocked(); err != nil && first == nil {
		first = err
	}
	return first
}
