package server

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	fp "fuzzyprophet"
)

// ScenarioEntry is one registered compiled scenario together with the
// shared reuse cache all of its sessions and batch evaluations draw from.
// An entry is immutable after registration; re-registering the same ID
// installs a NEW entry while in-flight sessions keep (and ref-count) the
// old one, so a re-deploying planner never breaks a colleague mid-render.
type ScenarioEntry struct {
	// ID is the registry key clients address the scenario by.
	ID string
	// Fingerprint is the scenario's content identity (Scenario.Fingerprint),
	// the key snapshot warm-starts are looked up under.
	Fingerprint string
	// Scenario is the compiled scenario (safe for concurrent use).
	Scenario *fp.Scenario
	// Cache is the reuse engine shared by every consumer of this entry.
	Cache *fp.ReuseCache
	// Warm records whether Cache started with prior state: restored from
	// a disk snapshot, or carried over live from a previous registration
	// of identical content.
	Warm bool
	// Source is the scenario script exactly as registered and Tables its
	// side tables; the shard coordinator ships both to workers, which
	// recompile an identical scenario (verified by fingerprint).
	Source string
	Tables []tableDef
	// Generation increments each time the ID is re-registered.
	Generation int
	// CreatedAt is the registration time.
	CreatedAt time.Time

	// refs counts pins: one held by the registry while the entry is
	// current, plus one per open session. onZero fires when the count
	// drains — for retired entries, that is the moment the last session
	// let go.
	refs   atomic.Int64
	onZero func()
}

// acquire pins the entry. Callers must pair it with release.
func (e *ScenarioEntry) acquire() { e.refs.Add(1) }

// release unpins the entry, firing onZero on the last release.
func (e *ScenarioEntry) release() {
	if e.refs.Add(-1) == 0 && e.onZero != nil {
		e.onZero()
	}
}

// Refs returns the current pin count (monitoring only).
func (e *ScenarioEntry) Refs() int64 { return e.refs.Load() }

// Registry is the concurrent scenario registry: ID → current entry, with
// ref-counting so replaced entries survive as long as sessions use them.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*ScenarioEntry

	registered  atomic.Int64 // total successful registrations
	retiredLive atomic.Int64 // replaced entries still pinned by sessions
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*ScenarioEntry)}
}

// Register installs entry under entry.ID, retiring any current entry with
// that ID. It reports whether an entry was replaced. The registry holds
// one ref on the current entry; the retired entry's registry ref is
// dropped, so it lives exactly as long as its remaining sessions.
func (r *Registry) Register(entry *ScenarioEntry) (replaced bool) {
	r.mu.Lock()
	old := r.entries[entry.ID]
	if old != nil {
		entry.Generation = old.Generation + 1
	}
	entry.acquire() // the registry's ref
	r.entries[entry.ID] = entry
	r.mu.Unlock()

	r.registered.Add(1)
	if old != nil {
		r.retiredLive.Add(1)
		old.onZero = func() { r.retiredLive.Add(-1) }
		old.release() // drop the registry's ref; sessions may still pin it
		return true
	}
	return false
}

// Acquire returns the current entry for id with one ref taken, or false.
// The caller must release() the entry when done with it.
func (r *Registry) Acquire(id string) (*ScenarioEntry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[id]
	if !ok {
		return nil, false
	}
	e.acquire()
	return e, true
}

// Get returns the current entry for id without taking a ref — for
// read-only introspection within one request.
func (r *Registry) Get(id string) (*ScenarioEntry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[id]
	return e, ok
}

// ByFingerprint returns a current entry registered with the given content
// fingerprint, under any id, without taking a ref.
func (r *Registry) ByFingerprint(fingerprint string) (*ScenarioEntry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.entries {
		if e.Fingerprint == fingerprint {
			return e, true
		}
	}
	return nil, false
}

// Remove unregisters id, dropping the registry's ref. Sessions holding the
// entry keep working; it reports whether the id was registered.
func (r *Registry) Remove(id string) bool {
	r.mu.Lock()
	e, ok := r.entries[id]
	if ok {
		delete(r.entries, id)
	}
	r.mu.Unlock()
	if !ok {
		return false
	}
	r.retiredLive.Add(1)
	e.onZero = func() { r.retiredLive.Add(-1) }
	e.release()
	return true
}

// List returns the current entries sorted by ID.
func (r *Registry) List() []*ScenarioEntry {
	r.mu.Lock()
	out := make([]*ScenarioEntry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Len returns the number of currently registered scenarios.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// Registered returns the total number of registrations ever made.
func (r *Registry) Registered() int64 { return r.registered.Load() }

// RetiredLive returns how many replaced/removed entries are still pinned
// by open sessions.
func (r *Registry) RetiredLive() int64 { return r.retiredLive.Load() }
