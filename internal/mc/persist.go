package mc

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"fuzzyprophet/internal/core"
	"fuzzyprophet/internal/storage"
)

// Persistence for the reuse state. The paper notes models live in the
// database so "she can update all Fuzzy Prophet instances using the model";
// the reuse engine's basis distributions and fingerprints are similarly
// shareable state: because every sample is deterministic in (seed base,
// site, world), a saved snapshot stays valid across processes as long as
// the scenario, models and seed base are unchanged.
//
// The snapshot embeds the fingerprint configuration and the bound seed
// base; loading validates both, refusing to mix incompatible state.

// snapshotVersion guards the gob layout; a stream stamped with any other
// version is rejected and its owner starts from a cold cache. A version-2
// stream of a spill-mode engine carries no bases: the spill tier's
// MANIFEST.json is the one record of them. Streams from builds that also
// listed the spilled keys (a SpillKeys field) still load — gob skips
// fields the destination lacks — so the version stays 2.
const snapshotVersion = 2

type reuseSnapshot struct {
	Version  int
	Config   core.Config
	SeedBase uint64
	Bound    bool
	Bases    []storage.Entry
	Index    []core.IndexEntry
}

// Save serializes the reuse engine's basis store and fingerprint index.
// Counters are not persisted (they describe a run, not the state).
//
// With a spill tier configured, Save is a manifest operation: every
// RAM-resident basis is first demoted to its column file (Store.Sync), and
// the snapshot records only the configuration, seed base and fingerprint
// index — the tier's MANIFEST.json addresses the bases, and no sample
// payloads cross the encoder. Such a snapshot is bound to its spill
// directory; load it with the same SpillDir, or the bases degrade to
// on-demand re-simulation (the fingerprint index still loads, so
// re-mapping resumes as bases are recomputed). RAM-only stores snapshot
// full payloads.
//
// The engine lock is held for the duration, and evaluators install each
// computed basis and its fingerprint under that same lock (Reuse.install),
// so the captured store and index are mutually consistent: the snapshot
// never contains an index entry whose basis it lacks. Renders sharing the
// engine block on their install step until the snapshot is written; keep
// snapshots off the render hot path (a periodic ticker, not per-request).
func (r *Reuse) Save(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := reuseSnapshot{
		Version:  snapshotVersion,
		Config:   r.cfg,
		SeedBase: r.seedBase,
		Bound:    r.seedBound,
		Index:    r.index.Export(),
	}
	if r.store.HasSpill() {
		if err := r.store.Sync(); err != nil {
			return fmt.Errorf("mc: syncing basis store to spill tier: %w", err)
		}
	} else {
		snap.Bases = r.store.Snapshot()
	}
	if err := gob.NewEncoder(w).Encode(&snap); err != nil {
		return fmt.Errorf("mc: saving reuse state: %w", err)
	}
	return nil
}

// SaveSnapshot writes the reuse state to path atomically: the snapshot is
// encoded to a temporary file in the same directory and renamed into
// place, so a reader (or a crash mid-write) never observes a torn file.
// Like Save, it holds the engine lock for the duration.
func (r *Reuse) SaveSnapshot(path string) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("mc: snapshot dir: %w", err)
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("mc: snapshot temp file: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := r.Save(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("mc: snapshot temp file: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("mc: snapshot rename: %w", err)
	}
	return nil
}

// LoadSnapshot reads a snapshot file written by SaveSnapshot, returning a
// fresh reuse engine whose basis store is configured by storeOpts. A
// manifest-mode snapshot (saved with a spill tier) needs storeOpts.SpillDir
// pointing at the same directory to re-address its bases.
func LoadSnapshot(path string, storeOpts storage.Options) (*Reuse, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("mc: opening reuse snapshot: %w", err)
	}
	defer f.Close()
	return LoadReuse(f, storeOpts)
}

// LoadReuse reads a snapshot previously written by Save, returning a reuse
// engine whose basis store is configured by storeOpts. The snapshot's
// fingerprint configuration is restored verbatim. A stream stamped with
// another snapshotVersion is an error. Manifest-mode bases not found in the
// reopened spill tier — wrong or missing SpillDir, or files quarantined
// after corruption — degrade to on-demand re-simulation rather than failing
// the load.
func LoadReuse(rd io.Reader, storeOpts storage.Options) (*Reuse, error) {
	var snap reuseSnapshot
	if err := gob.NewDecoder(rd).Decode(&snap); err != nil {
		return nil, fmt.Errorf("mc: loading reuse state: %w", err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("mc: reuse snapshot version %d not supported (want %d)", snap.Version, snapshotVersion)
	}
	r, err := NewReuse(snap.Config, storeOpts)
	if err != nil {
		return nil, err
	}
	r.seedBase = snap.SeedBase
	r.seedBound = snap.Bound
	r.store.Restore(snap.Bases)
	if err := r.index.Import(snap.Index); err != nil {
		return nil, err
	}
	return r, nil
}

// bindSeedBase pins the reuse state to one world-seed base. All evaluators
// sharing a reuse engine must agree on it — basis samples drawn under a
// different base would be silently wrong.
func (r *Reuse) bindSeedBase(base uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.seedBound {
		r.seedBase = base
		r.seedBound = true
		return nil
	}
	if r.seedBase != base {
		return fmt.Errorf("mc: reuse state is bound to seed base %d; evaluator uses %d (shared reuse requires a single seed base)",
			r.seedBase, base)
	}
	return nil
}
