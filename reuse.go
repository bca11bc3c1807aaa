package fuzzyprophet

import (
	"time"

	"fuzzyprophet/internal/mc"
	"fuzzyprophet/internal/storage"
)

// ReuseCache is a standalone fingerprint-reuse engine that can be shared
// across sessions and batch evaluations of the same scenario — the paper's
// Storage Manager lifted to a multi-tenant setting. Every consumer passing
// the cache via WithReuseCache draws from (and contributes to) one basis-
// distribution store and one fingerprint index, so a slider position one
// user explored renders instantly for every other user.
//
// A ReuseCache is safe for concurrent use. All consumers must agree on the
// seed base: the first evaluation binds it, and a consumer configured with
// a different WithSeedBase is rejected on first use.
type ReuseCache struct {
	reuse *mc.Reuse
}

// NewReuseCache creates an empty shared reuse engine. The relevant options
// are WithFingerprintLength, WithAffineTol, WithStoreBudget, WithSpillDir
// and WithSpillBudget; others are ignored. With a spill dir, bases evicted
// from the RAM budget are demoted to memory-mapped column files and
// faulted back on demand — close the cache with Close when done so the
// spill manifest is flushed.
func NewReuseCache(opts ...EvalOption) (*ReuseCache, error) {
	cfg := newEvalConfig(opts)
	reuse, err := mc.NewReuse(cfg.fingerprint(), cfg.storeOptions())
	if err != nil {
		return nil, err
	}
	return &ReuseCache{reuse: reuse}, nil
}

// Close releases the cache's spill tier, if any: live file mappings are
// unmapped and the manifest is flushed. Call it only after in-flight
// renders finish. A no-op for RAM-only caches.
func (c *ReuseCache) Close() error {
	return c.reuse.Close()
}

// SaveFile atomically writes the cache (basis distributions plus
// fingerprint index) to path (temp file + rename), for a later
// LoadReuseCacheFile, possibly in another process. Concurrent renders are
// locked out for the duration, so the snapshot is consistent.
func (c *ReuseCache) SaveFile(path string) error {
	return c.reuse.SaveSnapshot(path)
}

// LoadReuseCacheFile reads a snapshot previously written by SaveFile, so a
// new process warm-starts with the basis distributions and fingerprints of
// an old one; pass the cache to OpenSession or Evaluate with
// WithReuseCache. WithStoreBudget bounds the restored store; the snapshot's
// fingerprint configuration is restored verbatim. The scenario, models and
// seed base must match the saving process's; a seed-base mismatch is
// detected and reported on first use. A snapshot saved by a spill-enabled
// cache is a manifest (keys only): load it with WithSpillDir pointing at
// the same directory, or its bases degrade to on-demand re-simulation.
func LoadReuseCacheFile(path string, opts ...EvalOption) (*ReuseCache, error) {
	cfg := newEvalConfig(opts)
	reuse, err := mc.LoadSnapshot(path, cfg.storeOptions())
	if err != nil {
		return nil, err
	}
	return &ReuseCache{reuse: reuse}, nil
}

// Counts returns per-outcome site counts ("computed", "cached", "identity",
// "affine") accumulated across every consumer of the cache.
func (c *ReuseCache) Counts() map[string]int {
	out := map[string]int{}
	for k, v := range c.reuse.Counts() {
		out[k.String()] = v
	}
	return out
}

// StoreStats is a snapshot of a basis-distribution store's counters — the
// occupancy and hit/miss/eviction telemetry a metrics endpoint reports.
type StoreStats struct {
	// Entries and UsedBytes describe current occupancy; Budget is the
	// configured bound (0 = unbounded).
	Entries   int   `json:"entries"`
	UsedBytes int64 `json:"used_bytes"`
	Budget    int64 `json:"budget_bytes,omitempty"`
	// Hits/Misses count exact (site, args) lookups; Evicted and Inserted
	// count entry lifecycle events.
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	Evicted  int64 `json:"evicted"`
	Inserted int64 `json:"inserted"`
	// Spill-tier telemetry (all zero without WithSpillDir): Demoted counts
	// evictions written out-of-core, Promoted counts bases faulted back as
	// mapped views, SpillErrors counts failed demotions (degraded to plain
	// evictions). SpillEntries/SpillBytes describe disk occupancy under
	// SpillBudget, and Quarantined counts files set aside after failing
	// CRC or size verification.
	Demoted      int64 `json:"demoted,omitempty"`
	Promoted     int64 `json:"promoted,omitempty"`
	SpillErrors  int64 `json:"spill_errors,omitempty"`
	SpillEntries int   `json:"spill_entries,omitempty"`
	SpillBytes   int64 `json:"spill_bytes,omitempty"`
	SpillBudget  int64 `json:"spill_budget_bytes,omitempty"`
	Quarantined  int64 `json:"quarantined,omitempty"`
}

func convertStoreStats(st storage.Stats) StoreStats {
	return StoreStats{
		Entries:      st.Entries,
		UsedBytes:    st.UsedBytes,
		Budget:       st.Budget,
		Hits:         st.Hits,
		Misses:       st.Misses,
		Evicted:      st.Evicted,
		Inserted:     st.Inserted,
		Demoted:      st.Demoted,
		Promoted:     st.Promoted,
		SpillErrors:  st.SpillErrors,
		SpillEntries: st.SpillEntries,
		SpillBytes:   st.SpillBytes,
		SpillBudget:  st.SpillBudget,
		Quarantined:  st.Quarantined,
	}
}

// StoreStats returns the cache's basis-store counters.
func (c *ReuseCache) StoreStats() StoreStats {
	return convertStoreStats(c.reuse.StoreStats())
}

// StoreStats returns the basis-store counters of the session's reuse
// engine (shared or private). A session with reuse disabled reports zeros.
func (s *Session) StoreStats() StoreStats {
	if s.reuse == nil {
		return StoreStats{}
	}
	return convertStoreStats(s.reuse.StoreStats())
}

// SessionStats are cumulative per-session counters: renders served, their
// summed wall-clock cost, X positions evaluated, and prefetched points.
type SessionStats struct {
	Renders          int64         `json:"renders"`
	RenderElapsed    time.Duration `json:"render_elapsed_ns"`
	PointsRendered   int64         `json:"points_rendered"`
	PrefetchedPoints int64         `json:"prefetched_points"`
}

// SessionStats returns the session's cumulative render/prefetch counters.
func (s *Session) SessionStats() SessionStats {
	st := s.inner.Stats()
	return SessionStats{
		Renders:          st.Renders,
		RenderElapsed:    st.RenderElapsed,
		PointsRendered:   st.PointsRendered,
		PrefetchedPoints: st.PrefetchedPoints,
	}
}

// WithReuseCache makes the evaluation draw from (and contribute to) the
// given shared reuse engine instead of a private one. It overrides
// WithoutReuse, WithFingerprintLength, WithAffineTol and WithStoreBudget —
// those were fixed when the cache was created.
func WithReuseCache(c *ReuseCache) EvalOption {
	return func(cfg *evalConfig) {
		if c != nil {
			cfg.shared = c.reuse
		}
	}
}
