package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	fp "fuzzyprophet"
)

// ErrSessionLimit is returned by Open when the manager is at MaxSessions;
// the HTTP layer maps it to 429 Too Many Requests.
var ErrSessionLimit = errors.New("server: session limit reached")

// Session is one managed online session: the library Session, which owns
// the slider positions, plus the bookkeeping the service needs — idle
// tracking for TTL eviction, the scenario-entry pin, and per-session
// render single-flight state.
type Session struct {
	// ID addresses the session in the HTTP API.
	ID string
	// Entry is the pinned scenario entry (released when the session
	// closes or is evicted).
	Entry *ScenarioEntry
	// Sess is the underlying library session.
	Sess *fp.Session
	// CreatedAt is the open time; Worlds the configured world count.
	CreatedAt time.Time
	Worlds    int

	mu       sync.Mutex
	lastUsed time.Time
	closed   bool
	// streams counts the progressive (SSE) renders running on the session;
	// like an in-flight render, a running stream keeps it from eviction.
	streams int
	// paramVersion increments on every SetParams that succeeded; renders
	// are keyed by it so a burst of render requests between two slider
	// moves coalesces into one simulation.
	paramVersion uint64
	inflight     *renderCall
	lastGraph    *fp.Graph
	lastVersion  uint64

	renders   atomic.Int64
	coalesced atomic.Int64
}

// renderCall is one in-flight render shared by coalesced followers.
type renderCall struct {
	version uint64
	done    chan struct{}
	graph   *fp.Graph
	err     error
}

// Touch marks the session used now (resets the idle clock).
func (s *Session) Touch() {
	s.mu.Lock()
	s.lastUsed = time.Now()
	s.mu.Unlock()
}

// SetParams applies slider moves all or none and bumps the param version.
// Every name and value is checked before any slider moves, so a failed
// name or value leaves every slider where it was, reports the error and
// keeps the version: the cached frame still matches the sliders.
func (s *Session) SetParams(params map[string]any) error {
	moves := make(map[string]any, len(params))
	for name, v := range params {
		moves[name] = canonicalNumber(v)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.Sess.SetParams(moves); err != nil {
		return err
	}
	s.paramVersion++
	return nil
}

// stream runs render as one progressive render of the session: the
// session counts as busy, and so is not evicted, until render returns.
func (s *Session) stream(render func()) {
	s.mu.Lock()
	s.streams++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.streams--
		s.lastUsed = time.Now()
		s.mu.Unlock()
	}()
	render()
}

// Render renders the graph at the current slider positions with
// per-session single-flight: concurrent requests at the same param version
// share one simulation, and a request arriving after a completed render at
// an unchanged version is served the cached frame without simulating at
// all. The second return reports whether the result was coalesced/cached
// rather than freshly rendered by this call.
//
// The leader renders under its own request context. A follower waits with
// its own context still honored; if the leader's client disconnected
// mid-render, the surviving follower takes over as the new leader instead
// of inheriting the cancellation.
func (s *Session) Render(ctx context.Context) (*fp.Graph, bool, error) {
	for {
		s.mu.Lock()
		version := s.paramVersion
		if s.lastGraph != nil && s.lastVersion == version {
			g := s.lastGraph
			s.mu.Unlock()
			s.coalesced.Add(1)
			return g, true, nil
		}
		if c := s.inflight; c != nil && c.version == version {
			s.mu.Unlock()
			select {
			case <-c.done:
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
			if errors.Is(c.err, context.Canceled) && ctx.Err() == nil {
				continue // the leader's client went away, not ours: retry
			}
			s.coalesced.Add(1)
			return c.graph, true, c.err
		}
		call := &renderCall{version: version, done: make(chan struct{})}
		s.inflight = call
		s.mu.Unlock()

		g, err := s.Sess.Render(ctx)

		s.mu.Lock()
		call.graph, call.err = g, err
		close(call.done)
		if s.inflight == call {
			s.inflight = nil
		}
		// A slow leader must not clobber a newer version's cached frame, and
		// a degraded (deadline-cut) frame is never cached: the next request
		// at this version should re-render at full fidelity, not inherit the
		// partial frame forever.
		if err == nil && !g.Stats.Degraded && (s.lastGraph == nil || version >= s.lastVersion) {
			s.lastGraph = g
			s.lastVersion = version
		}
		s.mu.Unlock()
		if err != nil {
			return nil, false, err
		}
		s.renders.Add(1)
		return g, false, nil
	}
}

// Renders and Coalesced return the session's render counters.
func (s *Session) Renders() int64   { return s.renders.Load() }
func (s *Session) Coalesced() int64 { return s.coalesced.Load() }

// Manager owns the session table: bounded admission (MaxSessions →
// ErrSessionLimit), TTL-based idle eviction, and ID lookup.
type Manager struct {
	max int
	ttl time.Duration

	mu       sync.Mutex
	sessions map[string]*Session

	opened  atomic.Int64
	evicted atomic.Int64
	closed  atomic.Int64
}

// NewManager returns a manager admitting at most max sessions (<=0 means
// unbounded) and evicting sessions idle longer than ttl (<=0 disables
// eviction).
func NewManager(max int, ttl time.Duration) *Manager {
	return &Manager{max: max, ttl: ttl, sessions: make(map[string]*Session)}
}

// newSessionID returns a 128-bit random hex ID.
func newSessionID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("server: crypto/rand unavailable: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// Open admits a new session over the given (already pinned) entry. On
// ErrSessionLimit the caller keeps responsibility for releasing the entry.
func (m *Manager) Open(entry *ScenarioEntry, sess *fp.Session, worlds int) (*Session, error) {
	s := &Session{
		ID:        newSessionID(),
		Entry:     entry,
		Sess:      sess,
		CreatedAt: time.Now(),
		Worlds:    worlds,
		lastUsed:  time.Now(),
	}
	m.mu.Lock()
	if m.max > 0 && len(m.sessions) >= m.max {
		m.mu.Unlock()
		return nil, ErrSessionLimit
	}
	m.sessions[s.ID] = s
	m.mu.Unlock()
	m.opened.Add(1)
	return s, nil
}

// Get returns the session and marks it used.
func (m *Manager) Get(id string) (*Session, bool) {
	m.mu.Lock()
	s, ok := m.sessions[id]
	m.mu.Unlock()
	if ok {
		s.Touch()
	}
	return s, ok
}

// Close removes the session and releases its scenario pin.
func (m *Manager) Close(id string) bool {
	m.mu.Lock()
	s, ok := m.sessions[id]
	if ok {
		delete(m.sessions, id)
	}
	m.mu.Unlock()
	if !ok {
		return false
	}
	m.finish(s)
	m.closed.Add(1)
	return true
}

// Sweep evicts sessions idle longer than the TTL, returning how many.
func (m *Manager) Sweep(now time.Time) int {
	if m.ttl <= 0 {
		return 0
	}
	var victims []*Session
	m.mu.Lock()
	for id, s := range m.sessions {
		s.mu.Lock()
		idle := now.Sub(s.lastUsed)
		busy := s.inflight != nil || s.streams > 0
		s.mu.Unlock()
		if idle > m.ttl && !busy {
			delete(m.sessions, id)
			victims = append(victims, s)
		}
	}
	m.mu.Unlock()
	for _, s := range victims {
		m.finish(s)
		m.evicted.Add(1)
	}
	return len(victims)
}

// CloseAll drains every session (server shutdown).
func (m *Manager) CloseAll() {
	m.mu.Lock()
	all := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		all = append(all, s)
	}
	m.sessions = make(map[string]*Session)
	m.mu.Unlock()
	for _, s := range all {
		m.finish(s)
		m.closed.Add(1)
	}
}

// finish releases the session's scenario pin exactly once.
func (m *Manager) finish(s *Session) {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	s.mu.Unlock()
	if !already {
		s.Entry.release()
	}
}

// Len returns the number of open sessions.
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

// Opened, Evicted and Closed return lifetime counters.
func (m *Manager) Opened() int64  { return m.opened.Load() }
func (m *Manager) Evicted() int64 { return m.evicted.Load() }
func (m *Manager) Closed() int64  { return m.closed.Load() }
