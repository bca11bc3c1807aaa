// Package protocoltest is an in-process fault-injecting HTTP proxy for
// exercising the shard wire protocol between an fpserver coordinator and
// its workers. A Proxy sits in front of a real worker; the coordinator is
// pointed at the proxy's URL and every POST /shard/render passing through
// is recorded as an Exchange (byte counts, status, raw request body) and
// optionally perturbed by the configured Fault — connections dropped,
// responses truncated or corrupted, requests delayed or duplicated. Tests
// then assert two things at once: the coordinator's recovery behavior
// (per-shard retry, cache-miss re-send, local fallback) and the wire
// contract itself (steady-state requests carry no script payload).
//
// Everything is deterministic: faults fire on the proxied request flow,
// never on timers or free-running randomness, so a test that sets a fault
// window of one knows exactly which exchange was hit. The chaos mode
// (SetChaos) draws per-exchange faults from a seeded PRNG — randomized
// schedules of kills, hangs and slow-downs that replay identically for a
// given seed.
package protocoltest

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"
)

// Fault enumerates the injectable failure modes. Faults apply only to
// POST /shard/render exchanges; other routes (healthz, metrics) always
// pass through untouched.
type Fault int

const (
	// None passes the exchange through unmodified.
	None Fault = iota
	// Drop aborts the connection without writing any response — the
	// coordinator sees a transport error (a worker dying mid-render).
	Drop
	// Delay holds the request for the configured delay before forwarding.
	Delay
	// Truncate forwards the request but cuts the response body off halfway
	// through — the coordinator sees an unexpected EOF mid-decode.
	Truncate
	// Corrupt forwards the request but flips bytes in the response body —
	// the coordinator sees a JSON decode failure.
	Corrupt
	// Duplicate forwards the same request to the worker twice and answers
	// with the second response — exercising worker-side idempotency.
	Duplicate
	// Hang holds the request open without answering until the client gives
	// up (its context ends), then aborts the connection — a worker that is
	// alive at the TCP level but never makes progress. The coordinator only
	// escapes via its own deadline or a hedged duplicate.
	Hang
)

func (f Fault) String() string {
	switch f {
	case None:
		return "none"
	case Drop:
		return "drop"
	case Delay:
		return "delay"
	case Truncate:
		return "truncate"
	case Corrupt:
		return "corrupt"
	case Duplicate:
		return "duplicate"
	case Hang:
		return "hang"
	default:
		return "unknown"
	}
}

// Exchange records one proxied request/response pair.
type Exchange struct {
	// Path and Query identify the route ("/shard/render" and its raw query).
	Path  string
	Query string
	// Fault is the fault applied to this exchange (None for pass-through).
	Fault Fault
	// Status is the HTTP status answered to the client; 0 when the
	// connection was dropped before a response.
	Status int
	// RequestBytes and ResponseBytes are the body sizes on the wire (the
	// response size BEFORE truncation/corruption, i.e. the worker's answer).
	RequestBytes  int
	ResponseBytes int
	// RequestBody is the raw request body, for payload inspection.
	RequestBody []byte
}

// HasSQLPayload reports whether the exchange's request body carried a
// scenario script — the thing steady-state v4 requests must NOT do.
func (e Exchange) HasSQLPayload() bool {
	var probe struct {
		SQL string `json:"sql"`
	}
	return json.Unmarshal(e.RequestBody, &probe) == nil && probe.SQL != ""
}

// Proxy is the recording fault injector. Create with New, point the
// coordinator at URL(), and drive faults with SetFault/SetFaultWindow.
type Proxy struct {
	target string
	client *http.Client
	srv    *httptest.Server

	mu        sync.Mutex
	fault     Fault
	window    int // remaining faulted exchanges; -1 = until changed
	delay     time.Duration
	exchanges []Exchange
	// chaos, when non-nil, draws a fault per shard exchange from a seeded
	// PRNG instead of the fixed fault/window schedule.
	chaos *chaosSchedule
}

// chaosSchedule is the seeded randomized fault source for chaos tests:
// each shard exchange independently Drops, Hangs or Delays with the
// configured probabilities. The PRNG is consulted in exchange arrival
// order under the proxy lock, so one seed replays one schedule.
type chaosSchedule struct {
	rng                  *rand.Rand
	pDrop, pHang, pDelay float64
}

func (c *chaosSchedule) draw() Fault {
	u := c.rng.Float64()
	switch {
	case u < c.pDrop:
		return Drop
	case u < c.pDrop+c.pHang:
		return Hang
	case u < c.pDrop+c.pHang+c.pDelay:
		return Delay
	default:
		return None
	}
}

// New starts a proxy in front of the worker at target (a base URL like
// httptest.Server.URL). Close it when done.
func New(target string) *Proxy {
	p := &Proxy{
		target: target,
		client: &http.Client{},
		window: -1,
		delay:  50 * time.Millisecond,
	}
	p.srv = httptest.NewServer(http.HandlerFunc(p.handle))
	return p
}

// URL returns the proxy's base URL — what the coordinator's Workers list
// should contain.
func (p *Proxy) URL() string { return p.srv.URL }

// Close shuts the proxy down.
func (p *Proxy) Close() { p.srv.Close() }

// SetFault applies f to every subsequent shard exchange until changed.
func (p *Proxy) SetFault(f Fault) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fault, p.window = f, -1
}

// SetFaultWindow applies f to the next n shard exchanges, then reverts to
// None.
func (p *Proxy) SetFaultWindow(f Fault, n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fault, p.window = f, n
}

// SetDelay sets the hold time used by the Delay fault (default 50ms).
func (p *Proxy) SetDelay(d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.delay = d
}

// SetChaos switches the proxy to a seeded randomized fault schedule: each
// shard exchange independently aborts (Drop), never answers (Hang) or is
// delayed, with the given probabilities. The same seed replays the same
// schedule. Probabilities must sum to <= 1; the remainder passes through.
// SetChaos(0, 0, 0, 0) with any seed effectively disables chaos; Reset
// also clears it.
func (p *Proxy) SetChaos(seed uint64, pDrop, pHang, pDelay float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.chaos = &chaosSchedule{
		rng:   rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)),
		pDrop: pDrop, pHang: pHang, pDelay: pDelay,
	}
}

// Exchanges returns a copy of every recorded exchange, in arrival order.
func (p *Proxy) Exchanges() []Exchange {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Exchange, len(p.exchanges))
	copy(out, p.exchanges)
	return out
}

// ShardExchanges returns only the POST /shard/render exchanges.
func (p *Proxy) ShardExchanges() []Exchange {
	var out []Exchange
	for _, e := range p.Exchanges() {
		if e.Path == "/shard/render" {
			out = append(out, e)
		}
	}
	return out
}

// Reset clears the recorded exchanges, the fault state and any chaos
// schedule.
func (p *Proxy) Reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.exchanges = nil
	p.fault, p.window = None, -1
	p.chaos = nil
}

// takeFault consumes one slot of the current fault window (or one chaos
// draw).
func (p *Proxy) takeFault() (Fault, time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.chaos != nil {
		return p.chaos.draw(), p.delay
	}
	f := p.fault
	if f == None {
		return None, 0
	}
	if p.window == 0 {
		p.fault = None
		return None, 0
	}
	if p.window > 0 {
		p.window--
		if p.window == 0 {
			defer func() { p.fault = None }()
		}
	}
	return f, p.delay
}

func (p *Proxy) record(e Exchange) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.exchanges = append(p.exchanges, e)
}

func (p *Proxy) handle(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	shard := r.Method == http.MethodPost && r.URL.Path == "/shard/render"
	fault, delay := None, time.Duration(0)
	if shard {
		fault, delay = p.takeFault()
	}
	ex := Exchange{
		Path:         r.URL.Path,
		Query:        r.URL.RawQuery,
		Fault:        fault,
		RequestBytes: len(body),
		RequestBody:  body,
	}

	switch fault {
	case Drop:
		p.record(ex)
		panic(http.ErrAbortHandler)
	case Hang:
		// Never answer: wait for the client to abandon the request (deadline
		// or hedge win), then abort without a response.
		p.record(ex)
		<-r.Context().Done()
		panic(http.ErrAbortHandler)
	case Delay:
		time.Sleep(delay)
	}

	status, header, respBody, err := p.forward(r, body)
	if fault == Duplicate && err == nil {
		status, header, respBody, err = p.forward(r, body)
	}
	if err != nil {
		ex.Status = http.StatusBadGateway
		p.record(ex)
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	ex.Status = status
	ex.ResponseBytes = len(respBody)
	p.record(ex)

	for k, vs := range header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	switch fault {
	case Truncate:
		w.WriteHeader(status)
		w.Write(respBody[:len(respBody)/2])
		panic(http.ErrAbortHandler)
	case Corrupt:
		for i := 0; i < len(respBody); i += 7 {
			respBody[i] ^= 0x5a
		}
	}
	w.WriteHeader(status)
	w.Write(respBody)
}

// forward replays the request against the real worker and buffers the
// answer.
func (p *Proxy) forward(r *http.Request, body []byte) (int, http.Header, []byte, error) {
	url := p.target + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header = r.Header.Clone()
	resp, err := p.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, err
	}
	h := resp.Header.Clone()
	h.Del("Content-Length") // may change under corruption/truncation
	return resp.StatusCode, h, respBody, nil
}
