package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	fp "fuzzyprophet"
)

// client is the benchmark's single closed-loop client: one keep-alive
// connection, the next request only after the previous answer is decoded.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// roundTrip sends one request and decodes the JSON answer into out (nil
// discards it). Any status outside 2xx is an error. It returns the size of
// the response body.
func (c *client) roundTrip(ctx context.Context, method, path string, body, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return len(data), fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return len(data), fmt.Errorf("%s %s: status %d: %.200s", method, path, resp.StatusCode, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return len(data), fmt.Errorf("%s %s: decoding answer: %w", method, path, err)
		}
	}
	return len(data), nil
}

// The parts of fpserver's answers the benchmark reads.
type (
	renderResponse struct {
		Graph       *fp.Graph      `json:"graph"`
		ReuseCounts map[string]int `json:"reuse_counts"`
		Trace       *node          `json:"trace"`
		Degraded    bool           `json:"degraded"`
	}
	evaluateResponse struct {
		fp.BatchResult
		Trace *node `json:"trace"`
	}
	sessionResponse struct {
		ID string `json:"id"`
	}
)

// opRecord is what one finished op leaves behind.
type opRecord struct {
	latency time.Duration
	bytes   int            // response bodies, all calls of the op
	reuse   map[string]int // reuse outcomes this op added, by kind
	tree    *node          // the op's span tree; traced ops only
	failure string         // why the op counts as failed; "" when it is OK
}

// op is one operation in progress. It is timed from its first request to
// the decoding of its last answer, and keeps a span per HTTP call.
type op struct {
	c     *client
	start time.Time
	end   time.Time
	http  []*node
	bytes int
}

func (c *client) begin() *op { return &op{c: c, start: time.Now()} }

// call makes one timed HTTP call. route is the path as the server's mux
// names it, so spans of different sessions share a name.
func (o *op) call(ctx context.Context, method, route, path string, body, out any) error {
	t0 := time.Now()
	n, err := o.c.roundTrip(ctx, method, path, body, out)
	o.end = time.Now()
	o.bytes += n
	o.http = append(o.http, &node{
		Name:    "http " + method + " " + route,
		StartUS: t0.Sub(o.start).Microseconds(),
		DurUS:   o.end.Sub(t0).Microseconds(),
	})
	return err
}

// graft hangs the server's span tree for the latest call under that call's
// span. Without a tree (an untraced op) it does nothing.
func (o *op) graft(server *node) {
	if server == nil {
		return
	}
	parent := o.http[len(o.http)-1]
	placeInside(parent, server)
	rebaseGrafts(server)
	parent.Children = append(parent.Children, server)
}

// finish closes the op. traced says whether the span tree is kept.
func (o *op) finish(traced bool, reuse map[string]int, err error) opRecord {
	rec := opRecord{latency: o.end.Sub(o.start), bytes: o.bytes, reuse: reuse}
	if err != nil {
		rec.failure = err.Error()
	}
	if traced {
		rec.tree = &node{Name: "op", DurUS: rec.latency.Microseconds(), Children: o.http}
	}
	return rec
}
