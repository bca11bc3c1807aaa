package protocoltest

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// newBackend is a stub worker: echoes a fixed JSON body on /shard/render
// and counts requests.
func newBackend(t *testing.T) (*httptest.Server, *int) {
	t.Helper()
	hits := new(int)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /shard/render", func(w http.ResponseWriter, r *http.Request) {
		*hits++
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"rows":10,"columns":{"margin":[1,2,3,4,5,6,7,8,9,10]}}`)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"status":"ok"}`)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts, hits
}

func post(t *testing.T, url, body string) (*http.Response, []byte, error) {
	t.Helper()
	resp, err := http.Post(url+"/shard/render", "application/json", strings.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp, raw, err
}

func TestPassThroughRecordsExchanges(t *testing.T) {
	backend, _ := newBackend(t)
	p := New(backend.URL)
	defer p.Close()

	body := `{"fingerprint":"abc","point":{},"worlds":10,"lo":0,"hi":10}`
	resp, raw, err := post(t, p.URL(), body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out struct {
		Rows int `json:"rows"`
	}
	if err := json.Unmarshal(raw, &out); err != nil || out.Rows != 10 {
		t.Fatalf("bad pass-through body: %s (err %v)", raw, err)
	}

	// Non-shard routes never count as shard exchanges.
	if _, err := http.Get(p.URL() + "/healthz"); err != nil {
		t.Fatal(err)
	}
	ex := p.ShardExchanges()
	if len(ex) != 1 {
		t.Fatalf("shard exchanges = %d, want 1", len(ex))
	}
	e := ex[0]
	if e.Fault != None || e.Status != http.StatusOK {
		t.Errorf("exchange = %+v", e)
	}
	if e.RequestBytes != len(body) || e.ResponseBytes == 0 {
		t.Errorf("byte counts = %d/%d", e.RequestBytes, e.ResponseBytes)
	}
	if e.HasSQLPayload() {
		t.Error("fingerprint-only body reported as carrying SQL")
	}
	if all := p.Exchanges(); len(all) != 2 {
		t.Errorf("total exchanges = %d, want 2 (shard + healthz)", len(all))
	}
}

func TestHasSQLPayload(t *testing.T) {
	withSQL := Exchange{RequestBody: []byte(`{"sql":"CREATE SCENARIO x AS ...","worlds":5}`)}
	if !withSQL.HasSQLPayload() {
		t.Error("full payload not detected")
	}
	slim := Exchange{RequestBody: []byte(`{"proto":2,"fingerprint":"deadbeef","worlds":5}`)}
	if slim.HasSQLPayload() {
		t.Error("slim payload misdetected as full")
	}
}

func TestDropAbortsConnection(t *testing.T) {
	backend, hits := newBackend(t)
	p := New(backend.URL)
	defer p.Close()

	p.SetFaultWindow(Drop, 1)
	if _, _, err := post(t, p.URL(), `{}`); err == nil {
		t.Fatal("dropped request returned no error")
	}
	if *hits != 0 {
		t.Errorf("backend saw %d requests through a Drop", *hits)
	}
	// The window is spent: the next request passes.
	resp, _, err := post(t, p.URL(), `{}`)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("post-window request: %v / %v", resp, err)
	}
	ex := p.ShardExchanges()
	if len(ex) != 2 || ex[0].Fault != Drop || ex[0].Status != 0 || ex[1].Fault != None {
		t.Errorf("exchanges = %+v", ex)
	}
}

func TestTruncateAndCorruptBreakTheBody(t *testing.T) {
	backend, _ := newBackend(t)
	p := New(backend.URL)
	defer p.Close()

	p.SetFaultWindow(Truncate, 1)
	_, raw, err := post(t, p.URL(), `{}`)
	if err == nil && json.Valid(raw) {
		t.Fatalf("truncated response decoded cleanly: %s", raw)
	}

	p.SetFaultWindow(Corrupt, 1)
	resp, raw, err := post(t, p.URL(), `{}`)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Rows int `json:"rows"`
	}
	if resp.StatusCode == http.StatusOK && json.Unmarshal(raw, &out) == nil && out.Rows == 10 {
		t.Fatalf("corrupted response decoded cleanly: %s", raw)
	}
	// The recorded response size reflects the worker's true answer.
	for _, e := range p.ShardExchanges() {
		if e.ResponseBytes == 0 {
			t.Errorf("exchange %+v lost the response byte count", e)
		}
	}
}

func TestDuplicateForwardsTwice(t *testing.T) {
	backend, hits := newBackend(t)
	p := New(backend.URL)
	defer p.Close()

	p.SetFaultWindow(Duplicate, 1)
	resp, raw, err := post(t, p.URL(), `{}`)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("duplicate request failed: %v / %v", resp, err)
	}
	if !bytes.Contains(raw, []byte(`"rows":10`)) {
		t.Fatalf("bad body: %s", raw)
	}
	if *hits != 2 {
		t.Errorf("backend saw %d requests, want 2", *hits)
	}
}

func TestDelayHoldsTheRequest(t *testing.T) {
	backend, _ := newBackend(t)
	p := New(backend.URL)
	defer p.Close()
	p.SetDelay(80 * time.Millisecond)
	p.SetFaultWindow(Delay, 1)

	start := time.Now()
	resp, _, err := post(t, p.URL(), `{}`)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("delayed request: %v / %v", resp, err)
	}
	if d := time.Since(start); d < 80*time.Millisecond {
		t.Errorf("request returned after %v, want >= 80ms", d)
	}
}

func TestResetClearsState(t *testing.T) {
	backend, _ := newBackend(t)
	p := New(backend.URL)
	defer p.Close()
	p.SetFault(Drop)
	post(t, p.URL(), `{}`)
	p.Reset()
	if len(p.Exchanges()) != 0 {
		t.Error("Reset left exchanges behind")
	}
	resp, _, err := post(t, p.URL(), `{}`)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("post-Reset request still faulted: %v / %v", resp, err)
	}
}
