package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

// postRun submits a run request and decodes the response view.
func postRun(t *testing.T, ts *httptest.Server, body any, wantCode int) View {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		var e errorBody
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("POST /v1/runs = %d (%s), want %d", resp.StatusCode, e.Error, wantCode)
	}
	var v View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestHTTPEndToEnd covers the acceptance criterion across the third door:
// the same committed spec file produces byte-identical metrics via a direct
// run and via POST /v1/runs, and resubmission is a visible cache hit.
func TestHTTPEndToEnd(t *testing.T) {
	svc := New(Options{Workers: 2})
	defer svc.Close()
	ts := httptest.NewServer(NewHandler(svc, HandlerOptions{}))
	defer ts.Close()

	raw, err := os.ReadFile(filepath.Join(fixtureDir, "election_ring.json"))
	if err != nil {
		t.Fatal(err)
	}

	// Door 1: the direct in-process run of the committed fixture.
	direct := loadFixture(t, "election_ring.json")
	rep, err := direct.Run()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(rep.Metrics())

	// Door 2: the HTTP server, same spec bytes, synchronous submit.
	v := postRun(t, ts, map[string]any{"spec": json.RawMessage(raw), "wait": true}, http.StatusOK)
	if v.Status != StatusDone {
		t.Fatalf("job ended %s (%s)", v.Status, v.Error)
	}
	got, _ := json.Marshal(v.Result.Metrics)
	if !bytes.Equal(got, want) {
		t.Fatalf("HTTP metrics diverged from direct run:\nhttp:   %s\ndirect: %s", got, want)
	}

	// Resubmission: served from the result cache, hit counter visible.
	v2 := postRun(t, ts, map[string]any{"spec": json.RawMessage(raw), "wait": true}, http.StatusOK)
	if v2.CacheHits != 1 {
		t.Fatalf("resubmission cache_hits = %d, want 1", v2.CacheHits)
	}
	got2, _ := json.Marshal(v2.Result.Metrics)
	if !bytes.Equal(got2, want) {
		t.Fatal("cached HTTP result diverged")
	}

	// A seed override is a different run (fresh computation).
	v3 := postRun(t, ts, map[string]any{"spec": json.RawMessage(raw), "seed": 123, "wait": true}, http.StatusOK)
	if v3.CacheHits != 0 || v3.Seed != 123 {
		t.Fatalf("seed override run: hits=%d seed=%d", v3.CacheHits, v3.Seed)
	}

	// GET the finished job by id.
	resp, err := http.Get(ts.URL + "/v1/runs/" + v.ID)
	if err != nil {
		t.Fatal(err)
	}
	var fetched View
	if err := json.NewDecoder(resp.Body).Decode(&fetched); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || fetched.ID != v.ID || fetched.Status != StatusDone {
		t.Fatalf("GET /v1/runs/%s = %d %+v", v.ID, resp.StatusCode, fetched)
	}
}

// TestHTTPErrorsAndMetadata covers the non-happy paths and the metadata
// endpoints.
func TestHTTPErrorsAndMetadata(t *testing.T) {
	svc := New(Options{Workers: 1})
	defer svc.Close()
	ts := httptest.NewServer(NewHandler(svc, HandlerOptions{}))
	defer ts.Close()

	// Unknown job.
	resp, err := http.Get(ts.URL + "/v1/runs/run-000000-missing")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET unknown job = %d, want 404", resp.StatusCode)
	}

	// Invalid spec: strictness reaches through the HTTP layer.
	bad := map[string]any{"spec": json.RawMessage(`{"version":1,"env":{"n":4,"bogus":1},"protocol":{"name":"election"}}`)}
	postRunExpectError(t, ts, bad, http.StatusBadRequest)

	// Unknown request fields are rejected too.
	resp2, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader([]byte(`{"speck":{}}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("POST with unknown field = %d, want 400", resp2.StatusCode)
	}

	// Protocol metadata lists the registry with capabilities.
	resp3, err := http.Get(ts.URL + "/v1/protocols")
	if err != nil {
		t.Fatal(err)
	}
	var meta struct {
		Protocols []struct {
			Name              string `json:"name"`
			SupportsFaults    bool   `json:"supports_faults"`
			SupportsByzantine bool   `json:"supports_byzantine"`
			SupportsBroadcast bool   `json:"supports_broadcast"`
			Deterministic     bool   `json:"deterministic"`
			Options           []struct {
				Name string `json:"name"`
				Type string `json:"type"`
			} `json:"options"`
		} `json:"protocols"`
	}
	body, err := io.ReadAll(resp3.Body)
	resp3.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body, &meta); err != nil {
		t.Fatal(err)
	}
	if len(meta.Protocols) == 0 {
		t.Fatal("no protocols listed")
	}
	// The response shape: the three capability axes a protocol can refuse,
	// and no observe or trace flag — those are the run substrate's, honoured
	// for every protocol. Decoded untyped, so an absent key shows.
	var shape struct {
		Protocols []map[string]any `json:"protocols"`
	}
	if err := json.Unmarshal(body, &shape); err != nil {
		t.Fatal(err)
	}
	for _, p := range shape.Protocols {
		for _, key := range []string{"supports_faults", "supports_byzantine", "supports_broadcast"} {
			if _, ok := p[key].(bool); !ok {
				t.Errorf("%v: %q = %v, want a boolean", p["name"], key, p[key])
			}
		}
		for _, key := range []string{"supports_observe", "supports_trace"} {
			if v, ok := p[key]; ok {
				t.Errorf("%v: carries %q = %v, want no such key", p["name"], key, v)
			}
		}
	}
	seen := map[string]bool{}
	for _, p := range meta.Protocols {
		seen[p.Name] = true
		if p.Name == "election" && !p.SupportsFaults {
			t.Fatal("election metadata lost fault support")
		}
		// The capability table must separate the three fault tiers:
		// plain (peterson), fault-capable (election), Byzantine-capable
		// with local broadcast (ben-or alone).
		if p.Name == "ben-or" && !(p.SupportsFaults && p.SupportsByzantine && p.SupportsBroadcast) {
			t.Fatalf("ben-or metadata lost adversary capability: %+v", p)
		}
		if p.Name != "ben-or" && (p.SupportsByzantine || p.SupportsBroadcast) {
			t.Fatalf("%s claims adversary capability its engine rejects", p.Name)
		}
		if p.Name == "peterson" && p.SupportsFaults {
			t.Fatal("peterson metadata gained fault support")
		}
	}
	if !seen["election"] || !seen["chang-roberts"] || !seen["ben-or"] {
		t.Fatalf("registry protocols missing from /v1/protocols: %v", seen)
	}

	// Liveness.
	resp4, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
		Stats  Stats  `json:"stats"`
	}
	if err := json.NewDecoder(resp4.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp4.Body.Close()
	if health.Status != "ok" || health.Stats.Workers != 1 {
		t.Fatalf("healthz = %+v", health)
	}

	// Cancelling a finished job conflicts.
	fixture, err := os.ReadFile(filepath.Join(fixtureDir, "election_ring.json"))
	if err != nil {
		t.Fatal(err)
	}
	v := postRun(t, ts, map[string]any{"spec": json.RawMessage(fixture), "wait": true}, http.StatusOK)
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/runs/%s", ts.URL, v.ID), nil)
	resp5, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp5.Body.Close()
	if resp5.StatusCode != http.StatusConflict {
		t.Fatalf("DELETE finished job = %d, want 409", resp5.StatusCode)
	}
}

// TestHTTPBodyLimit: POST bodies beyond the cap are refused with 413 and
// the standard error shape — a multi-GB POST must not OOM the server.
func TestHTTPBodyLimit(t *testing.T) {
	svc := New(Options{Workers: 1})
	defer svc.Close()
	ts := httptest.NewServer(NewHandler(svc, HandlerOptions{MaxBodyBytes: 2048}))
	defer ts.Close()

	// Oversized but syntactically plausible: the decoder has to keep
	// reading the giant string, and the byte limit trips first.
	big := append(append([]byte(`{"spec": "`), bytes.Repeat([]byte("x"), 4096)...), `"}`...)
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized POST = %d, want 413", resp.StatusCode)
	}
	var e errorBody
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Fatalf("413 error body missing: %v %q", err, e.Error)
	}

	// A normal-sized spec still goes through the same handler.
	raw, err := os.ReadFile(filepath.Join(fixtureDir, "election_ring.json"))
	if err != nil {
		t.Fatal(err)
	}
	v := postRun(t, ts, map[string]any{"spec": json.RawMessage(raw), "wait": true}, http.StatusOK)
	if v.Status != StatusDone {
		t.Fatalf("in-limit POST ended %s (%s)", v.Status, v.Error)
	}
}

// TestHTTPCancelSharedJobConflicts: DELETE on a job other submissions are
// riding returns 409, and both submissions still get the result.
func TestHTTPCancelSharedJobConflicts(t *testing.T) {
	entered := make(chan struct{}, 16)
	release := make(chan struct{})
	svc := New(Options{
		Workers:    1,
		QueueDepth: 4,
		BeforeJob: func() {
			entered <- struct{}{}
			<-release
		},
	})
	defer svc.Close()
	ts := httptest.NewServer(NewHandler(svc, HandlerOptions{}))
	defer ts.Close()

	blocker, err := svc.Submit(specJSON(t, loadFixture(t, "election_ring.json")), nil)
	if err != nil {
		t.Fatal(err)
	}
	<-entered

	raw, err := os.ReadFile(filepath.Join(fixtureDir, "chang_roberts_pareto.json"))
	if err != nil {
		t.Fatal(err)
	}
	first := postRun(t, ts, map[string]any{"spec": json.RawMessage(raw)}, http.StatusAccepted)
	rider := postRun(t, ts, map[string]any{"spec": json.RawMessage(raw)}, http.StatusAccepted)
	if rider.ID != first.ID || rider.Deduplicated != 1 {
		t.Fatalf("second POST did not coalesce: %+v", rider)
	}

	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/runs/%s", ts.URL, first.ID), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("DELETE shared job = %d, want 409", resp.StatusCode)
	}

	close(release)
	await(t, svc, blocker.ID)
	if v := await(t, svc, first.ID); v.Status != StatusDone {
		t.Fatalf("shared job ended %s after refused cancel, want done", v.Status)
	}
}

// TestHTTPOverloadRetryAfter: admission-control rejections surface as 503
// with a Retry-After hint.
func TestHTTPOverloadRetryAfter(t *testing.T) {
	svc := New(Options{Workers: 1, SubmitRate: 0.5, SubmitBurst: 1})
	defer svc.Close()
	ts := httptest.NewServer(NewHandler(svc, HandlerOptions{}))
	defer ts.Close()

	raw, err := os.ReadFile(filepath.Join(fixtureDir, "election_ring.json"))
	if err != nil {
		t.Fatal(err)
	}
	// Distinct seeds are distinct fresh jobs: the single token admits one.
	postRun(t, ts, map[string]any{"spec": json.RawMessage(raw), "seed": 1, "wait": true}, http.StatusOK)
	payload, _ := json.Marshal(map[string]any{"spec": json.RawMessage(raw), "seed": 2})
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-rate POST = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After = %q, want a positive hint", ra)
	}
	// The already-computed seed keeps serving from cache meanwhile.
	v := postRun(t, ts, map[string]any{"spec": json.RawMessage(raw), "seed": 1, "wait": true}, http.StatusOK)
	if v.CacheHits != 1 {
		t.Fatalf("cache hit under overload: %d hits, want 1", v.CacheHits)
	}
}

func postRunExpectError(t *testing.T, ts *httptest.Server, body any, wantCode int) {
	t.Helper()
	payload, _ := json.Marshal(body)
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Fatalf("POST = %d, want %d", resp.StatusCode, wantCode)
	}
	var e errorBody
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Fatalf("error body missing: %v %q", err, e.Error)
	}
}
