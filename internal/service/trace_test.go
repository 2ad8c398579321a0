package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// getTrace fetches a job's trace with the given query string and returns
// the status code and body.
func getTrace(t *testing.T, ts *httptest.Server, id, query string) (int, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/runs/" + id + "/trace" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b bytes.Buffer
	if _, err := b.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b.String()
}

// TestHTTPTraceEndpoint covers the trace door end to end: a traced spec
// submitted over HTTP yields a causal export in all three formats, and the
// error paths (unknown job, untraced run, bad format) answer with the
// right codes.
func TestHTTPTraceEndpoint(t *testing.T) {
	svc := New(Options{Workers: 2})
	defer svc.Close()
	ts := httptest.NewServer(NewHandler(svc, HandlerOptions{}))
	defer ts.Close()

	raw, err := os.ReadFile(filepath.Join(fixtureDir, "election_ring_traced.json"))
	if err != nil {
		t.Fatal(err)
	}
	v := postRun(t, ts, map[string]any{"spec": json.RawMessage(raw), "wait": true}, http.StatusOK)
	if v.Status != StatusDone {
		t.Fatalf("job ended %s (%s)", v.Status, v.Error)
	}
	if v.Result == nil || v.Result.Trace == nil || len(v.Result.Trace.Events) == 0 {
		t.Fatal("traced run result carries no trace")
	}
	if v.Result.Report == nil || v.Result.Report.Trace != nil {
		t.Fatal("trace should live on the result, not nested inside the report")
	}

	// Default format is chrome: well-formed trace-event JSON.
	code, body := getTrace(t, ts, v.ID, "")
	if code != http.StatusOK {
		t.Fatalf("GET trace = %d: %s", code, body)
	}
	var chrome struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &chrome); err != nil {
		t.Fatalf("chrome export not JSON: %v", err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Fatal("chrome export has no trace events")
	}

	// jsonl: one JSON value per line, trailer included.
	code, body = getTrace(t, ts, v.ID, "?format=jsonl")
	if code != http.StatusOK {
		t.Fatalf("GET trace jsonl = %d", code)
	}
	lines := strings.Split(strings.TrimRight(body, "\n"), "\n")
	if len(lines) != len(v.Result.Trace.Events)+1 {
		t.Fatalf("jsonl: %d lines, want %d events + trailer", len(lines), len(v.Result.Trace.Events))
	}

	// text: human-readable dump mentioning the decision.
	code, body = getTrace(t, ts, v.ID, "?format=text")
	if code != http.StatusOK || !strings.Contains(body, "decision") {
		t.Fatalf("GET trace text = %d:\n%s", code, body)
	}

	// Error paths.
	if code, _ := getTrace(t, ts, v.ID, "?format=svg"); code != http.StatusBadRequest {
		t.Fatalf("bad format = %d, want 400", code)
	}
	if code, _ := getTrace(t, ts, "run-999999-nope", ""); code != http.StatusNotFound {
		t.Fatalf("unknown job = %d, want 404", code)
	}

	// An untraced run of the same scenario 404s with a hint.
	plain, err := os.ReadFile(filepath.Join(fixtureDir, "election_ring.json"))
	if err != nil {
		t.Fatal(err)
	}
	u := postRun(t, ts, map[string]any{"spec": json.RawMessage(plain), "wait": true}, http.StatusOK)
	code, body = getTrace(t, ts, u.ID, "")
	if code != http.StatusNotFound || !strings.Contains(body, "not traced") {
		t.Fatalf("untraced run trace = %d: %s", code, body)
	}
}

// TestHTTPTraceUnfinishedConflicts: asking for the trace of a job that has
// not finished is a 409, not an empty export.
func TestHTTPTraceUnfinishedConflicts(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	svc := New(Options{Workers: 1, BeforeJob: func() {
		entered <- struct{}{}
		<-release
	}})
	defer svc.Close()
	ts := httptest.NewServer(NewHandler(svc, HandlerOptions{}))
	defer ts.Close()

	v, err := svc.Submit(specJSON(t, loadFixture(t, "election_ring_traced.json")), nil)
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	if code, _ := getTrace(t, ts, v.ID, ""); code != http.StatusConflict {
		t.Fatalf("running job trace = %d, want 409", code)
	}
	close(release)
	await(t, svc, v.ID)
}

// TestTraceCacheKeySeparation pins the cache-soundness consequence of
// excluding the trace block from the spec hash: a traced and an untraced
// submission of the same scenario must not share a cache entry, while
// resubmitting each shape hits its own.
func TestTraceCacheKeySeparation(t *testing.T) {
	svc := New(Options{Workers: 1})
	defer svc.Close()

	traced := loadFixture(t, "election_ring_traced.json")
	plain := loadFixture(t, "election_ring.json")

	h1, _ := traced.Hash()
	h2, _ := plain.Hash()
	if h1 != h2 {
		t.Fatalf("fixtures differ beyond the trace block: %s vs %s", h1, h2)
	}

	vp, err := svc.Submit(specJSON(t, plain), nil)
	if err != nil {
		t.Fatal(err)
	}
	vp = await(t, svc, vp.ID)
	if vp.CacheHits != 0 || vp.Result.Trace != nil {
		t.Fatalf("untraced run: hits=%d trace=%v", vp.CacheHits, vp.Result.Trace != nil)
	}

	// Same scenario, traced: must be a fresh computation, not the cached
	// untraced payload.
	vt, err := svc.Submit(specJSON(t, traced), nil)
	if err != nil {
		t.Fatal(err)
	}
	vt = await(t, svc, vt.ID)
	if vt.CacheHits != 0 {
		t.Fatal("traced submission hit the untraced cache entry")
	}
	if vt.Result.Trace == nil || len(vt.Result.Trace.Events) == 0 {
		t.Fatal("traced run carries no trace")
	}

	// Resubmissions hit their own entries, trace intact.
	vt2, err := svc.Submit(specJSON(t, traced), nil)
	if err != nil {
		t.Fatal(err)
	}
	vt2 = await(t, svc, vt2.ID)
	if vt2.CacheHits != 1 || vt2.Result.Trace == nil {
		t.Fatalf("traced resubmission: hits=%d trace=%v", vt2.CacheHits, vt2.Result.Trace != nil)
	}
	vp2, err := svc.Submit(specJSON(t, plain), nil)
	if err != nil {
		t.Fatal(err)
	}
	vp2 = await(t, svc, vp2.ID)
	if vp2.CacheHits != 1 || vp2.Result.Trace != nil {
		t.Fatalf("untraced resubmission: hits=%d trace=%v", vp2.CacheHits, vp2.Result.Trace != nil)
	}

	// And the cached results stay byte-identical where they overlap.
	mt, _ := json.Marshal(vt.Result.Metrics)
	mp, _ := json.Marshal(vp.Result.Metrics)
	if !bytes.Equal(mt, mp) {
		t.Fatalf("tracing changed the metrics:\ntraced:   %s\nuntraced: %s", mt, mp)
	}
}
