package service

import (
	"bytes"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestRequestLoggerLines: each request becomes one structured line with
// method, path, status and latency, plus the job id on job routes.
func TestRequestLoggerLines(t *testing.T) {
	svc := New(Options{Workers: 1})
	defer svc.Close()
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	ts := httptest.NewServer(RequestLogger(logger, NewHandler(svc, HandlerOptions{})))
	defer ts.Close()

	v, err := svc.Submit(specJSON(t, loadFixture(t, "election_ring.json")), nil)
	if err != nil {
		t.Fatal(err)
	}
	await(t, svc, v.ID)

	for _, path := range []string{"/healthz?quick=1", "/v1/runs/" + v.ID, "/v1/runs/missing"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d log lines, want 3:\n%s", len(lines), buf.String())
	}
	for _, want := range []string{"method=GET", "path=/healthz", "status=200", "latency="} {
		if !strings.Contains(lines[0], want) {
			t.Fatalf("healthz line missing %s: %s", want, lines[0])
		}
	}
	if !strings.Contains(lines[1], "job="+v.ID) {
		t.Fatalf("job route line missing the job id: %s", lines[1])
	}
	if !strings.Contains(lines[2], "status=404") {
		t.Fatalf("missing-job line should log the 404: %s", lines[2])
	}
}

// TestRequestLoggerNilIsIdentity: a nil logger must return the handler
// unchanged — the quiet default for tests and embedders.
func TestRequestLoggerNilIsIdentity(t *testing.T) {
	h := http.NewServeMux()
	if got := RequestLogger(nil, h); got != http.Handler(h) {
		t.Fatal("nil logger wrapped the handler anyway")
	}
}

// TestRequestLoggerPreservesSSE: the logging wrapper must keep exposing
// http.Flusher, or the progress stream would 500 behind it.
func TestRequestLoggerPreservesSSE(t *testing.T) {
	svc := New(Options{Workers: 1})
	defer svc.Close()
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	ts := httptest.NewServer(RequestLogger(logger, NewHandler(svc, HandlerOptions{})))
	defer ts.Close()

	v, err := svc.Submit(specJSON(t, loadFixture(t, "election_ring.json")), nil)
	if err != nil {
		t.Fatal(err)
	}
	await(t, svc, v.ID)

	resp, err := http.Get(ts.URL + "/v1/runs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("SSE through the logger = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q — the Flusher was lost in the wrapper", ct)
	}
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body.String(), "event: status") {
		t.Fatalf("no status events in the stream:\n%s", body.String())
	}
	if !strings.Contains(buf.String(), "path=/v1/runs/"+v.ID+"/events") {
		t.Fatalf("stream request not logged:\n%s", buf.String())
	}
}
