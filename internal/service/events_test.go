package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"abenet/internal/probe"
	"abenet/internal/spec"
)

// observedFixture loads a fixture and attaches an observe block.
func observedFixture(t *testing.T, name string, every uint64) *spec.Spec {
	t.Helper()
	s := loadFixture(t, name)
	s.Env.Observe = &probe.Config{EveryEvents: every}
	return s
}

// TestEventStreamLifecycle: a job's event log replays the whole story —
// queued, running, the samples of an observed run (first one carrying the
// gauge names), and the terminal status — with dense sequence numbers.
func TestEventStreamLifecycle(t *testing.T) {
	svc := New(Options{Workers: 1})
	defer svc.Close()

	v, err := svc.Submit(specJSON(t, observedFixture(t, "election_ring.json", 1)), nil)
	if err != nil {
		t.Fatal(err)
	}
	await(t, svc, v.ID)

	evs, _, done, err := svc.EventsSince(v.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("finished job's stream not sealed")
	}
	if len(evs) < 4 {
		t.Fatalf("only %d events; want queued + running + samples + done", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d; sequence not dense", i, ev.Seq)
		}
	}
	if evs[0].Type != EventStatus || evs[0].Status != StatusQueued {
		t.Fatalf("first event = %+v, want status queued", evs[0])
	}
	if evs[1].Type != EventStatus || evs[1].Status != StatusRunning {
		t.Fatalf("second event = %+v, want status running", evs[1])
	}
	last := evs[len(evs)-1]
	if last.Type != EventStatus || last.Status != StatusDone {
		t.Fatalf("last event = %+v, want status done", last)
	}
	var samples int
	for i, ev := range evs {
		if ev.Type != EventSample {
			continue
		}
		if samples == 0 {
			if len(ev.Sample.Names) == 0 {
				t.Fatal("first sample event carries no gauge names")
			}
			if i != 2 {
				t.Fatalf("first sample at index %d, want right after running", i)
			}
		} else if len(ev.Sample.Names) != 0 {
			t.Fatalf("sample %d repeats the gauge names", samples)
		}
		samples++
	}
	final, err := svc.Get(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	series := final.Result.Report.Series
	if series == nil {
		t.Fatal("observed job result carries no series")
	}
	if samples != len(series.Samples) {
		t.Fatalf("streamed %d samples, result stored %d", samples, len(series.Samples))
	}
	// Mid-log resume: replay from an offset returns exactly the suffix.
	tail, _, done, err := svc.EventsSince(v.ID, last.Seq)
	if err != nil || !done || len(tail) != 1 || tail[0].Seq != last.Seq {
		t.Fatalf("suffix replay = %v (done %v, err %v)", tail, done, err)
	}
}

// TestSweepPointStreaming: a sweep job streams one point event per
// position, and the streamed aggregates are identical to the final result.
func TestSweepPointStreaming(t *testing.T) {
	svc := New(Options{Workers: 1})
	defer svc.Close()

	sp := loadFixture(t, "itai_rodeh_sweep.json")
	v, err := svc.Submit(specJSON(t, sp), nil)
	if err != nil {
		t.Fatal(err)
	}
	final := await(t, svc, v.ID)
	if final.Status != StatusDone {
		t.Fatalf("sweep ended %s (%s)", final.Status, final.Error)
	}

	evs, _, _, err := svc.EventsSince(v.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	points := map[int]*spec.PointView{}
	for _, ev := range evs {
		if ev.Type == EventPoint {
			points[ev.XIdx] = ev.Point
		}
	}
	if len(points) != len(final.Result.Points) {
		t.Fatalf("streamed %d points, result has %d", len(points), len(final.Result.Points))
	}
	for i, want := range final.Result.Points {
		got := points[i]
		if got == nil {
			t.Fatalf("position %d never streamed", i)
		}
		a, _ := json.Marshal(got)
		b, _ := json.Marshal(want)
		if string(a) != string(b) {
			t.Fatalf("position %d: streamed point differs from final result:\n%s\n%s", i, a, b)
		}
	}
}

// sseEvent is one parsed SSE frame.
type sseEvent struct {
	id    string
	event string
	data  Event
}

// readSSE consumes an SSE body until EOF (the server closes the stream
// after the terminal event).
func readSSE(t *testing.T, body *bufio.Scanner) []sseEvent {
	t.Helper()
	var out []sseEvent
	var cur sseEvent
	for body.Scan() {
		line := body.Text()
		switch {
		case line == "":
			if cur.event != "" {
				out = append(out, cur)
				cur = sseEvent{}
			}
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &cur.data); err != nil {
				t.Fatalf("unparsable SSE data line %q: %v", line, err)
			}
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	return out
}

// TestSSEReplayAndTermination: the events endpoint replays a finished
// job's whole log as well-formed SSE frames and then closes the stream;
// Last-Event-ID resumes mid-log; an unknown id is a JSON 404.
func TestSSEReplayAndTermination(t *testing.T) {
	svc := New(Options{Workers: 1})
	defer svc.Close()
	ts := httptest.NewServer(NewHandler(svc, HandlerOptions{}))
	defer ts.Close()

	v, err := svc.Submit(specJSON(t, observedFixture(t, "election_ring.json", 2)), nil)
	if err != nil {
		t.Fatal(err)
	}
	await(t, svc, v.ID)

	resp, err := http.Get(ts.URL + "/v1/runs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	frames := readSSE(t, bufio.NewScanner(resp.Body))
	if len(frames) < 4 {
		t.Fatalf("replayed %d frames", len(frames))
	}
	for i, f := range frames {
		if f.id != fmt.Sprint(i) || f.data.Seq != i {
			t.Fatalf("frame %d: id %q seq %d; stream not ordered", i, f.id, f.data.Seq)
		}
		if f.event != f.data.Type {
			t.Fatalf("frame %d: event name %q vs payload type %q", i, f.event, f.data.Type)
		}
	}
	lastFrame := frames[len(frames)-1]
	if lastFrame.event != EventStatus || lastFrame.data.Status != StatusDone {
		t.Fatalf("stream did not terminate on the done event: %+v", lastFrame)
	}

	// Reconnect with Last-Event-ID: only the suffix is replayed.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/runs/"+v.ID+"/events", nil)
	req.Header.Set("Last-Event-ID", fmt.Sprint(len(frames)-2))
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	tail := readSSE(t, bufio.NewScanner(resp2.Body))
	if len(tail) != 1 || tail[0].data.Seq != len(frames)-1 {
		t.Fatalf("Last-Event-ID resume replayed %d frames: %+v", len(tail), tail)
	}

	// Unknown id: JSON 404, not an event stream.
	resp3, err := http.Get(ts.URL + "/v1/runs/run-does-not-exist/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id = %d, want 404", resp3.StatusCode)
	}
}

// TestSSELiveFollowAndDisconnect: a subscriber attached before the job
// runs sees the live tail through to termination; a subscriber that
// disconnects mid-stream blocks nothing — the job still completes and the
// service still shuts down cleanly (the pulse-channel design registers no
// per-subscriber state to leak).
func TestSSELiveFollowAndDisconnect(t *testing.T) {
	gate := make(chan struct{})
	svc := New(Options{Workers: 1, BeforeJob: func() { <-gate }})
	defer svc.Close()
	ts := httptest.NewServer(NewHandler(svc, HandlerOptions{}))
	defer ts.Close()

	v, err := svc.Submit(specJSON(t, observedFixture(t, "election_ring.json", 1)), nil)
	if err != nil {
		t.Fatal(err)
	}

	// Subscriber A: attaches while the job is still queued, follows live.
	respA, err := http.Get(ts.URL + "/v1/runs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer respA.Body.Close()

	// Subscriber B: attaches, reads the queued event, then disconnects.
	ctxB, cancelB := context.WithCancel(context.Background())
	reqB, _ := http.NewRequestWithContext(ctxB, "GET", ts.URL+"/v1/runs/"+v.ID+"/events", nil)
	respB, err := http.DefaultClient.Do(reqB)
	if err != nil {
		t.Fatal(err)
	}
	scB := bufio.NewScanner(respB.Body)
	if !scB.Scan() {
		t.Fatal("subscriber B read nothing")
	}
	cancelB()
	respB.Body.Close()

	// Release the worker; the vanished subscriber must not block the run.
	close(gate)
	frames := readSSE(t, bufio.NewScanner(respA.Body))
	last := frames[len(frames)-1]
	if last.data.Type != EventStatus || last.data.Status != StatusDone {
		t.Fatalf("live follow ended on %+v, want status done", last.data)
	}
	var sawRunning bool
	for _, f := range frames {
		if f.data.Type == EventStatus && f.data.Status == StatusRunning {
			sawRunning = true
		}
	}
	if !sawRunning {
		t.Fatal("live subscriber missed the running transition")
	}

	done := make(chan struct{})
	go func() { svc.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("service shutdown hung after a client disconnect")
	}
}

// TestObserveCacheKeying: observation is excluded from the scenario hash,
// so the cache must key the observe fingerprint separately — an observed
// submission never serves a plain cached result (which has no series), and
// vice versa; identical observed submissions do share.
func TestObserveCacheKeying(t *testing.T) {
	svc := New(Options{Workers: 1})
	defer svc.Close()

	plain, err := svc.Submit(specJSON(t, loadFixture(t, "election_ring.json")), nil)
	if err != nil {
		t.Fatal(err)
	}
	await(t, svc, plain.ID)

	observed, err := svc.Submit(specJSON(t, observedFixture(t, "election_ring.json", 1)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if observed.CacheHits != 0 {
		t.Fatal("observed submission served from the unobserved cache entry")
	}
	final := await(t, svc, observed.ID)
	if final.Result.Report.Series == nil {
		t.Fatal("observed run lost its series")
	}

	again, err := svc.Submit(specJSON(t, observedFixture(t, "election_ring.json", 1)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if again.CacheHits != 1 {
		t.Fatalf("identical observed resubmission cache_hits = %d, want 1", again.CacheHits)
	}
	if again.Result.Report.Series == nil {
		t.Fatal("cached observed result lost its series")
	}
	// A different cadence is a different payload: no hit.
	other, err := svc.Submit(specJSON(t, observedFixture(t, "election_ring.json", 7)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if other.CacheHits != 0 {
		t.Fatal("different cadence served the wrong cached series")
	}
}

// promLine matches one Prometheus text-format sample line.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? -?[0-9.eE+-]+$`)

// TestMetricsEndpoint: /metrics parses under a Prometheus text-format
// check — every sample line well-formed, every family preceded by HELP and
// TYPE — and the counters agree with the service's own Stats.
func TestMetricsEndpoint(t *testing.T) {
	svc := New(Options{Workers: 1})
	defer svc.Close()
	ts := httptest.NewServer(NewHandler(svc, HandlerOptions{}))
	defer ts.Close()

	v, err := svc.Submit(specJSON(t, loadFixture(t, "election_ring.json")), nil)
	if err != nil {
		t.Fatal(err)
	}
	await(t, svc, v.ID)
	if _, err := svc.Submit(specJSON(t, loadFixture(t, "election_ring.json")), nil); err != nil {
		t.Fatal(err) // cache hit, bumps the hit counter
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	typed := map[string]bool{}
	values := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 || (parts[3] != "counter" && parts[3] != "gauge") {
				t.Fatalf("malformed TYPE line %q", line)
			}
			typed[parts[2]] = true
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unknown comment line %q", line)
		}
		if !promLine.MatchString(line) {
			t.Fatalf("sample line %q fails the text-format check", line)
		}
		name := line[:strings.IndexAny(line, "{ ")]
		if !typed[name] {
			t.Fatalf("sample %q has no preceding # TYPE", line)
		}
		i := strings.LastIndexByte(line, ' ')
		var val float64
		fmt.Sscanf(line[i+1:], "%g", &val)
		values[line[:i]] = val
	}

	st := svc.Stats()
	checks := map[string]float64{
		"abe_submissions_total":                  float64(st.Submissions),
		`abe_jobs_finished_total{status="done"}`: float64(st.Done),
		`abe_cache_hits_total{tier="memory"}`:    float64(st.MemoryHits),
		"abe_workers":                            float64(st.Workers),
	}
	for series, want := range checks {
		got, ok := values[series]
		if !ok {
			t.Errorf("missing series %s", series)
		} else if got != want {
			t.Errorf("%s = %g, want %g (Stats)", series, got, want)
		}
	}
	if values["abe_submissions_total"] < 2 || values[`abe_cache_hits_total{tier="memory"}`] < 1 {
		t.Fatalf("counters did not move: %v", values)
	}
}

// TestHealthzQuick: the quick probe returns status only; the full response
// carries the version and uptime satellites.
func TestHealthzQuick(t *testing.T) {
	svc := New(Options{Workers: 1})
	defer svc.Close()
	ts := httptest.NewServer(NewHandler(svc, HandlerOptions{Version: "test-1.2.3"}))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz?quick=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var quick map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&quick); err != nil {
		t.Fatal(err)
	}
	if string(quick["status"]) != `"ok"` || len(quick) != 1 {
		t.Fatalf("quick healthz = %v, want status only", quick)
	}

	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var full struct {
		Status        string  `json:"status"`
		Version       string  `json:"version"`
		UptimeSeconds float64 `json:"uptime_seconds"`
		Stats         *Stats  `json:"stats"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&full); err != nil {
		t.Fatal(err)
	}
	if full.Status != "ok" || full.Version != "test-1.2.3" || full.Stats == nil {
		t.Fatalf("full healthz = %+v", full)
	}
	if full.UptimeSeconds <= 0 {
		t.Fatalf("uptime_seconds = %g", full.UptimeSeconds)
	}
}

// TestEventLogCap: progress events past the cap are dropped (not stored),
// the drop count lands on the terminal status event, and status events
// always land regardless.
func TestEventLogCap(t *testing.T) {
	var dropped int64
	l := newEventLog(3, &dropped)
	l.append(Event{Type: EventStatus, Status: StatusQueued}, false)
	l.append(Event{Type: EventStatus, Status: StatusRunning}, false)
	for i := 0; i < 5; i++ {
		l.append(Event{Type: EventSample, Sample: &SampleView{Event: uint64(i)}}, true)
	}
	l.finish(StatusDone, "")
	evs, _, done := l.since(0)
	if !done {
		t.Fatal("log not sealed")
	}
	// 2 status + 1 sample (cap 3) + terminal status.
	if len(evs) != 4 {
		t.Fatalf("stored %d events, want 4", len(evs))
	}
	last := evs[len(evs)-1]
	if last.Status != StatusDone || last.Dropped != 4 {
		t.Fatalf("terminal event = %+v, want done with 4 dropped", last)
	}
	if dropped != 4 {
		t.Fatalf("service-wide drop counter = %d", dropped)
	}
	// Appends after sealing are discarded silently.
	l.append(Event{Type: EventSample}, true)
	if evs2, _, _ := l.since(0); len(evs2) != 4 {
		t.Fatal("sealed log accepted an append")
	}
}
