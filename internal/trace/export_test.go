package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"abenet/internal/network"
)

// exportFixture records a small run shape: a relay chain with a timer and
// a decision, plus one delivery whose parent send is dropped by the cap.
func exportFixture(t *testing.T) *Export {
	t.Helper()
	r := NewRecorder(6)
	s1 := r.MessageSent(0, 0, 1, "a", network.TraceRef{})
	d1 := r.MessageDelivered(1, 0, 1, "a", s1)
	r.TimerFired(1.5, 1, 2, d1)
	s2 := r.MessageSent(1.5, 1, 2, "b", d1)
	r.MessageDelivered(3, 1, 2, "b", s2)
	s3 := r.MessageSent(3, 2, 0, "c", network.TraceRef{}) // fills the cap
	d3 := r.MessageDelivered(4, 2, 0, "c", s3)            // dropped: over cap
	r.Decision(4, 0, "done", d3)                          // cap-exempt
	return r.Export()
}

func TestExportRoundTripsJSON(t *testing.T) {
	exp := exportFixture(t)
	if exp.Dropped != 1 || exp.Decision == 0 {
		t.Fatalf("fixture shape: %+v", exp)
	}
	buf, err := json.Marshal(exp)
	if err != nil {
		t.Fatal(err)
	}
	var back Export
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Events) != len(exp.Events) || back.Dropped != exp.Dropped || back.Decision != exp.Decision {
		t.Fatalf("round trip changed the export:\n %+v\n %+v", exp, &back)
	}
	if back.Events[0].Payload != "a" || back.Events[0].Kind != KindSend {
		t.Fatalf("first event corrupted: %+v", back.Events[0])
	}
}

func TestWriteJSONLShape(t *testing.T) {
	exp := exportFixture(t)
	var b bytes.Buffer
	if err := WriteJSONL(&b, exp); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != len(exp.Events)+1 {
		t.Fatalf("%d lines, want %d events + 1 trailer", len(lines), len(exp.Events))
	}
	for i, line := range lines[:len(lines)-1] {
		var e Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if e.ID != exp.Events[i].ID {
			t.Fatalf("line %d ID = %d, want %d", i, e.ID, exp.Events[i].ID)
		}
	}
	var trailer struct {
		Events   int     `json:"events"`
		Dropped  uint64  `json:"dropped"`
		Decision EventID `json:"decision"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &trailer); err != nil {
		t.Fatal(err)
	}
	if trailer.Events != len(exp.Events) || trailer.Dropped != exp.Dropped || trailer.Decision != exp.Decision {
		t.Fatalf("trailer = %+v, want %d/%d/%d", trailer, len(exp.Events), exp.Dropped, exp.Decision)
	}
}

func TestWriteTextShape(t *testing.T) {
	exp := exportFixture(t)
	var b bytes.Buffer
	if err := WriteText(&b, exp); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"send", "deliver", "timer", "decision", "dropped"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text export missing %q:\n%s", want, out)
		}
	}
}

// chromeFile mirrors the trace-event JSON structure for validation.
type chromeFile struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		ID   int64          `json:"id"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

// TestWriteChromeStructure is the structural Perfetto-loadability pin:
// well-formed JSON, one metadata-named track per node, monotone per-track
// instant timestamps, and every flow edge referencing instants that exist
// in the file.
func TestWriteChromeStructure(t *testing.T) {
	exp := exportFixture(t)
	var b bytes.Buffer
	if err := WriteChrome(&b, exp); err != nil {
		t.Fatal(err)
	}
	var f chromeFile
	if err := json.Unmarshal(b.Bytes(), &f); err != nil {
		t.Fatalf("chrome export is not well-formed JSON: %v\n%s", err, b.String())
	}

	instants := 0
	lastTs := map[int]float64{}    // per-track monotonicity
	instantIDs := map[int64]bool{} // args.id of every instant
	flows := map[int64][2]int{}    // flow id → {starts, finishes}
	namedTracks := map[int]bool{}  // tid → has thread_name metadata
	for _, ev := range f.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" {
				namedTracks[ev.Tid] = true
			}
		case "i":
			instants++
			if prev, ok := lastTs[ev.Tid]; ok && ev.Ts < prev {
				t.Fatalf("track %d timestamps not monotone: %g after %g", ev.Tid, ev.Ts, prev)
			}
			lastTs[ev.Tid] = ev.Ts
			id, ok := ev.Args["id"].(float64)
			if !ok {
				t.Fatalf("instant without an args.id: %+v", ev)
			}
			instantIDs[int64(id)] = true
		case "s":
			c := flows[ev.ID]
			c[0]++
			flows[ev.ID] = c
		case "f":
			c := flows[ev.ID]
			c[1]++
			flows[ev.ID] = c
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if instants != len(exp.Events) {
		t.Fatalf("%d instants, want one per stored event (%d)", instants, len(exp.Events))
	}
	for tid := range lastTs {
		if !namedTracks[tid] {
			t.Fatalf("track %d has events but no thread_name metadata", tid)
		}
	}
	// Every flow edge must reference existing events: the flow ID is the
	// delivery's event ID, and both endpoints must be present exactly once.
	if len(flows) == 0 {
		t.Fatal("no flow edges for a trace with deliveries")
	}
	for id, c := range flows {
		if c[0] != 1 || c[1] != 1 {
			t.Fatalf("flow %d has %d starts and %d finishes, want 1/1", id, c[0], c[1])
		}
		if !instantIDs[id] {
			t.Fatalf("flow %d references no stored event", id)
		}
	}
	// The delivery whose parent send was dropped must NOT have grown a
	// dangling flow edge.
	for _, e := range exp.Events {
		if e.Kind != KindDeliver {
			continue
		}
		_, parentStored := flows[int64(e.ID)]
		wantStored := false
		for _, p := range exp.Events {
			if p.ID == e.Parent && p.Kind == KindSend {
				wantStored = true
			}
		}
		if parentStored != wantStored {
			t.Fatalf("delivery #%d: flow edge present=%v, want %v", e.ID, parentStored, wantStored)
		}
	}
}

// wideNodeExport is one timer event at node 2³⁴: what a crafted or corrupt
// stored trace may hold.
const wideNodeExport = `{"events":[{"id":1,"lamport":1,"at":0.5,"kind":"timer","from":17179869184,"to":1}]}`

// TestWriteChromeWideNode renders an export whose one event names node 2³⁴.
// The track metadata walks the nodes present, so it is two tracks' work, not
// 2³⁴ iterations: a served trace cannot pin a handler by naming a huge node.
func TestWriteChromeWideNode(t *testing.T) {
	var exp Export
	if err := json.Unmarshal([]byte(wideNodeExport), &exp); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	done := make(chan error, 1)
	go func() { done <- WriteChrome(&b, &exp) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("WriteChrome still rendering a one-event export after 1 s")
	}
	var f chromeFile
	if err := json.Unmarshal(b.Bytes(), &f); err != nil {
		t.Fatalf("chrome export is not well-formed JSON: %v\n%s", err, b.String())
	}
	var tracks []string
	for _, ev := range f.TraceEvents {
		if ev.Ph == "M" {
			tracks = append(tracks, fmt.Sprint(ev.Name, " ", ev.Tid, " ", ev.Args["name"]))
		}
	}
	if want := []string{"process_name 0 abenet run", "thread_name 17179869184 node 17179869184"}; !slices.Equal(tracks, want) {
		t.Fatalf("metadata %q, want %q", tracks, want)
	}
}

func TestExportPreservesHopCounter(t *testing.T) {
	r := NewRecorder(0)
	s := r.MessageSent(0, 0, 1, hopPayload{hops: 3}, network.TraceRef{})
	r.MessageDelivered(1, 0, 1, hopPayload{hops: 3}, s)
	exp := r.Export()
	for _, e := range exp.Events {
		if e.Hop != 3 {
			t.Fatalf("event %+v lost the hop counter", e)
		}
	}
}

type hopPayload struct{ hops int }

func (p hopPayload) HopCount() int { return p.hops }
