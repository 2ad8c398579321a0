package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"reflect"
	"slices"
)

// Export is a recorded trace as a Report carries it, the service stores it
// and the writers below render it. Payloads are strings (formatted
// deterministically via %+v) so an Export survives a JSON round trip; the
// hop counter of a HopCarrier payload is preserved numerically so the causal
// analysis keeps working on decoded traces.
type Export struct {
	// Events are the stored events in recording order.
	Events []Event `json:"events"`
	// Dropped counts events past the cap: recorded (they consumed IDs and
	// advanced Lamport clocks) but not stored.
	Dropped uint64 `json:"dropped,omitempty"`
	// Decision is the ID of the terminal decision event, 0 if the run
	// never stopped the network.
	Decision EventID `json:"decision,omitempty"`
}

// Export hands out the recorded trace. It formats each live payload into
// Payload and Hop in place and returns the recorder's own event slice, so
// call it once the run is over.
func (r *Recorder) Export() *Export {
	for i := range r.events {
		e := &r.events[i]
		if e.payload == nil {
			continue
		}
		e.Payload = payloadText(e.payload)
		if h, ok := e.payload.(HopCarrier); ok {
			e.Hop = h.HopCount()
		}
		e.payload = nil
	}
	return &Export{Events: r.events, Dropped: r.dropped, Decision: r.decision}
}

// payloadText is what %+v prints for payload: its String straight, for a
// fmt.Stringer that %+v would print that way, without the copy Sprintf makes
// of it. An error or a fmt.Formatter prints as %+v decides, and so does a
// nil pointer, which %+v prints as <nil> instead of calling String on it.
func payloadText(payload any) string {
	switch payload.(type) {
	case error, fmt.Formatter:
	case fmt.Stringer:
		if v := reflect.ValueOf(payload); v.Kind() != reflect.Pointer || !v.IsNil() {
			return payload.(fmt.Stringer).String()
		}
	}
	return fmt.Sprintf("%+v", payload)
}

// WriteText renders the export as human-readable text, one event per line.
func WriteText(w io.Writer, exp *Export) error {
	bw := bufio.NewWriter(w)
	for i := range exp.Events {
		e := &exp.Events[i]
		var err error
		switch e.Kind {
		case KindTimer:
			_, err = fmt.Fprintf(bw, "#%-6d %10.4f  timer    node %-3d kind %-3d L%-5d <#%d\n",
				e.ID, e.At, e.From, e.To, e.Lamport, e.Parent)
		case KindDecision:
			_, err = fmt.Fprintf(bw, "#%-6d %10.4f  decision node %-3d %s L%-5d <#%d\n",
				e.ID, e.At, e.From, e.Payload, e.Lamport, e.Parent)
		default:
			_, err = fmt.Fprintf(bw, "#%-6d %10.4f  %-8s %3d -> %-3d %s L%-5d <#%d\n",
				e.ID, e.At, e.Kind, e.From, e.To, e.Payload, e.Lamport, e.Parent)
		}
		if err != nil {
			return err
		}
	}
	if exp.Dropped > 0 {
		if _, err := fmt.Fprintf(bw, "... %d events dropped (cap reached)\n", exp.Dropped); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// jsonlTrailer is the final line of a JSONL export: an integrity footer a
// reader can use to detect truncated files and locate the decision event
// without scanning. It has no "id" field, which distinguishes it from
// event lines.
type jsonlTrailer struct {
	Events   int     `json:"events"`
	Dropped  uint64  `json:"dropped"`
	Decision EventID `json:"decision"`
}

// WriteJSONL renders the export as compact JSONL: one JSON object per
// event line, then one trailer line with the event count, the dropped
// count, and the decision event ID.
func WriteJSONL(w io.Writer, exp *Export) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range exp.Events {
		if err := enc.Encode(&exp.Events[i]); err != nil {
			return err
		}
	}
	if err := enc.Encode(jsonlTrailer{Events: len(exp.Events), Dropped: exp.Dropped, Decision: exp.Decision}); err != nil {
		return err
	}
	return bw.Flush()
}

// chromeEvent is one entry of a Chrome trace-event JSON file
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU),
// the format chrome://tracing and Perfetto load.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`  // instant-event scope
	BP   string         `json:"bp,omitempty"` // flow binding point
	ID   int64          `json:"id,omitempty"` // flow-event ID
	Args map[string]any `json:"args,omitempty"`
}

// chromeTimeScale converts virtual time to the format's microsecond
// timestamps: one virtual time unit renders as one millisecond, which
// keeps typical runs (tens of time units) comfortably zoomable.
const chromeTimeScale = 1e3

// WriteChrome renders the export as Chrome trace-event JSON, loadable in
// Perfetto (ui.perfetto.dev) and chrome://tracing. Every node gets its own
// track (pid 0, tid = node; radio broadcasts' tid -1 renders as its own
// track); each event is a thread-scoped instant on the track of the node
// it occurred at, and every send→deliver edge whose two endpoints both
// survived the cap becomes a flow arrow between the tracks. Flow IDs are
// the delivery's event ID, so duplicated deliveries (lossy-link replay,
// radio fan-out) each get their own arrow from the shared send.
func WriteChrome(w io.Writer, exp *Export) error {
	byID := make(map[EventID]*Event, len(exp.Events))
	nodes := make(map[int]bool)
	for i := range exp.Events {
		e := &exp.Events[i]
		byID[e.ID] = e
		nodes[e.Node()] = true
	}

	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(ev chromeEvent) error {
		if !first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		first = false
		buf, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		_, err = bw.Write(buf)
		return err
	}

	if err := emit(chromeEvent{Name: "process_name", Ph: "M", Pid: 0, Args: map[string]any{"name": "abenet run"}}); err != nil {
		return err
	}
	// Deterministic metadata order: ascending node index (radio track -1
	// first when present). The walk is over the nodes present, never over
	// every index up to the largest: one event may name any node.
	for _, n := range slices.Sorted(maps.Keys(nodes)) {
		name := fmt.Sprintf("node %d", n)
		if n == -1 {
			name = "radio"
		}
		if err := emit(chromeEvent{Name: "thread_name", Ph: "M", Pid: 0, Tid: n, Args: map[string]any{"name": name}}); err != nil {
			return err
		}
	}

	for i := range exp.Events {
		e := &exp.Events[i]
		args := map[string]any{"id": int64(e.ID), "lamport": e.Lamport}
		if e.Parent != 0 {
			args["parent"] = int64(e.Parent)
		}
		if e.Payload != "" {
			args["payload"] = e.Payload
		}
		if e.Hop != 0 {
			args["hop"] = e.Hop
		}
		if err := emit(chromeEvent{
			Name: e.Kind.String(), Ph: "i", S: "t",
			Ts: e.At * chromeTimeScale, Pid: 0, Tid: e.Node(),
			Args: args,
		}); err != nil {
			return err
		}
		// A delivery whose parent send survived the cap gets a flow arrow
		// from the send's track to its own; deliveries of dropped sends
		// stay arrow-less so every flow edge references existing events.
		if e.Kind == KindDeliver {
			if s, ok := byID[e.Parent]; ok && s.Kind == KindSend {
				if err := emit(chromeEvent{
					Name: "msg", Ph: "s", Ts: s.At * chromeTimeScale,
					Pid: 0, Tid: s.Node(), ID: int64(e.ID),
				}); err != nil {
					return err
				}
				if err := emit(chromeEvent{
					Name: "msg", Ph: "f", BP: "e", Ts: e.At * chromeTimeScale,
					Pid: 0, Tid: e.Node(), ID: int64(e.ID),
				}); err != nil {
					return err
				}
			}
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// formats are the renderings Write knows, by the name the CLI's
// -trace-format and the service's ?format= spell.
var formats = map[string]struct {
	contentType string
	write       func(io.Writer, *Export) error
}{
	"chrome": {"application/json", WriteChrome},
	"jsonl":  {"application/x-ndjson", WriteJSONL},
	"text":   {"text/plain; charset=utf-8", WriteText},
}

// FormatNames spells the format names for usage and error texts.
const FormatNames = "chrome, jsonl or text"

// ContentType returns the media type of a format, "" for a name Write
// does not render.
func ContentType(format string) string { return formats[format].contentType }

// Write renders the export in the named format.
func Write(w io.Writer, exp *Export, format string) error {
	f, ok := formats[format]
	if !ok {
		return fmt.Errorf("trace: unknown format %q (%s)", format, FormatNames)
	}
	return f.write(w, exp)
}
