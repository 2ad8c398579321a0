// Package trace records a causal event trace of a simulation run.
//
// A Recorder implements network.Tracer: every send, delivery, timer firing
// and terminal decision becomes an Event carrying a stable ID, a Lamport
// clock, and a parent edge — the exact happens-before cause handed in by
// the network's current-cause threading (a delivery's parent is the send
// that produced it; a send's or timer's parent is the delivery or timer
// the node was processing when it emitted it). Since every event has at
// most one parent, the trace forms a forest of causal trees rooted at the
// Init-time sends, and the chain that produced the decision event is the
// run's critical path (see the causal subpackage).
//
// Recording is bounded: events past the cap are counted in Dropped, not
// stored, and keep consuming IDs so an event's ID never depends on the
// cap. The decision event is cap-exempt — a truncated trace still ends
// with the event the analysis walks back from, mirroring the probe
// package's cap-exempt closing sample.
//
// The Recorder only appends to its own storage — it never schedules or
// mutates simulation state — so a traced run is byte-identical to an
// untraced one at the same (Env, seed). The golden pins in the
// runner tests enforce that.
package trace

import (
	"fmt"

	"abenet/internal/network"
	"abenet/internal/simtime"
)

// EventID is the stable identity of a recorded event (see network.EventID).
type EventID = network.EventID

// DefaultMaxEvents bounds a Recorder when the configured cap is zero.
const DefaultMaxEvents = 100_000

// Config asks a run to record a causal trace (runner.Env.Trace).
type Config struct {
	// MaxEvents caps the stored events; 0 means DefaultMaxEvents. Events
	// past the cap are counted in the export's Dropped, not stored; the
	// terminal decision event is exempt from the cap.
	MaxEvents int `json:"max_events,omitempty"`
}

// Validate checks the trace configuration.
func (c *Config) Validate() error {
	if c == nil {
		return nil
	}
	if c.MaxEvents < 0 {
		return fmt.Errorf("trace: max_events %d must be non-negative", c.MaxEvents)
	}
	return nil
}

// EventKind classifies a recorded event.
type EventKind int

// The recordable event kinds.
const (
	KindSend EventKind = iota + 1
	KindDeliver
	KindTimer
	// KindDecision is the protocol's terminal event: a node stopped the
	// network (e.g. "leader elected"). At most one per run; cap-exempt.
	KindDecision
)

// kindNames are the wire names of the event kinds: what an Event's "kind"
// marshals to and what the text and Chrome renderings print.
var kindNames = [...]string{KindSend: "send", KindDeliver: "deliver", KindTimer: "timer", KindDecision: "decision"}

// String implements fmt.Stringer.
func (k EventKind) String() string {
	if k >= KindSend && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// MarshalText implements encoding.TextMarshaler: a kind travels by name.
func (k EventKind) MarshalText() ([]byte, error) {
	if k < KindSend || int(k) >= len(kindNames) {
		return nil, fmt.Errorf("trace: cannot encode event kind %d", int(k))
	}
	return []byte(kindNames[k]), nil
}

// UnmarshalText implements encoding.TextUnmarshaler; an unknown name is an
// error, so a trace this build cannot interpret never half-decodes.
func (k *EventKind) UnmarshalText(text []byte) error {
	for kind := KindSend; int(kind) < len(kindNames); kind++ {
		if kindNames[kind] == string(text) {
			*k = kind
			return nil
		}
	}
	return fmt.Errorf("trace: unknown event kind %q", text)
}

// Event is one recorded network event with its causal identity, in the
// form it is stored, served and analysed.
type Event struct {
	// ID is the stable per-run identity: 1, 2, 3, … in recording order,
	// counting events dropped past the cap, so an event keeps the same ID
	// at any cap setting.
	ID EventID `json:"id"`
	// Parent is the ID of this event's happens-before cause: for a
	// delivery, the send that produced it; for a send or timer, the
	// delivery or timer being processed when it was emitted; for the
	// decision, the event being processed when the protocol stopped the
	// network. 0 marks a causal root (emitted from Node.Init).
	Parent EventID `json:"parent,omitempty"`
	// Lamport is the event's Lamport clock: one counter per node,
	// incremented at every local event and merged to max(local, sender)+1
	// on delivery.
	Lamport uint64 `json:"lamport"`
	// At is the virtual time of the event.
	At float64 `json:"at"`
	// Kind classifies the event.
	Kind EventKind `json:"kind"`
	// From is the sending node for sends and deliveries, and the owning
	// node for timers and decisions.
	From int `json:"from"`
	// To is the receiving node for sends (-1 for a radio broadcast) and
	// deliveries, and the timer kind for timers; 0 for decisions.
	To int `json:"to"`
	// Payload is the message payload (sends, deliveries) or the stop cause
	// (decisions), stringified deterministically via %+v by Export; empty
	// for timers.
	Payload string `json:"payload,omitempty"`
	// Hop is the payload's relay-hop counter when it implements
	// HopCarrier; 0 otherwise. Filled in by Export.
	Hop int `json:"hop,omitempty"`

	// payload is the live value between recording and Export: formatting
	// it costs more than the rest of the tracer callback together, so it
	// stays off the recording path.
	payload any
}

// Node returns the node at which the event occurred: the receiver for
// deliveries, the emitting/owning node otherwise.
func (e *Event) Node() int {
	if e.Kind == KindDeliver {
		return e.To
	}
	return e.From
}

// HopCarrier is implemented by message payloads that carry the protocol's
// relay-hop counter (the election algorithm's d+1 bound counter). Exports
// preserve the value so the causal analysis can check the per-chain
// invariant — a chain of k relays must carry a counter ≥ k — after the
// live payloads are gone.
type HopCarrier interface {
	HopCount() int
}

// Recorder collects events in order. It implements network.Tracer and is
// single-threaded like the run it observes: one recorder belongs to one
// run, and Export is called after the run returned.
type Recorder struct {
	events   []Event
	max      int
	dropped  uint64
	nextID   EventID
	lamport  []uint64 // per-node Lamport counters, grown on demand
	decision EventID
}

// NewRecorder returns a Recorder storing at most maxEvents events
// (0 means DefaultMaxEvents). Further events are counted, not stored; the
// decision event is exempt from the cap.
func NewRecorder(maxEvents int) *Recorder {
	if maxEvents <= 0 {
		maxEvents = DefaultMaxEvents
	}
	// Seed the backing array with a real capacity: recording is the hot
	// path of a traced run, and growing from nil would copy the whole
	// trace log²(n) times.
	cap := maxEvents
	if cap > 4096 {
		cap = 4096
	}
	return &Recorder{max: maxEvents, events: make([]Event, 0, cap)}
}

// add advances the Lamport clock of the node the event occurs at — past
// incoming, the sender's clock on a delivery (max(local, sender)+1) and 0
// for a purely local event — assigns the next ID and stores the event (or,
// past the cap, counts it — unless it is the cap-exempt decision event).
func (r *Recorder) add(e Event, incoming uint64) network.TraceRef {
	node := e.Node()
	for len(r.lamport) <= node {
		r.lamport = append(r.lamport, 0)
	}
	e.Lamport = max(r.lamport[node], incoming) + 1
	r.lamport[node] = e.Lamport
	r.nextID++
	e.ID = r.nextID
	if len(r.events) >= r.max && e.Kind != KindDecision {
		r.dropped++
	} else {
		r.events = append(r.events, e)
	}
	return network.TraceRef{ID: e.ID, Lamport: e.Lamport}
}

// MessageSent implements network.Tracer.
func (r *Recorder) MessageSent(at simtime.Time, from, to int, payload any, cause network.TraceRef) network.TraceRef {
	return r.add(Event{Parent: cause.ID, At: float64(at), Kind: KindSend, From: from, To: to, payload: payload}, 0)
}

// MessageDelivered implements network.Tracer.
func (r *Recorder) MessageDelivered(at simtime.Time, from, to int, payload any, send network.TraceRef) network.TraceRef {
	return r.add(Event{Parent: send.ID, At: float64(at), Kind: KindDeliver, From: from, To: to, payload: payload}, send.Lamport)
}

// TimerFired implements network.Tracer.
func (r *Recorder) TimerFired(at simtime.Time, node, kind int, cause network.TraceRef) network.TraceRef {
	return r.add(Event{Parent: cause.ID, At: float64(at), Kind: KindTimer, From: node, To: kind}, 0)
}

// Decision implements network.Tracer. The decision event is cap-exempt: a
// truncated trace still records the terminus its analysis walks back from.
func (r *Recorder) Decision(at simtime.Time, node int, reason string, cause network.TraceRef) network.TraceRef {
	ref := r.add(Event{Parent: cause.ID, At: float64(at), Kind: KindDecision, From: node, payload: reason}, 0)
	r.decision = ref.ID
	return ref
}
