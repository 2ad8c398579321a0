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
	"io"
	"strings"
	"sync"

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

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case KindSend:
		return "send"
	case KindDeliver:
		return "deliver"
	case KindTimer:
		return "timer"
	case KindDecision:
		return "decision"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// ParseKind is the inverse of EventKind.String; it returns 0 for an
// unknown name.
func ParseKind(s string) EventKind {
	switch s {
	case "send":
		return KindSend
	case "deliver":
		return KindDeliver
	case "timer":
		return KindTimer
	case "decision":
		return KindDecision
	default:
		return 0
	}
}

// Event is one recorded network event with its causal identity.
type Event struct {
	// ID is the stable per-run identity: 1, 2, 3, … in recording order,
	// counting events dropped past the cap, so an event keeps the same ID
	// at any cap setting.
	ID EventID
	// Parent is the ID of this event's happens-before cause: for a
	// delivery, the send that produced it; for a send or timer, the
	// delivery or timer being processed when it was emitted; for the
	// decision, the event being processed when the protocol stopped the
	// network. 0 marks a causal root (emitted from Node.Init).
	Parent EventID
	// Lamport is the event's Lamport clock: one counter per node,
	// incremented at every local event and merged to max(local, sender)+1
	// on delivery.
	Lamport uint64
	// At is the virtual time of the event.
	At simtime.Time
	// Kind classifies the event.
	Kind EventKind
	// From is the sending node for sends and deliveries, and the owning
	// node for timers and decisions.
	From int
	// To is the receiving node for sends (-1 for a radio broadcast) and
	// deliveries, and the timer kind for timers; 0 for decisions.
	To int
	// Payload is the message payload (sends, deliveries) or the stop
	// cause string (decisions); nil for timers.
	Payload any
}

// Node returns the node at which the event occurred: the receiver for
// deliveries, the emitting/owning node otherwise.
func (e Event) Node() int {
	if e.Kind == KindDeliver {
		return e.To
	}
	return e.From
}

// String implements fmt.Stringer.
func (e Event) String() string {
	switch e.Kind {
	case KindTimer:
		return fmt.Sprintf("#%-6d %10.4f  timer    node %-3d kind %-3d L%-5d <#%d",
			e.ID, float64(e.At), e.From, e.To, e.Lamport, e.Parent)
	case KindDecision:
		return fmt.Sprintf("#%-6d %10.4f  decision node %-3d %v L%-5d <#%d",
			e.ID, float64(e.At), e.From, e.Payload, e.Lamport, e.Parent)
	default:
		return fmt.Sprintf("#%-6d %10.4f  %-8s %3d -> %-3d %v L%-5d <#%d",
			e.ID, float64(e.At), e.Kind, e.From, e.To, e.Payload, e.Lamport, e.Parent)
	}
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
// safe for concurrent use (the service layer snapshots recorders from
// HTTP handlers while a run may still be streaming events in).
type Recorder struct {
	mu       sync.Mutex
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

// tick advances node's Lamport clock for a purely local event. Callers
// hold r.mu.
func (r *Recorder) tick(node int) uint64 {
	for len(r.lamport) <= node {
		r.lamport = append(r.lamport, 0)
	}
	r.lamport[node]++
	return r.lamport[node]
}

// merge advances node's Lamport clock past an incoming clock value
// (delivery rule: max(local, sender)+1). Callers hold r.mu.
func (r *Recorder) merge(node int, incoming uint64) uint64 {
	for len(r.lamport) <= node {
		r.lamport = append(r.lamport, 0)
	}
	l := r.lamport[node]
	if incoming > l {
		l = incoming
	}
	l++
	r.lamport[node] = l
	return l
}

// add assigns the next ID and stores the event (or, past the cap, counts
// it — unless it is the cap-exempt decision event). Callers hold r.mu.
func (r *Recorder) add(e Event, exempt bool) network.TraceRef {
	r.nextID++
	e.ID = r.nextID
	if len(r.events) >= r.max && !exempt {
		r.dropped++
	} else {
		r.events = append(r.events, e)
	}
	return network.TraceRef{ID: e.ID, Lamport: e.Lamport}
}

// MessageSent implements network.Tracer.
func (r *Recorder) MessageSent(at simtime.Time, from, to int, payload any, cause network.TraceRef) network.TraceRef {
	r.mu.Lock()
	defer r.mu.Unlock()
	l := r.tick(from)
	return r.add(Event{Parent: cause.ID, Lamport: l, At: at, Kind: KindSend, From: from, To: to, Payload: payload}, false)
}

// MessageDelivered implements network.Tracer.
func (r *Recorder) MessageDelivered(at simtime.Time, from, to int, payload any, send network.TraceRef) network.TraceRef {
	r.mu.Lock()
	defer r.mu.Unlock()
	l := r.merge(to, send.Lamport)
	return r.add(Event{Parent: send.ID, Lamport: l, At: at, Kind: KindDeliver, From: from, To: to, Payload: payload}, false)
}

// TimerFired implements network.Tracer.
func (r *Recorder) TimerFired(at simtime.Time, node, kind int, cause network.TraceRef) network.TraceRef {
	r.mu.Lock()
	defer r.mu.Unlock()
	l := r.tick(node)
	return r.add(Event{Parent: cause.ID, Lamport: l, At: at, Kind: KindTimer, From: node, To: kind}, false)
}

// Decision implements network.Tracer. The decision event is cap-exempt: a
// truncated trace still records the terminus its analysis walks back from.
func (r *Recorder) Decision(at simtime.Time, node int, reason string, cause network.TraceRef) network.TraceRef {
	r.mu.Lock()
	defer r.mu.Unlock()
	l := r.tick(node)
	ref := r.add(Event{Parent: cause.ID, Lamport: l, At: at, Kind: KindDecision, From: node, Payload: reason}, true)
	r.decision = ref.ID
	return ref
}

// Events returns a defensive copy of the recorded events, in order.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// Len returns the number of stored events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Dropped returns how many events were dropped after the cap was reached.
func (r *Recorder) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// DecisionID returns the ID of the recorded decision event, or 0 if the
// run never stopped the network (it ran to quiescence or a horizon).
func (r *Recorder) DecisionID() EventID {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.decision
}

// Filter returns the stored events of one kind, in order. One lock, one
// pass — no intermediate copy of the full trace.
func (r *Recorder) Filter(kind EventKind) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Event
	for _, e := range r.events {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// WriteTo writes the trace as text, one event per line. It implements
// io.WriterTo.
func (r *Recorder) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	events := make([]Event, len(r.events))
	copy(events, r.events)
	dropped := r.dropped
	r.mu.Unlock()

	var total int64
	for _, e := range events {
		n, err := fmt.Fprintln(w, e.String())
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	if dropped > 0 {
		n, err := fmt.Fprintf(w, "... %d events dropped (cap reached)\n", dropped)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Summary returns a one-line description of the recorded trace. It takes
// the lock once and makes one pass over the events.
func (r *Recorder) Summary() string {
	r.mu.Lock()
	var sends, delivers, timers, decisions int
	for _, e := range r.events {
		switch e.Kind {
		case KindSend:
			sends++
		case KindDeliver:
			delivers++
		case KindTimer:
			timers++
		case KindDecision:
			decisions++
		}
	}
	n := len(r.events)
	dropped := r.dropped
	r.mu.Unlock()

	var b strings.Builder
	fmt.Fprintf(&b, "%d events (%d sends, %d deliveries, %d timers", n, sends, delivers, timers)
	if decisions > 0 {
		fmt.Fprintf(&b, ", %d decision", decisions)
	}
	b.WriteString(")")
	if dropped > 0 {
		fmt.Fprintf(&b, ", %d dropped", dropped)
	}
	return b.String()
}
