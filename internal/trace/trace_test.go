package trace

import (
	"testing"

	"abenet/internal/channel"
	"abenet/internal/dist"
	"abenet/internal/network"
	"abenet/internal/simtime"
	"abenet/internal/topology"
)

func TestRecorderCollectsInOrder(t *testing.T) {
	r := NewRecorder(0)
	s := r.MessageSent(1, 0, 1, "a", network.TraceRef{})
	d := r.MessageDelivered(2, 0, 1, "a", s)
	r.TimerFired(3, 1, 7, d)

	events := r.Export().Events
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3", len(events))
	}
	wantKinds := []EventKind{KindSend, KindDeliver, KindTimer}
	for i, e := range events {
		if e.Kind != wantKinds[i] {
			t.Errorf("event %d kind = %v, want %v", i, e.Kind, wantKinds[i])
		}
		if e.ID != EventID(i+1) {
			t.Errorf("event %d ID = %d, want %d", i, e.ID, i+1)
		}
	}
	// Parent edges: the delivery is parented to the send, the timer to the
	// delivery whose handler set it.
	if events[1].Parent != events[0].ID {
		t.Errorf("delivery parent = #%d, want the send #%d", events[1].Parent, events[0].ID)
	}
	if events[2].Parent != events[1].ID {
		t.Errorf("timer parent = #%d, want the delivery #%d", events[2].Parent, events[1].ID)
	}
}

func TestRecorderLamportClocks(t *testing.T) {
	r := NewRecorder(0)
	// Node 0 does two local events, then sends; node 1 is fresh, so the
	// delivery must jump its clock to the sender's + 1.
	r.TimerFired(0.5, 0, 1, network.TraceRef{})
	r.TimerFired(0.6, 0, 1, network.TraceRef{})
	s := r.MessageSent(1, 0, 1, "x", network.TraceRef{})
	if s.Lamport != 3 {
		t.Fatalf("send lamport = %d, want 3", s.Lamport)
	}
	d := r.MessageDelivered(2, 0, 1, "x", s)
	if d.Lamport != 4 {
		t.Fatalf("delivery lamport = %d, want max(0,3)+1 = 4", d.Lamport)
	}
	// A delivery with a zero ref (untraced cause) just ticks locally.
	d2 := r.MessageDelivered(3, 0, 1, "y", network.TraceRef{})
	if d2.Lamport != 5 {
		t.Fatalf("zero-ref delivery lamport = %d, want 5", d2.Lamport)
	}
}

func TestRecorderCapAndStableIDs(t *testing.T) {
	r := NewRecorder(2)
	for i := 0; i < 5; i++ {
		r.MessageSent(simtime.Time(i), 0, 1, i, network.TraceRef{})
	}
	// IDs keep counting past the cap, so a later (cap-exempt) event gets
	// the ID it would have had uncapped.
	dec := r.Decision(9, 0, "done", network.TraceRef{})
	if dec.ID != 6 {
		t.Fatalf("decision ID = %d, want 6 (IDs count dropped events)", dec.ID)
	}
	exp := r.Export()
	if len(exp.Events) != 3 {
		t.Fatalf("stored %d events, want 2 capped + the exempt decision", len(exp.Events))
	}
	if exp.Dropped != 3 {
		t.Fatalf("Dropped = %d, want 3", exp.Dropped)
	}
}

func TestDecisionIsCapExempt(t *testing.T) {
	r := NewRecorder(1)
	r.MessageSent(0, 0, 1, "a", network.TraceRef{})
	r.MessageSent(1, 0, 1, "b", network.TraceRef{}) // dropped
	d := r.MessageDelivered(2, 0, 1, "a", network.TraceRef{})
	r.Decision(3, 1, "leader elected", d)

	exp := r.Export()
	events := exp.Events
	if len(events) != 2 {
		t.Fatalf("stored %d events, want 2 (1 capped + the exempt decision)", len(events))
	}
	last := events[len(events)-1]
	if last.Kind != KindDecision {
		t.Fatalf("last stored event is %v, want the decision", last.Kind)
	}
	if last.Parent != d.ID {
		t.Fatalf("decision parent = #%d, want #%d", last.Parent, d.ID)
	}
	if exp.Decision != last.ID {
		t.Fatalf("Decision = %d, want %d", exp.Decision, last.ID)
	}
	if exp.Dropped != 2 {
		t.Fatalf("Dropped = %d, want 2 (the capped send and the delivery)", exp.Dropped)
	}
}

func TestKindStrings(t *testing.T) {
	cases := map[EventKind]string{
		KindSend:     "send",
		KindDeliver:  "deliver",
		KindTimer:    "timer",
		KindDecision: "decision",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
		var back EventKind
		if err := back.UnmarshalText([]byte(want)); err != nil || back != k {
			t.Errorf("UnmarshalText(%q) = %v, %v, want %v", want, back, err, k)
		}
	}
	var k EventKind
	if err := k.UnmarshalText([]byte("bogus")); err == nil {
		t.Error("UnmarshalText accepted an unknown kind")
	}
	if _, err := EventKind(0).MarshalText(); err == nil {
		t.Error("MarshalText encoded the zero kind")
	}
}

func TestConfigValidate(t *testing.T) {
	var nilCfg *Config
	if err := nilCfg.Validate(); err != nil {
		t.Fatalf("nil config: %v", err)
	}
	if err := (&Config{MaxEvents: -1}).Validate(); err == nil {
		t.Fatal("negative cap accepted")
	}
	if err := (&Config{MaxEvents: 10}).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

// echoNode sends one message from node 0 and stops when it arrives.
type echoNode struct {
	id int
}

func (n *echoNode) Init(ctx *network.Context) {
	if n.id == 0 {
		ctx.Send(0, "ping")
	}
}

func (n *echoNode) OnMessage(ctx *network.Context, _ int, _ any) {
	ctx.StopNetwork("echo received")
}

func (n *echoNode) OnTimer(*network.Context, int) {}

// TestRecorderAsNetworkTracer drives a Recorder through a real network run
// and checks the causal chain end to end: Init send (root) → delivery
// (parented to the send, payload unwrapped) → decision (parented to the
// delivery).
func TestRecorderAsNetworkTracer(t *testing.T) {
	rec := NewRecorder(0)
	net, err := network.New(network.Config{
		Graph:  topology.Ring(2),
		Links:  channel.RandomDelayFactory(dist.NewDeterministic(1)),
		Seed:   3,
		Tracer: rec,
	}, func(i int) network.Node { return &echoNode{id: i} })
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Run(100, 0); err != nil {
		t.Fatal(err)
	}

	exp := rec.Export()
	events := exp.Events
	if len(events) != 3 {
		t.Fatalf("got %d events, want send+deliver+decision:\n%v", len(events), events)
	}
	send, deliver, decision := events[0], events[1], events[2]
	if send.Kind != KindSend || send.Parent != 0 {
		t.Fatalf("first event = %+v, want a root send", send)
	}
	if deliver.Kind != KindDeliver || deliver.Parent != send.ID {
		t.Fatalf("second event = %+v, want a delivery parented to #%d", deliver, send.ID)
	}
	if deliver.Payload != "ping" {
		t.Fatalf("delivery payload = %v, want the unwrapped \"ping\"", deliver.Payload)
	}
	if decision.Kind != KindDecision || decision.Parent != deliver.ID {
		t.Fatalf("third event = %+v, want a decision parented to #%d", decision, deliver.ID)
	}
	if decision.Payload != "echo received" {
		t.Fatalf("decision payload = %v", decision.Payload)
	}
	if send.Lamport != 1 || deliver.Lamport != 2 || decision.Lamport != 3 {
		t.Fatalf("lamport chain = %d,%d,%d, want 1,2,3",
			send.Lamport, deliver.Lamport, decision.Lamport)
	}
	if exp.Decision != decision.ID {
		t.Fatalf("Decision = %d, want %d", exp.Decision, decision.ID)
	}
}
