// Package network executes message-passing protocols on simulated networks.
//
// A Network wires a topology, a link factory (delay model), a clock model
// and a processing-time model onto the discrete-event kernel, and runs one
// protocol instance per node. The three ABE quantities of Definition 1 are
// all first-class here:
//
//	δ — every link reports the exact mean of its delay distribution;
//	    MaxLinkMeanDelay() is the network's tightest valid δ.
//	s_low, s_high — the clock model declares its rate bounds.
//	γ — the processing-time distribution's mean.
//
// Protocols interact with the world only through a Context: local ports,
// local timers in local clock time, a private random stream, and the known
// ring size n. Networks can be declared anonymous, in which case reading
// the node identity panics — the simulator enforces the paper's anonymity
// assumption mechanically.
//
// Construction is flat: New lays every kind of per-node and per-edge state
// (node streams, link streams, the store's link rows) in one slice each,
// reads both ends of every edge and its in-port straight off the graph's
// arrays, and reserves the kernel's run lane for one timer per node. The
// network has one Context, pointed at whichever node it is dispatching, so a
// node is its stream. A link is a row of the one channel.Store, under the one
// discipline cfg.Links names, so no edge gets an object of its own; a perfect
// clock reads real time, so a network of them keeps no clock at all.
// Deliveries come back through Sink.Deliver(edge, ·) and untraced, fault-free
// timers through one handler per timer kind with the node as the event
// argument, so an idle node costs no closure. TestAllocationBudget holds the
// line.
//
// A network owns its arrays from New to Release, and no longer. New takes
// its node table, its streams and its busy servers' completion times from
// the arrays earlier networks in the process released (package reuse), or
// lays them out afresh; the store and the kernel take theirs the same way.
// The run substrate calls Release once, after a run that returned normally
// and after everything it reports has been read off the network: then every
// one of those arrays goes on to the next network, and the network's slices
// are nil. A network whose run failed or panicked is never released, so what
// it may have left half-written goes to the collector, not to another run.
//
// Deferred work is data. Whatever has to wait outside the store and the
// kernel's own queue — a timer set under a tracer, anything in a node's
// processing queue, a message a stalling node or a plan's reorder axis holds
// back from its link — is a work record in a free-listed slab, named by its
// slot in the kernel event that ends the wait: no path through the network
// builds a closure per event, and a sent message is always countable, held
// here or in flight there. A crash retires a node's waiting work without
// touching it: the kernel's sequence number at the crash is recorded, and
// work whose event was scheduled below it is stale when the event runs.
//
// There is one wire, and the network decides at both ends of it. Point-to-point
// or radio, a payload leaves a node through Context.transmit (count, trace,
// Byzantine intercept) and Network.put (outage, the plan's link faults, trace
// tag, store.Send on the link's row), waits in the store — package channel
// only carries — and comes back through the store's Sink: edgeSink for an
// edge's link, radioSink for a sender's radio, which fans out over the
// sender's out-edges into the same deliverTo. The media differ in what a row
// stands for and in that Sink.
package network

import (
	"errors"
	"fmt"

	"abenet/internal/byzantine"
	"abenet/internal/channel"
	"abenet/internal/clock"
	"abenet/internal/dist"
	"abenet/internal/faults"
	"abenet/internal/probe"
	"abenet/internal/reuse"
	"abenet/internal/rng"
	"abenet/internal/sim"
	"abenet/internal/simtime"
	"abenet/internal/topology"
)

// Node is the behaviour of one protocol instance. Implementations must be
// deterministic given the Context's random stream.
type Node interface {
	// Init runs once at time zero, before any message flows.
	Init(ctx *Context)
	// OnMessage handles a message delivered on the given local in-port.
	OnMessage(ctx *Context, inPort int, payload any)
	// OnTimer handles a timer set via Context.SetLocalTimerFunc.
	OnTimer(ctx *Context, kind int)
}

// EventID identifies one recorded trace event. IDs are assigned by the
// Tracer implementation; 0 means "no event" (an untraced cause, or a root
// event with no recorded parent).
type EventID int64

// TraceRef names a recorded trace event together with its Lamport clock.
// The network threads refs through the causal chain — each Tracer callback
// receives the ref of the event that caused the one being recorded, and
// returns the ref of the event it recorded — so attribution is exact: a
// delivery is parented to the send that produced it (the ref rides across
// the link with the payload), and a send or timer is parented to the
// delivery or timer the node was processing when it emitted it. Carrying
// the Lamport clock inside the ref lets an implementation merge clocks on
// delivery without keeping per-event state alive past its storage cap.
// The zero TraceRef marks a causal root (e.g. a send from Node.Init).
type TraceRef struct {
	ID      EventID
	Lamport uint64
}

// Tracer observes network events and assigns each a causal identity.
// Implementations must not mutate protocol state, and must not schedule
// kernel events — a traced run must stay byte-identical to an untraced
// one. A nil Tracer disables tracing. Each method returns the ref
// of the event it recorded so the network can hand it to causally
// downstream events; cause (resp. send, parent) is the ref of the event
// that led to this one, zero for causal roots.
type Tracer interface {
	// MessageSent records a logical send from node from to node to (-1 for
	// a radio broadcast). cause is the event the sender was processing.
	MessageSent(at simtime.Time, from, to int, payload any, cause TraceRef) TraceRef
	// MessageDelivered records a delivery; send is the ref returned by the
	// MessageSent that produced this payload (zero if the payload predates
	// tracing, which cannot happen under a Tracer fixed at construction).
	MessageDelivered(at simtime.Time, from, to int, payload any, send TraceRef) TraceRef
	// TimerFired records a local timer firing; cause is the event the node
	// was processing when it set the timer.
	TimerFired(at simtime.Time, node, kind int, cause TraceRef) TraceRef
	// Decision records the protocol's terminal event: a node stopped the
	// network (Context.StopNetwork), e.g. because a leader was elected.
	// cause is the event being processed when the protocol decided.
	Decision(at simtime.Time, node int, reason string, cause TraceRef) TraceRef
}

// tracedPayload tags a payload crossing a link with the ref of the send
// event that produced it, so the delivery at the far end can name its
// exact cause. Links treat payloads as opaque values — the tag changes no
// delay sampling and no scheduling, which is what keeps a traced run
// byte-identical to an untraced one. Payloads are tagged after the
// Byzantine intercept (a corrupting adversary replaces the payload; the
// tag must survive on whatever actually crosses the link) and stripped in
// deliverTo before the protocol sees them.
type tracedPayload struct {
	payload any
	send    TraceRef
}

// unwrapTraced strips the tag: the send that produced the payload (zero if
// it crossed the link untagged) and the payload the protocol sent.
func unwrapTraced(payload any) (TraceRef, any) {
	if tp, ok := payload.(tracedPayload); ok {
		return tp.send, tp.payload
	}
	return TraceRef{}, payload
}

// Metrics aggregates network-wide counters.
type Metrics struct {
	MessagesSent      uint64 // logical sends (each hop of a travelling token counts once)
	MessagesDelivered uint64 // messages handled: handed to a live node's OnMessage
	Transmissions     uint64 // physical transmissions including ARQ retries
	TimersFired       uint64
}

// Config describes a network to build.
type Config struct {
	// Graph is the communication topology. Required.
	Graph *topology.Graph
	// Links is the link discipline of every directed edge. Required.
	Links channel.Factory
	// Clocks assigns local clocks. Nil means perfect unit-rate clocks.
	Clocks clock.Model
	// Processing is the per-event processing-time distribution (the γ
	// model). Nil means instantaneous processing.
	Processing dist.Dist
	// Seed determines every random choice in the run.
	Seed uint64
	// Scheduler selects the kernel's event-queue implementation by name
	// (sim.SchedulerHeap, sim.SchedulerCalendar). Empty means the default
	// heap. Every scheduler implements the same (time, seq) total order, so
	// runs are byte-identical across choices — this knob trades queue
	// performance characteristics only.
	Scheduler string
	// Anonymous networks panic if a protocol reads a node identity.
	Anonymous bool
	// Tracer observes events; nil disables tracing.
	Tracer Tracer
	// Faults optionally injects deterministic message faults, node churn
	// and link outages (see internal/faults). Nil disables the subsystem
	// entirely: the run is byte-identical to one without it.
	Faults *faults.Plan
	// Byzantine optionally assigns adversarial roles to nodes (see
	// internal/byzantine): equivocation, omission, corruption and
	// stalling, intercepted on the send path. Nil disables the subsystem
	// entirely: the run is byte-identical to one without it.
	Byzantine *byzantine.Plan
	// LocalBroadcast switches the medium to Khan & Vaidya's local-
	// broadcast model: protocols send via Context.Broadcast only (Send
	// panics), and each broadcast is one atomic radio transmission
	// delivered identically to every out-neighbour at one instant. When
	// set, Links must be nil and BroadcastDelay states the medium delay.
	LocalBroadcast bool
	// BroadcastDelay is the per-transmission delay distribution of the
	// local-broadcast medium. Nil means Exponential(1). Ignored unless
	// LocalBroadcast is set.
	BroadcastDelay dist.Dist
}

// Network is a runnable protocol deployment. Create one with New, then Run.
//
// Per-node and per-edge state lives in one slice per kind, indexed by node
// or by edge index (edges are numbered in (node, out-port) order, the order
// Graph.Edges lists them), so building a network costs a fixed number of
// allocations per layer plus whatever makeNode allocates itself — rings of
// 10⁵–10⁶ nodes are built per run. The wiring is the graph's own CSR arrays,
// never copied: edge e leaves on out-port e−OutStart[u] of its tail u and
// reaches Head[e] on in-port InPort[e]. A link is row k of store: row e is
// edge e's link, or, under LocalBroadcast, row u is node u's radio.
type Network struct {
	cfg      Config
	kernel   *sim.Kernel
	nodes    []Node
	ctx      Context        // the one Context: it names the node being dispatched
	nodeRNG  []rng.Source   // nodeRNG[i] = node i's private stream
	clocks   []clock.Clock  // clocks[i] may keep a pointer into clockRNG; nil under perfect clocks
	clockRNG []rng.Source   // per-node clock streams; nil likewise
	procRNG  []rng.Source   // per-node processing-time streams; nil without a processing model
	nextFree []simtime.Time // per-node completion time of the busy server; nil likewise
	adj      topology.CSR   // the graph's arrays
	linkRNG  []rng.Source   // linkRNG[k] = stream of link k
	store    *channel.Store // every link, and every message in flight on either medium
	metrics  Metrics
	makeNode func(i int) Node // retained for fault-recovery restarts
	life     *lifecycle       // nil unless cfg.Faults is set
	adv      *adversary       // nil unless cfg.Byzantine is set
	probe    *probe.Collector // nil unless InstallProbe attached one

	// timers[kind] is the kernel handler that fires OnTimer(kind) on the
	// node given as the event argument; registered on first use (see
	// timerHandler), zero until then.
	timers [maxTimerKinds]sim.HandlerID

	// slab holds the calls that have to wait (see work), payloads[s] the
	// payload of slab[s] while a message waits there, and freeWork the vacant
	// slots; timerDue, queueDone and holdOver are the kernel handlers that take
	// a slot as their event argument. held counts the messages waiting there
	// for a link (see hold): sent, not yet on a wire; queued the messages
	// waiting in a processing queue (see process): off the wire, not yet
	// handled.
	slab                          []work
	payloads                      []any
	freeWork                      []uint32
	timerDue, queueDone, holdOver sim.HandlerID
	held, queued                  int

	// cause is the ref of the trace event whose handler is currently
	// running — the delivery or timer being processed — so that sends,
	// timers and decisions emitted from inside it are parented exactly.
	// The kernel is single-threaded, so a plain field with save/restore
	// around each handler is enough. Always zero when cfg.Tracer is nil.
	cause TraceRef
}

// edgeSink and radioSink are the two channel.Sink faces of a network: a
// point-to-point link delivers on its edge, a radio link fans out over its
// sender's out-edges.
type (
	edgeSink  struct{ net *Network }
	radioSink struct{ net *Network }
)

func (s edgeSink) Deliver(edge int, payload any)    { s.net.deliverTo(edge, payload) }
func (s radioSink) Deliver(sender int, payload any) { s.net.fanout(sender, payload) }

// New builds a network running makeNode(i) on node i of cfg.Graph.
func New(cfg Config, makeNode func(i int) Node) (*Network, error) {
	if cfg.Graph == nil {
		return nil, errors.New("network: config needs a graph")
	}
	if cfg.LocalBroadcast {
		if cfg.Links != nil {
			return nil, errors.New("network: LocalBroadcast replaces per-edge links; set BroadcastDelay, not Links")
		}
		if cfg.Faults.HasLinkFaults() {
			return nil, errors.New("network: per-message link faults (Loss/Duplicate/Reorder) model point-to-point channels and do not compose with the local-broadcast medium")
		}
		if cfg.BroadcastDelay == nil {
			cfg.BroadcastDelay = dist.NewExponential(1)
		}
	} else if cfg.Links == nil {
		return nil, errors.New("network: config needs a link factory")
	}
	if makeNode == nil {
		return nil, errors.New("network: nil node constructor")
	}
	if err := cfg.Graph.Validate(); err != nil {
		return nil, fmt.Errorf("network: %w", err)
	}
	if cfg.Clocks == nil {
		cfg.Clocks = clock.PerfectModel{}
	}
	_, perfect := cfg.Clocks.(clock.PerfectModel)

	kernel, err := sim.NewNamed(cfg.Scheduler)
	if err != nil {
		return nil, fmt.Errorf("network: %w", err)
	}

	graph := cfg.Graph
	n := graph.N()
	// A pending timer per node is what tick-driven protocols hold from Init
	// on, at non-decreasing instants; messages in flight grow the heap lane.
	kernel.Reserve(n)
	root := rng.New(cfg.Seed)
	net := &Network{
		cfg:      cfg,
		kernel:   kernel,
		nodes:    nodeArrays.Get(n),
		nodeRNG:  streamArrays.Get(n),
		adj:      graph.CSR(),
		makeNode: makeNode,
	}
	net.ctx.net = net
	net.timerDue = kernel.Register(net.fireTimer)
	net.queueDone = kernel.Register(net.complete)
	net.holdOver = kernel.Register(net.release)
	if cfg.Processing != nil {
		net.procRNG = streamArrays.Get(n)
		net.nextFree = timeArrays.GetZeroed(n)
		procStreams := root.Indexed("proc")
		for i := range net.procRNG {
			net.procRNG[i] = procStreams.At(i)
		}
	}
	if cfg.Faults != nil {
		life, err := newLifecycle(net, cfg.Faults, root)
		if err != nil {
			return nil, fmt.Errorf("network: %w", err)
		}
		net.life = life
	}
	if cfg.Byzantine != nil {
		adv, err := newAdversary(net, cfg.Byzantine, root)
		if err != nil {
			return nil, fmt.Errorf("network: %w", err)
		}
		net.adv = adv
	}

	// A perfect clock reads real time: LocalTime is now, and a timer fires
	// localDelta after now — what a rate-1 clock computes, exactly, since 1·t
	// and δ/1 are exact in IEEE-754. Other models get a clock and a stream per
	// node; skipping them shifts no other stream, as deriving one advances
	// nothing.
	if !perfect {
		net.clocks = clockArrays.Get(n)
		net.clockRNG = streamArrays.Get(n)
	}
	clockStreams, nodeStreams := root.Indexed("clock"), root.Indexed("node")
	for i := 0; i < n; i++ {
		if net.clocks != nil {
			net.clockRNG[i] = clockStreams.At(i)
			net.clocks[i] = cfg.Clocks.NewClock(&net.clockRNG[i])
		}
		net.nodeRNG[i] = nodeStreams.At(i)
		net.nodes[i] = makeNode(i)
		if net.nodes[i] == nil {
			return nil, fmt.Errorf("network: makeNode(%d) returned nil", i)
		}
	}

	// One link per directed edge, or — on the radio — one random-delay link per
	// sender, whose single delivery per transmission fanout spreads over the
	// sender's out-edges at the shared instant: a stream each, and a row each
	// in the store. The radio's stream label is distinct from "edge", so
	// switching media re-seeds nothing else.
	links, label, count := cfg.Links, "edge", len(net.adj.Head)
	var sink channel.Sink = edgeSink{net}
	if cfg.LocalBroadcast {
		links, label, count = channel.RandomDelayFactory(cfg.BroadcastDelay), "bcast", n
		sink = radioSink{net}
	}
	net.linkRNG = streamArrays.Get(count)
	streams := root.Indexed(label)
	for k := range net.linkRNG {
		net.linkRNG[k] = streams.At(k)
	}
	net.store = channel.NewStore(kernel, sink, links, net.linkRNG)
	if net.life != nil {
		net.life.sizeLinkState()
	}
	return net, nil
}

// The pools behind a network's per-node and per-link arrays (see Release).
// Streams and the node and clock tables are written whole by New before
// anything reads them; a busy server's completion times are read first, so
// they are taken zeroed.
var (
	nodeArrays   = reuse.New[Node](true)
	clockArrays  = reuse.New[clock.Clock](true)
	streamArrays = reuse.New[rng.Source](false)
	timeArrays   = reuse.New[simtime.Time](false)
)

// Release hands the network's arrays to the next network built in this
// process: its node table, its node, link, clock and processing streams and
// completion times, the store's rows, columns and slot pages, and the
// kernel's run lane and heap. Call it once, after everything the run reports
// has been read off the network; the run that built it must have returned
// normally, so that no array goes back half-written by a failure. Release
// nils the slices it hands on, so a network used after its release panics
// instead of reading another run's state.
func (net *Network) Release() {
	nodeArrays.Put(net.nodes)
	clockArrays.Put(net.clocks)
	for _, s := range [...][]rng.Source{net.nodeRNG, net.clockRNG, net.procRNG, net.linkRNG} {
		streamArrays.Put(s)
	}
	timeArrays.Put(net.nextFree)
	net.store.Recycle()
	net.kernel.Recycle()
	net.nodes, net.clocks, net.nextFree = nil, nil, nil
	net.nodeRNG, net.clockRNG, net.procRNG, net.linkRNG = nil, nil, nil, nil
}

// deliverTo delivers one payload at the receiving end of edge, into the
// destination's processing queue. Deliveries to a crashed node are
// suppressed (counted as dead letters), deterministically: the suppression
// depends only on the node's fault schedule. A message counts as delivered
// when it is handled (see handle), not when it enters the queue.
func (net *Network) deliverTo(edge int, payload any) {
	to, inPort := int(net.adj.Head[edge]), int(net.adj.InPort[edge])
	if net.life != nil && net.life.down[to] {
		net.life.tel.DeadLetters++
		return
	}
	switch {
	case net.cfg.Tracer != nil:
		// The delivery is recorded with the send that caused it, and the
		// handler runs with the delivery as the cause of whatever it does.
		send, inner := unwrapTraced(payload)
		ref := net.cfg.Tracer.MessageDelivered(net.kernel.Now(), net.adj.Tail(edge), to, inner, send)
		net.process(work{node: int32(to), port: inPort, cause: ref}, inner)
	case net.cfg.Processing != nil:
		net.process(work{node: int32(to), port: inPort}, payload)
	default:
		// With instantaneous processing the queue model is a no-op (process
		// would run the work inline), so the handler is invoked directly:
		// this is the per-delivery hot path of large untraced runs.
		net.metrics.MessagesDelivered++
		ctx, prev := net.enter(to)
		net.nodes[to].OnMessage(ctx, inPort, payload)
		net.ctx.id = prev
	}
}

// fanout delivers one radio transmission of sender u in local-broadcast
// mode to every out-edge at the shared delivery instant. Scripted link
// outages and partitions are radio obstructions here — they are checked per
// receiving edge at the delivery instant (a receiver behind a downed edge
// misses the transmission, counted as a link drop), so a partition cuts a
// broadcast exactly as it cuts point-to-point traffic.
func (net *Network) fanout(u int, payload any) {
	for e := int(net.adj.OutStart[u]); e < int(net.adj.OutStart[u+1]); e++ {
		if net.life != nil && net.life.edgeDown(e) {
			net.life.tel.LinkDrops++
			continue
		}
		net.deliverTo(e, payload)
	}
}

// work is one call that has to wait: OnTimer(port) on node if timer is set,
// OnMessage(port, payload) otherwise. It waits in net.slab, 32 bytes, for a
// set timer's instant (fireTimer) or for its turn in the node's processing
// queue (complete). cause is the trace event the call descends from: what
// the node was processing when it set the timer, then the recorded firing or
// delivery itself. Whether the call outlived its incarnation is not recorded
// here but read off the kernel event that ends the wait (see stale). A
// message's payload waits beside it in net.payloads, which keeps the record
// free of pointers: parking one is a plain copy without a write barrier, and
// the collector never scans the slab.
//
// A message held back from its link is a record too, read differently: port is
// the link, copies how many times it is to carry the message — none yet for a
// Byzantine stall, which re-enters put — and cause the traced ref of the send.
// No node: a sender's crash does not recall what it already sent.
type work struct {
	node   int32
	timer  bool
	copies uint8
	port   int // the in-port of a message, the kind of a timer, the link of a held message
	cause  TraceRef
}

// park files w (and a message's payload) in a slab slot until instant at, when
// the kernel hands the slot to handler id. It is one kernel event, as the
// closure it replaces was, and allocates nothing once the slab has grown to
// the run's backlog.
func (net *Network) park(at simtime.Time, id sim.HandlerID, w work, payload any) {
	var slot uint32
	if n := len(net.freeWork); n > 0 {
		slot, net.freeWork = net.freeWork[n-1], net.freeWork[:n-1]
		net.slab[slot], net.payloads[slot] = w, payload
	} else {
		slot = uint32(len(net.slab))
		net.slab, net.payloads = append(net.slab, w), append(net.payloads, payload)
	}
	net.kernel.AtArg(at, id, slot)
}

// take vacates slot and returns what waited in it.
func (net *Network) take(slot uint32) (work, any) {
	w, payload := net.slab[slot], net.payloads[slot]
	net.payloads[slot] = nil
	net.freeWork = append(net.freeWork, slot)
	return w, payload
}

// stale reports whether node v, whose work the running kernel event ends the
// wait of, is down or crashed (and possibly restarted) while it waited: the
// event's sequence number is below the node's last-crash sequence number, so
// it was scheduled by an incarnation that has since died. Node work is only
// scheduled while its node is up. Always false without a fault plan.
func (net *Network) stale(v int32) bool {
	life := net.life
	return life != nil && (life.down[v] || net.kernel.EventSeq() < life.crashSeq[v])
}

// fireTimer is the kernel handler of a timer set through the slab reaching
// its instant: the firing is counted and traced, then queued for processing.
func (net *Network) fireTimer(slot uint32) {
	w, _ := net.take(slot)
	if net.stale(w.node) {
		net.life.tel.TimersSuppressed++
		return
	}
	net.metrics.TimersFired++
	if t := net.cfg.Tracer; t != nil {
		w.cause = t.TimerFired(net.kernel.Now(), int(w.node), w.port, w.cause)
	}
	net.process(w, nil)
}

// process runs w after the node's processing delay, modelling each node as a
// single busy server: events queue and are handled in FIFO completion order.
// With no processing model the work runs inline.
func (net *Network) process(w work, payload any) {
	if net.cfg.Processing == nil {
		net.handle(w, payload)
		return
	}
	v := w.node
	start := net.kernel.Now()
	if net.nextFree[v].After(start) {
		start = net.nextFree[v]
	}
	completion := start.Add(simtime.Duration(net.cfg.Processing.Sample(&net.procRNG[v])))
	net.nextFree[v] = completion
	if !w.timer {
		net.queued++
	}
	net.park(completion, net.queueDone, w, payload)
}

// complete is the kernel handler of a processing-queue completion. Work
// queued before a crash (or restart) died with its incarnation: a message
// counts as a dead letter, a timer as suppressed.
func (net *Network) complete(slot uint32) {
	w, payload := net.take(slot)
	if !w.timer {
		net.queued--
	}
	switch {
	case !net.stale(w.node):
		net.handle(w, payload)
	case w.timer:
		net.life.tel.TimersSuppressed++
	default:
		net.life.tel.DeadLetters++
	}
}

// handle makes the call, as the cause of whatever the node does inside it.
func (net *Network) handle(w work, payload any) {
	v, cause := int(w.node), net.cause
	net.cause = w.cause
	ctx, prev := net.enter(v)
	if w.timer {
		net.nodes[v].OnTimer(ctx, w.port)
	} else {
		net.metrics.MessagesDelivered++
		net.nodes[v].OnMessage(ctx, w.port, payload)
	}
	net.ctx.id, net.cause = prev, cause
}

// enter points the network's one Context at node v for a callback of v's. It
// returns the Context and the node it named before, which the caller puts back
// once the callback returns, as handle does with the cause. The callers make
// the call themselves: a helper that also made it would be too large to
// inline, one more frame on every delivery and timer.
func (net *Network) enter(v int) (ctx *Context, prev int) {
	prev, net.ctx.id = net.ctx.id, v
	return &net.ctx, prev
}

// Run initialises all nodes (in index order at time zero) and executes the
// simulation. See sim.Kernel.Run for the meaning of horizon and maxEvents.
// A protocol-requested stop (Context.StopNetwork) is a clean completion and
// returns nil.
func (net *Network) Run(horizon simtime.Time, maxEvents uint64) error {
	if net.life != nil {
		net.life.applyAtTimeZero()
	}
	for i := range net.nodes {
		if net.life != nil && net.life.down[i] {
			continue // crashed from t = 0: Init runs at recovery, if any
		}
		ctx, prev := net.enter(i)
		net.nodes[i].Init(ctx)
		net.ctx.id = prev
	}
	if net.life != nil {
		net.life.install()
	}
	err := net.run(horizon, maxEvents)
	if errors.Is(err, sim.ErrStopped) {
		return nil
	}
	return err
}

// run drives the kernel to the end of the run: one kernel call without a
// probe; with one, segments that each pause right after the event at which
// the collector's next sample falls due, where it samples. Observe records
// nothing after any other event, so the series is the one a collector called
// after every event would record. maxEvents counts across the segments.
func (net *Network) run(horizon simtime.Time, maxEvents uint64) error {
	k, c := net.kernel, net.probe
	if c == nil {
		return k.Run(horizon, maxEvents)
	}
	from := k.Executed()
	for {
		before := k.Executed()
		events, at := c.Due()
		paused, err := k.RunSegment(horizon, maxEvents, from, sim.Pause{Events: max(events, before+1), At: at})
		// A segment ends right after a due event when it pauses, or when
		// that event's handler stops the run. Any other end leaves the last
		// event undue, and the clock perhaps moved on to the horizon.
		if k.Executed() > before && (paused || errors.Is(err, sim.ErrStopped)) {
			c.Observe(k.Now(), k.Executed())
		}
		if !paused {
			return err
		}
	}
}

// Now returns the current virtual time.
func (net *Network) Now() simtime.Time { return net.kernel.Now() }

// StopCause returns the cause recorded when the protocol stopped the
// network, or "".
func (net *Network) StopCause() string { return net.kernel.StopCause() }

// Metrics returns a snapshot of the network counters, with transmissions
// aggregated over all links.
func (net *Network) Metrics() Metrics {
	m := net.metrics
	m.Transmissions = 0
	for k := range net.store.Links() {
		m.Transmissions += net.store.Stats(k).Transmissions
	}
	return m
}

// N returns the number of nodes.
func (net *Network) N() int { return len(net.nodes) }

// NodeAt returns the protocol instance on node i, for post-run inspection.
func (net *Network) NodeAt(i int) Node { return net.nodes[i] }

// MaxLinkMeanDelay returns the maximum per-link expected delay — the
// tightest δ for which this network satisfies ABE Definition 1, condition 1.
// The store computed it once, when it laid out the links.
func (net *Network) MaxLinkMeanDelay() float64 { return net.store.MaxMeanDelay() }

// ClockBounds returns the clock model's (s_low, s_high).
func (net *Network) ClockBounds() (low, high float64) { return net.cfg.Clocks.Bounds() }

// FaultTelemetry returns a snapshot of the run's fault telemetry (what the
// configured faults.Plan and byzantine.Plan actually did), or nil when the
// network was built without either subsystem.
func (net *Network) FaultTelemetry() *faults.Telemetry {
	if net.life == nil && net.adv == nil {
		return nil
	}
	tel := &faults.Telemetry{}
	if net.life != nil {
		tel = net.life.telemetry()
	}
	if net.adv != nil {
		tel.Byzantine = net.adv.telemetry()
	}
	return tel
}

// NodeDown reports whether node i is currently crashed (always false
// without fault injection).
func (net *Network) NodeDown(i int) bool { return net.life != nil && net.life.down[i] }

// ProcessingMean returns the mean event-processing time — the tightest γ
// for Definition 1, condition 3 (0 if processing is instantaneous).
func (net *Network) ProcessingMean() float64 {
	if net.cfg.Processing == nil {
		return 0
	}
	return net.cfg.Processing.Mean()
}

// Kernel exposes the underlying kernel for tests and advanced drivers.
func (net *Network) Kernel() *sim.Kernel { return net.kernel }

// Context is a node's window onto the network. All methods must be called
// from protocol callbacks (Init, OnMessage, OnTimer) only: a network has one
// Context, which it points at each node for the length of the node's
// callback, so what a node keeps of it reads as itself in every later
// callback. A node's private stream lives in the network's slab of them.
type Context struct {
	net *Network
	id  int // the node whose callback is running
}

// maxTimerKinds sizes the network's per-kind timer handler table;
// protocols use small dense kind constants, so anything larger waits in the
// slab like a timer under a fault plan.
const maxTimerKinds = 64

// N returns the network size. The paper's election algorithm assumes known
// ring size n, so this is part of a node's a-priori knowledge.
func (c *Context) N() int { return c.net.N() }

// ID returns the node's identity. On anonymous networks this panics:
// protocols for anonymous networks must not depend on identities.
func (c *Context) ID() int {
	if c.net.cfg.Anonymous {
		panic("network: protocol read node identity on an anonymous network")
	}
	return c.id
}

// OutDegree returns the number of outgoing point-to-point ports: the node's
// out-degree, or 0 on a local-broadcast network, where the radio is the
// only way out.
func (c *Context) OutDegree() int {
	if c.net.cfg.LocalBroadcast {
		return 0
	}
	return int(c.net.adj.OutStart[c.id+1] - c.net.adj.OutStart[c.id])
}

// InDegree returns the number of incoming ports.
func (c *Context) InDegree() int { return int(c.net.adj.InStart[c.id+1] - c.net.adj.InStart[c.id]) }

// Send transmits payload on the given out-port. It counts as sent whatever
// happens next: a Byzantine role may drop, forge or stall it and a downed
// link drops it (see transmit and put). On a local-broadcast network Send
// panics: the radio medium has no addressable point-to-point links;
// protocols use Broadcast.
func (c *Context) Send(outPort int, payload any) {
	if c.net.cfg.LocalBroadcast {
		panic("network: point-to-point Send on a local-broadcast network (use Context.Broadcast)")
	}
	if degree := c.OutDegree(); outPort < 0 || outPort >= degree {
		panic(fmt.Sprintf("network: node has %d out-ports, sent on %d", degree, outPort))
	}
	c.transmit(int(c.net.adj.OutStart[c.id])+outPort, payload)
}

// Broadcast sends payload to every out-neighbour — the medium-agnostic
// send for broadcast protocols. On a point-to-point network it loops over
// the out-ports: each copy samples its own link delay, and an Equivocate
// role may substitute a *different* payload per receiver. On a
// local-broadcast network it is one atomic radio transmission delivered
// identically to every neighbour at one instant, so per-receiver
// divergence is physically impossible (Khan & Vaidya's model). Tracers see
// one MessageSent with to = -1 for a radio transmission, and its one tag
// rides the whole fan-out: every receiver's delivery is parented to the
// single transmission.
func (c *Context) Broadcast(payload any) {
	if !c.net.cfg.LocalBroadcast {
		for p := range c.OutDegree() {
			c.Send(p, payload)
		}
		return
	}
	c.transmit(c.id, payload)
}

// transmit is the one way a payload leaves a node: on link link, which is an
// out-edge's link or, on a local-broadcast network, the sender's radio.
// The logical send is counted and traced here, and under a byzantine.Plan
// the sender's role intercepts it here — a Mute send still counts as sent
// (the protocol instance believes it sent), and a Stall holds the message
// back before it reaches the link.
func (c *Context) transmit(link int, payload any) {
	net := c.net
	radio := net.cfg.LocalBroadcast
	net.metrics.MessagesSent++
	var send TraceRef
	if net.cfg.Tracer != nil {
		to := -1
		if !radio {
			to = int(net.adj.Head[link])
		}
		send = net.cfg.Tracer.MessageSent(net.kernel.Now(), c.id, to, payload, net.cause)
	}
	if adv := net.adv; adv != nil {
		out, drop, hold := adv.intercept(c.id, payload, radio)
		if drop {
			return
		}
		if hold > 0 {
			net.hold(hold, link, 0, out, send)
			return
		}
		payload = out
	}
	net.put(link, payload, send)
}

// put is where the environment decides about a message entering link link,
// at the (possibly stalled) transmission instant. A point-to-point link taken
// down by a scripted outage or partition drops it at the link boundary — it
// still counted as sent, and messages already in flight still arrive — and the
// plan's link faults are drawn next, in front of whatever discipline the link
// has (see lifecycle.impair). The radio has no edge of its own and meets
// outages per receiver, in fanout.
func (net *Network) put(link int, payload any, send TraceRef) {
	copies := 1
	if life := net.life; life != nil && !net.cfg.LocalBroadcast {
		if life.edgeDown(link) {
			life.tel.LinkDrops++
			return
		}
		if life.impairRNG != nil {
			var held bool
			var hold simtime.Duration
			if copies, held, hold = life.impair(link); held {
				net.hold(hold, link, copies, payload, send)
				return
			}
		}
	}
	net.carry(link, copies, payload, send)
}

// carry hands link link its copies of payload (none of a lost message), each
// sampling its own delay now. send, the traced ref of the logical send (zero
// when untraced), crosses the link too, so the delivery can name its cause.
func (net *Network) carry(link, copies int, payload any, send TraceRef) {
	if net.cfg.Tracer != nil {
		payload = tracedPayload{payload: payload, send: send}
	}
	for range copies {
		net.store.Send(link, payload)
	}
}

// hold keeps a message off link link for d, as one slab record: a Byzantine
// stall (copies 0) or a fault plan's reorder hold-back of copies messages.
func (net *Network) hold(d simtime.Duration, link, copies int, payload any, send TraceRef) {
	if !d.Valid() {
		panic(fmt.Sprintf("network: message held back for invalid duration %v", d))
	}
	net.held += max(copies, 1)
	net.park(net.kernel.Now().Add(d), net.holdOver, work{port: link, copies: uint8(copies), cause: send}, payload)
}

// release is the kernel handler of a hold running out. A stalled send has met
// neither the outage check nor the plan's link faults, so it re-enters put: an
// outage that began meanwhile still drops it. A reorder-held one is past both,
// and its copies sample their link delays here, at the release instant.
func (net *Network) release(slot uint32) {
	w, payload := net.take(slot)
	net.held -= max(int(w.copies), 1)
	if w.copies == 0 {
		net.put(w.port, payload, w.cause)
		return
	}
	net.carry(w.port, int(w.copies), payload, w.cause)
}

// LocalTime returns the node's local clock reading.
func (c *Context) LocalTime() float64 {
	now := c.net.kernel.Now()
	if c.net.clocks == nil {
		return float64(now) // a perfect clock
	}
	return c.net.clocks[c.id].LocalAt(now)
}

// SetLocalTimerFunc schedules OnTimer(kind) to fire when the node's local
// clock has advanced by localDelta (> 0). Timers belong to the incarnation
// that set them: if the node crashes (or crashes and restarts) before the
// fire instant, the fire is suppressed. Otherwise a set timer always fires;
// a node that loses interest in one guards OnTimer with a generation counter
// of its own (see package sim).
func (c *Context) SetLocalTimerFunc(localDelta float64, kind int) {
	at, net := c.timerInstant(localDelta), c.net
	if fire := net.timerHandler(kind); fire != 0 {
		net.kernel.AtArg(at, fire, uint32(c.id))
		return
	}
	// The causal parent of the firing is the event the node is processing
	// now, while it sets the timer.
	net.park(at, net.timerDue, work{node: int32(c.id), timer: true, port: kind, cause: net.cause}, nil)
}

// timerInstant validates localDelta and converts it to the real fire
// instant on the node's local clock.
func (c *Context) timerInstant(localDelta float64) simtime.Time {
	if localDelta <= 0 {
		badTimerDelta(localDelta)
	}
	now := c.net.kernel.Now()
	if c.net.clocks == nil {
		return now.Add(simtime.Duration(localDelta)) // a perfect clock
	}
	return c.net.clocks[c.id].RealAfterLocal(now, localDelta)
}

// badTimerDelta panics about a local timer delta that is not positive. The
// message is built out of line, where it costs a timer nothing.
//
//go:noinline
func badTimerDelta(localDelta float64) {
	panic(fmt.Sprintf("network: local timer delta %g must be positive", localDelta))
}

// timerHandler returns the id of the kernel handler that fires this network's
// timers of the given kind — it takes the node as the event argument and is
// registered the first time the kind is set — or zero when a set timer has to
// remember something and so waits in the slab: under a tracer, whose firing
// names the setter's causal ref, and for a kind past the table. A fault plan
// needs nothing remembered: the firing is suppressed if the node is down or
// crashed after the timer was set, which the kernel's sequence numbers tell
// (see stale). So firing depends only on (node, kind), and tick loops set
// millions.
func (net *Network) timerHandler(kind int) sim.HandlerID {
	if net.cfg.Tracer != nil || kind < 0 || kind >= maxTimerKinds {
		return 0
	}
	if net.timers[kind] == 0 {
		net.timers[kind] = net.kernel.Register(func(node uint32) {
			if net.stale(int32(node)) {
				net.life.tel.TimersSuppressed++
				return
			}
			v := int(node)
			net.metrics.TimersFired++
			if net.cfg.Processing == nil {
				ctx, prev := net.enter(v)
				net.nodes[v].OnTimer(ctx, kind)
				net.ctx.id = prev
				return
			}
			net.process(work{node: int32(v), timer: true, port: kind}, nil)
		})
	}
	return net.timers[kind]
}

// Rand returns the node's private random stream.
func (c *Context) Rand() *rng.Source { return &c.net.nodeRNG[c.id] }

// Now returns global simulation time. It exists for measurement and
// tracing; protocols for asynchronous models must not branch on it (they
// could not observe it in reality). Anonymous-network protocols in this
// repository only use LocalTime.
func (c *Context) Now() simtime.Time { return c.net.kernel.Now() }

// StopNetwork halts the simulation after the current event, recording a
// cause. Used by protocols upon termination (e.g. a leader was elected).
// Under a Tracer this is the run's decision event — the terminus of the
// causal chain a critical-path analysis walks back from — parented to the
// delivery or timer being processed when the protocol decided.
func (c *Context) StopNetwork(cause string) {
	if t := c.net.cfg.Tracer; t != nil {
		t.Decision(c.net.kernel.Now(), c.id, cause, c.net.cause)
	}
	c.net.kernel.Stop(cause)
}
