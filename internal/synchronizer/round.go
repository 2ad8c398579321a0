package synchronizer

import (
	"cmp"
	"fmt"
	"slices"

	"abenet/internal/network"
	"abenet/internal/topology"
)

// envelope is the message-driven synchronizers' payload carrier: everything
// node u has for node v in round Round, possibly nothing.
type envelope struct {
	Round    int
	Payloads []any
}

// budgetStopCause marks a round-budget abort rather than a protocol stop.
const budgetStopCause = "synchronizer: round budget exhausted"

// roundCore is what every synchronizer node shares: the wrapped protocol,
// its round counter and the payloads buffered for the rounds to come. The
// kinds differ only in when they call run and in where the round's sends go.
type roundCore struct {
	proto Node
	sync  *Synchronizer

	// round is the next round to execute — equally, the number of rounds
	// executed so far.
	round int

	// inbox[r] holds the payloads round r consumes; early ones wait here.
	inbox map[int][]Message
}

// buffer keeps payload, received on inPort, for the round that consumes it.
// A payload-less message has nothing to keep.
func (c *roundCore) buffer(round, inPort int, payload any) {
	if payload == nil {
		return
	}
	if c.inbox == nil {
		c.inbox = make(map[int][]Message)
	}
	c.inbox[round] = append(c.inbox[round], Message{InPort: inPort, Payload: payload})
}

// run executes round c.round of the protocol and advances the round. The
// protocol's sends land in outbox, by out-port — or, under KindClock, which
// has none, go straight onto the wire stamped with the round.
func (c *roundCore) run(ctx *network.Context, outbox [][]any) {
	// Most rounds of a sparse protocol find nothing buffered at all: no lookup
	// then, and no sort of fewer than two messages.
	var inbox []Message
	if len(c.inbox) > 0 {
		inbox = c.inbox[c.round]
		delete(c.inbox, c.round)
	}
	if len(inbox) > 1 {
		// A deterministic inbox order (by in-port, stable in arrival order)
		// regardless of network arrival interleaving.
		slices.SortStableFunc(inbox, func(a, b Message) int { return cmp.Compare(a.InPort, b.InPort) })
	}

	view := &c.sync.view
	view.Context, view.core, view.outbox = ctx, c, outbox
	c.proto.Round(view, c.round, inbox)
	c.round++
}

// protoContext is the NodeContext the protocol sees during a round: the
// asynchronous node context (size, identity, degree, randomness, stop) with
// Send redirected into the round's outbox or stamped onto the wire.
type protoContext struct {
	*network.Context
	core   *roundCore
	outbox [][]any
}

var _ NodeContext = (*protoContext)(nil)

// Send implements NodeContext.
func (c *protoContext) Send(outPort int, payload any) {
	if c.core.sync.kind == KindClock {
		c.Context.Send(outPort, stamp(c.core.round, payload))
	} else {
		if outPort < 0 || outPort >= len(c.outbox) {
			panic(fmt.Sprintf("synchronizer: send on out-port %d of %d", outPort, len(c.outbox)))
		}
		c.outbox[outPort] = append(c.outbox[outPort], payload)
	}
	c.core.sync.payloads++
}

// envelopes is what the message-driven kinds add to the round core: the
// outbox a round's sends land in, flushed after the round as envelopes.
type envelopes struct {
	*roundCore
	outbox [][]any
}

// OnTimer implements network.Node; the message-driven kinds set no timers.
func (*envelopes) OnTimer(*network.Context, int) {}

// unpack buffers the payloads of a received envelope for the round after
// the one they were sent in.
func (e *envelopes) unpack(inPort int, env envelope) {
	for _, p := range env.Payloads {
		e.buffer(env.Round+1, inPort, p)
	}
}

// execute runs the next round and flushes its envelopes: one per out-port,
// or — sparse — only those that carry payloads. It returns the number of
// envelopes sent and whether the round actually ran (false once the round
// budget is exhausted, which stops the network).
func (e *envelopes) execute(ctx *network.Context, sparse bool) (sent int, ran bool) {
	if e.round >= e.sync.maxRounds {
		ctx.StopNetwork(budgetStopCause)
		return 0, false
	}
	e.run(ctx, e.outbox)
	for port, payloads := range e.outbox {
		if sparse && len(payloads) == 0 {
			continue
		}
		ctx.Send(port, envelope{Round: e.round - 1, Payloads: payloads})
		e.outbox[port] = nil
		sent++
	}
	return sent, true
}

// reversePorts maps each in-port of node i to the out-port that reaches
// the same neighbour; g must be bidirectional.
func reversePorts(g *topology.Graph, i int) []int {
	out := g.Out(i)
	outPortOf := make(map[int]int, len(out))
	for port, v := range out {
		outPortOf[v] = port
	}
	in := g.In(i)
	reverse := make([]int, len(in))
	for p, u := range in {
		port, ok := outPortOf[u]
		if !ok {
			panic(fmt.Sprintf("synchronizer: graph not bidirectional at %d<-%d", i, u))
		}
		reverse[p] = port
	}
	return reverse
}

// roundNode wraps a synchronous protocol with the minimal round-message
// synchronizer: one envelope per out-edge per round; advance to round r+1
// after receiving the round-r envelope from every in-neighbour.
//
// This costs exactly |E| messages per round — for strongly connected
// graphs |E| >= n, matching Awerbuch's (and the paper's Theorem 1) lower
// bound, so this synchronizer is message-optimal.
type roundNode struct {
	envelopes
	inDegree int
	// received[r] counts round-r envelopes.
	received map[int]int
}

var _ network.Node = (*roundNode)(nil)

// Init implements network.Node: execute round 0 (which has an empty inbox
// by definition) and flush its envelopes.
func (n *roundNode) Init(ctx *network.Context) {
	n.execute(ctx, false)
}

// OnMessage implements network.Node.
func (n *roundNode) OnMessage(ctx *network.Context, inPort int, payload any) {
	env, ok := payload.(envelope)
	if !ok {
		panic(fmt.Sprintf("synchronizer: foreign payload %T", payload))
	}
	if env.Round < n.round-1 {
		// An envelope for a round we already finished assembling would
		// mean the synchronizer's invariant broke.
		panic(fmt.Sprintf("synchronizer: stale envelope for round %d at round %d", env.Round, n.round))
	}
	n.unpack(inPort, env)
	n.received[env.Round]++
	// Drain as many rounds as are fully assembled. (Neighbours can be at
	// most one round ahead, but their envelopes may arrive reordered.)
	for n.received[n.round-1] == n.inDegree {
		delete(n.received, n.round-1)
		if _, ran := n.execute(ctx, false); !ran {
			return
		}
	}
}
