package synchronizer

import (
	"fmt"
	"sort"

	"abenet/internal/network"
	"abenet/internal/syncnet"
	"abenet/internal/topology"
)

// envelope is the synchronizers' payload carrier: everything node u has for
// node v in round Round, possibly nothing.
type envelope struct {
	Round    int
	Payloads []any
}

// budgetStopCause marks a round-budget abort rather than a protocol stop.
const budgetStopCause = "synchronizer: round budget exhausted"

// roundCore is what every message-driven synchronizer node shares: the
// wrapped protocol, its round counter and budget, the per-round inbox and
// the outbox the protocol's sends land in. The synchronizers embed it and
// differ only in when they call execute.
type roundCore struct {
	proto syncnet.Node

	// round is the next round to execute — equally, the number of rounds
	// executed so far.
	round     int
	maxRounds int

	// inbox[r] holds the payloads round r consumes; early envelopes
	// buffer here.
	inbox map[int][]syncnet.Message
	// outbox accumulates the protocol's sends during a round execution,
	// keyed by out-port.
	outbox [][]any

	payloads uint64
}

// newRoundCore wraps proto for a node with the given out-degree.
func newRoundCore(proto syncnet.Node, outDegree, maxRounds int) *roundCore {
	return &roundCore{
		proto:     proto,
		maxRounds: maxRounds,
		inbox:     make(map[int][]syncnet.Message),
		outbox:    make([][]any, outDegree),
	}
}

// OnTimer implements network.Node; the synchronizers are message-driven.
func (c *roundCore) OnTimer(*network.Context, int) {}

// buffer files the payloads of a received envelope under the round that
// consumes them.
func (c *roundCore) buffer(inPort int, env envelope) {
	for _, p := range env.Payloads {
		c.inbox[env.Round+1] = append(c.inbox[env.Round+1], syncnet.Message{InPort: inPort, Payload: p})
	}
}

// execute runs the protocol for c.round and flushes the round's envelopes:
// one per out-port, or — sparse — only those that carry payloads. It
// returns the number of envelopes sent and whether the round actually ran
// (false once the round budget is exhausted).
func (c *roundCore) execute(ctx *network.Context, sparse bool) (sent int, ran bool) {
	if c.maxRounds > 0 && c.round >= c.maxRounds {
		ctx.StopNetwork(budgetStopCause)
		return 0, false
	}
	inbox := c.inbox[c.round]
	delete(c.inbox, c.round)
	// A deterministic inbox order (by in-port, stable in arrival order)
	// regardless of network arrival interleaving.
	sort.SliceStable(inbox, func(i, j int) bool { return inbox[i].InPort < inbox[j].InPort })

	c.proto.Round(protoContext{Context: ctx, core: c}, c.round, inbox)

	for port, payloads := range c.outbox {
		if sparse && len(payloads) == 0 {
			continue
		}
		ctx.Send(port, envelope{Round: c.round, Payloads: payloads})
		c.outbox[port] = nil
		sent++
	}
	c.round++
	return sent, true
}

// protoContext is the syncnet.NodeContext the protocol sees during a round:
// the asynchronous node context (size, identity, degree, randomness, stop)
// with Send redirected into the core's outbox.
type protoContext struct {
	*network.Context
	core *roundCore
}

var _ syncnet.NodeContext = protoContext{}

// Send implements syncnet.NodeContext.
func (c protoContext) Send(outPort int, payload any) {
	outbox := c.core.outbox
	if outPort < 0 || outPort >= len(outbox) {
		panic(fmt.Sprintf("synchronizer: send on out-port %d of %d", outPort, len(outbox)))
	}
	outbox[outPort] = append(outbox[outPort], payload)
	c.core.payloads++
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
	*roundCore
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
	n.buffer(inPort, env)
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
