package synchronizer

import (
	"fmt"

	"abenet/internal/network"
)

// alphaAck acknowledges one round-r envelope back to its sender.
type alphaAck struct {
	Round int
}

// alphaSafe announces that all of the sender's round-r envelopes have been
// acknowledged — i.e. delivered.
type alphaSafe struct {
	Round int
}

// alphaNode wraps a synchronous protocol with Awerbuch's α-synchronizer on
// a bidirectional graph:
//
//	round r: send an envelope on every edge; ack every received envelope;
//	when all own envelopes are acked, broadcast safe(r); when safe(r) has
//	arrived from every neighbour, start round r+1.
//
// Cost: 3 messages per directed edge per round (envelope, ack, safe) —
// Θ(|E|) per round, the classic synchronizer trade-off the paper contrasts
// with native ABE algorithms.
type alphaNode struct {
	envelopes
	inDegree int

	// reversePort[p] is the out-port that reaches the neighbour whose
	// envelopes arrive on in-port p.
	reversePort []int

	ackCount  map[int]int
	safeCount map[int]int
	safeSent  map[int]bool
}

var _ network.Node = (*alphaNode)(nil)

// Init implements network.Node.
func (n *alphaNode) Init(ctx *network.Context) {
	n.execute(ctx, false)
}

// OnMessage implements network.Node.
func (n *alphaNode) OnMessage(ctx *network.Context, inPort int, payload any) {
	switch m := payload.(type) {
	case envelope:
		n.unpack(inPort, m)
		ctx.Send(n.reversePort[inPort], alphaAck{Round: m.Round})
	case alphaAck:
		n.ackCount[m.Round]++
		if n.ackCount[m.Round] == len(n.outbox) && !n.safeSent[m.Round] {
			n.safeSent[m.Round] = true
			delete(n.ackCount, m.Round)
			for port := range n.outbox {
				ctx.Send(port, alphaSafe{Round: m.Round})
			}
		}
	case alphaSafe:
		n.safeCount[m.Round]++
		for n.safeCount[n.round-1] == n.inDegree {
			delete(n.safeCount, n.round-1)
			delete(n.safeSent, n.round-1)
			if _, ran := n.execute(ctx, false); !ran {
				return
			}
		}
	default:
		panic(fmt.Sprintf("synchronizer: foreign payload %T", payload))
	}
}
