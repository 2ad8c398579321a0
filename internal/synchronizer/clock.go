package synchronizer

import (
	"fmt"

	"abenet/internal/network"
)

// clockNode is a node under KindClock, the clock-driven ABD synchronizer
// (Tel–Korach–Zaks style): round r starts when the local clock has advanced
// by (r+1)·Period, and whatever the protocol sends in round r goes out at
// once, stamped r, for the receiver's round r+1. There is no control
// traffic: the synchronizer trusts Period to exceed every message delay. On
// a genuine ABD network (bounded delay distribution) the trust is justified;
// on an ABE network no finite period is safe — Theorem 1's context — and
// Result.Violations counts the messages that arrived after their receiver
// had started the round meant to consume them. A late payload is consumed
// in the receiver's next round.
//
// The node is its bare round core, converted: KindClock needs nothing the
// core does not hold.
type clockNode roundCore

// stamped is a payload on the wire under KindClock, with the round it was
// sent in. A payload-less message travels as its bare round number instead,
// which boxes without allocating below 256: a heartbeat costs no heap object.
type stamped struct {
	Round   int
	Payload any
}

// stamp is payload on the wire in round.
func stamp(round int, payload any) any {
	if payload == nil {
		return round
	}
	return stamped{Round: round, Payload: payload}
}

var _ network.Node = (*clockNode)(nil)

// Init implements network.Node: schedule the first round start.
func (n *clockNode) Init(ctx *network.Context) {
	ctx.SetLocalTimerFunc(n.sync.period, 0)
}

// OnTimer implements network.Node: a round boundary on the local clock.
// Once the round budget is spent the node stops ticking and lets the
// messages in flight land.
func (n *clockNode) OnTimer(ctx *network.Context, _ int) {
	(*roundCore)(n).run(ctx, nil)
	if n.round < n.sync.maxRounds {
		ctx.SetLocalTimerFunc(n.sync.period, 0)
	}
}

// OnMessage implements network.Node: check the round discipline and keep
// the payload for the round that consumes it.
func (n *clockNode) OnMessage(_ *network.Context, inPort int, payload any) {
	var sent int
	switch m := payload.(type) {
	case int:
		sent, payload = m, nil
	case stamped:
		sent, payload = m.Round, m.Payload
	default:
		panic(fmt.Sprintf("synchronizer: foreign payload %T", payload))
	}
	// Round sent+1 consumes the message, so it is late once that round
	// has run (n.round is the count of started rounds).
	consume := sent + 1
	if lateness := n.round - consume; lateness > 0 {
		s := n.sync
		s.violations++
		s.maxLateness = max(s.maxLateness, lateness)
		consume = n.round
	}
	(*roundCore)(n).buffer(consume, inPort, payload)
}
