package synchronizer

import (
	"fmt"
	"math"

	"abenet/internal/network"
)

// ClockSyncResult reports the outcome of a clock-synchronized execution.
type ClockSyncResult struct {
	// Messages is the total number of (payload) messages: with a clock
	// synchronizer there is no control traffic at all.
	Messages uint64
	// Violations counts messages that arrived after their receiver had
	// already advanced past the sender's round — synchrony broken. On an
	// ABD network with Period above the hard delay bound this is 0; on an
	// ABE network it is positive with probability approaching 1 as the
	// run grows.
	Violations uint64
	// MaxLateness is the worst observed (receiver round − message round)
	// among violations.
	MaxLateness int
	// Rounds is the number of rounds every node started (the minimum over
	// nodes): the configured count, or fewer when the horizon cut the run.
	Rounds int
	// Time is the virtual completion time.
	Time float64
}

// ViolationRate returns Violations/Messages (0 for an empty run).
func (r ClockSyncResult) ViolationRate() float64 {
	if r.Messages == 0 {
		return 0
	}
	return float64(r.Violations) / float64(r.Messages)
}

// ClockSync supplies the nodes of the clock-driven ABD synchronizer
// (Tel–Korach–Zaks style) and reads the outcome back: every node starts
// round r at local time r·period and sends one round-stamped message per
// out-edge, trusting that period exceeds the worst-case message delay. On a
// genuine ABD network (bounded delay distribution) the trust is justified
// and the synchronizer needs no control messages at all; on an ABE network
// no finite period is safe — Theorem 1's context — and the violation rate
// of the result quantifies exactly how unsafe a given period is.
type ClockSync struct {
	period float64
	rounds int

	violations  uint64
	maxLateness int
}

// NewClockSync prepares a clock-synchronized execution of the given number
// of rounds, one every period local time units.
func NewClockSync(period float64, rounds int) (*ClockSync, error) {
	if !(period > 0) || math.IsInf(period, 0) || math.IsNaN(period) {
		return nil, fmt.Errorf("synchronizer: period %g must be positive and finite", period)
	}
	if rounds < 1 {
		return nil, fmt.Errorf("synchronizer: rounds %d must be positive", rounds)
	}
	return &ClockSync{period: period, rounds: rounds}, nil
}

// Node returns the network node of one participant.
func (s *ClockSync) Node() network.Node { return &clockSyncNode{sync: s} }

// Result summarises the execution net ran over this synchronizer's nodes.
func (s *ClockSync) Result(net *network.Network) ClockSyncResult {
	started := s.rounds
	for i := 0; i < net.N(); i++ {
		started = min(started, net.NodeAt(i).(*clockSyncNode).round)
	}
	return ClockSyncResult{
		Messages:    net.Metrics().MessagesSent,
		Violations:  s.violations,
		MaxLateness: s.maxLateness,
		Rounds:      started,
		Time:        float64(net.Now()),
	}
}

// clockSyncNode emits one stamped heartbeat per out-edge per round and
// verifies the round discipline of everything it receives.
type clockSyncNode struct {
	sync  *ClockSync
	round int // rounds started
}

// heartbeat is the stamped per-round message.
type heartbeat struct {
	Round int
}

var _ network.Node = (*clockSyncNode)(nil)

// Init implements network.Node: schedule the first round start.
func (n *clockSyncNode) Init(ctx *network.Context) {
	ctx.SetLocalTimerFunc(n.sync.period, 0)
}

// OnTimer implements network.Node: a round boundary on the local clock.
func (n *clockSyncNode) OnTimer(ctx *network.Context, _ int) {
	if n.round >= n.sync.rounds {
		return // done; let in-flight traffic drain
	}
	for port := 0; port < ctx.OutDegree(); port++ {
		ctx.Send(port, heartbeat{Round: n.round})
	}
	n.round++
	if n.round < n.sync.rounds {
		ctx.SetLocalTimerFunc(n.sync.period, 0)
	}
}

// OnMessage implements network.Node: check the round discipline.
func (n *clockSyncNode) OnMessage(ctx *network.Context, _ int, payload any) {
	m, ok := payload.(heartbeat)
	if !ok {
		panic(fmt.Sprintf("synchronizer: foreign payload %T", payload))
	}
	// For round-m.Round data to be usable, it must arrive before this
	// node starts round m.Round+1 — i.e. while n.round <= m.Round+1
	// (n.round is the count of started rounds).
	if lateness := n.round - (m.Round + 1); lateness > 0 {
		n.sync.violations++
		n.sync.maxLateness = max(n.sync.maxLateness, lateness)
	}
}
