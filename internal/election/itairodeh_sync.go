// Package election implements the node behaviours of the comparator
// election algorithms the paper's evaluation needs. It builds no network
// and runs nothing: internal/runner puts these nodes on the event-driven
// network, the synchronous one under a synchronizer (ItaiRodehSync,
// SynchronizedElection, ItaiRodehAsync, ChangRoberts, Peterson there).
//
//   - ItaiRodehSync: a phase-based probabilistic election for anonymous
//     *synchronous* unidirectional rings of known size, in the style of
//     Itai–Rodeh [4] — the "most optimal leader election algorithms known
//     for anonymous, synchronous rings" the paper compares its ABE
//     algorithm against. Expected linear time and messages.
//   - ItaiRodehAsync: the classic Itai–Rodeh election for anonymous
//     *asynchronous* unidirectional rings with FIFO channels — expected
//     Θ(n log n) messages, the standard anonymous-ring baseline.
//   - ChangRoberts: election with unique identities on asynchronous
//     unidirectional rings — average Θ(n log n), worst case Θ(n²);
//     quantifies what identities buy relative to the anonymous setting.
//   - Peterson: the deterministic O(n log n) worst-case election with
//     unique identities and FIFO channels — Chang–Roberts' counterpart.
package election

import (
	"fmt"

	"abenet/internal/synchronizer"
)

// irsRole is the state of a node in the synchronous phase election.
type irsRole int

const (
	irsIdle irsRole = iota + 1
	irsCandidate
	irsLeader
)

// irsToken is the circulating token: Hop counts the edges travelled.
type irsToken struct {
	Hop int
}

// ItaiRodehSyncNode elects a leader on an anonymous synchronous
// unidirectional ring of known size n.
//
// Time is divided into phases of n+1 rounds. At a phase start every idle
// node becomes a candidate with probability Q and emits a token ⟨1⟩.
// Tokens advance one hop per round; non-candidates forward them, a
// candidate hit by a foreign token (hop < n) purges it and records the
// collision, and a candidate whose own token returns (hop = n) — possible
// only when it was the phase's unique candidate — becomes leader. All
// surviving candidates revert to idle at the phase end and retry. With
// Q ≈ c/n a phase has Θ(1) expected candidates, so the election costs
// Θ(1) expected phases of ≤ n messages each: expected linear time and
// message complexity, the synchronous-ring optimum the paper cites.
type ItaiRodehSyncNode struct {
	ringSize int
	q        float64
	sendPort int

	role      irsRole
	collision bool

	// Phases counts the phases this node initiated as a candidate.
	Phases int
}

var _ synchronizer.Node = (*ItaiRodehSyncNode)(nil)

// NewItaiRodehSyncNode returns a node for rings of size n with per-phase
// candidacy probability q, sending on sendPort — the out-port of its ring
// successor (0 on the natural ring).
func NewItaiRodehSyncNode(n int, q float64, sendPort int) (*ItaiRodehSyncNode, error) {
	if n < 2 {
		return nil, fmt.Errorf("election: ring size %d must be at least 2", n)
	}
	if !(q > 0 && q <= 1) {
		return nil, fmt.Errorf("election: candidacy probability %g outside (0, 1]", q)
	}
	return &ItaiRodehSyncNode{ringSize: n, q: q, sendPort: sendPort, role: irsIdle}, nil
}

// Role-reporting helpers for tests and experiment harnesses.

// IsLeader reports whether this node won the election.
func (p *ItaiRodehSyncNode) IsLeader() bool { return p.role == irsLeader }

// Round implements synchronizer.Node.
func (p *ItaiRodehSyncNode) Round(ctx synchronizer.NodeContext, round int, inbox []synchronizer.Message) {
	phaseLen := p.ringSize + 1

	// 1. Handle arriving tokens.
	for _, m := range inbox {
		token, ok := m.Payload.(irsToken)
		if !ok {
			panic(fmt.Sprintf("election: foreign payload %T on Itai-Rodeh ring", m.Payload))
		}
		switch {
		case p.role == irsCandidate && token.Hop == p.ringSize:
			// Our own token made it all the way around: we were the
			// phase's unique candidate.
			p.role = irsLeader
			ctx.StopNetwork("leader elected")
		case p.role == irsCandidate:
			// Foreign token: at least two candidates this phase.
			p.collision = true // token purged
		default:
			ctx.Send(p.sendPort, irsToken{Hop: token.Hop + 1})
		}
	}

	// 2. Phase boundary bookkeeping.
	if round%phaseLen == 0 {
		if p.role == irsCandidate {
			// Our token died at another candidate (and theirs possibly at
			// us); the phase failed.
			p.role = irsIdle
			p.collision = false
		}
		if p.role == irsIdle && ctx.Rand().Bool(p.q) {
			p.role = irsCandidate
			p.Phases++
			ctx.Send(p.sendPort, irsToken{Hop: 1})
		}
	}
}
