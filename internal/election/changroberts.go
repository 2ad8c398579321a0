package election

import (
	"fmt"

	"abenet/internal/network"
	"abenet/internal/rng"
)

// crMessage carries a candidate identity around the ring.
type crMessage struct {
	ID int
}

// ChangRobertsNode is the Chang–Roberts election for asynchronous
// unidirectional rings with unique identities: every node starts as a
// candidate and circulates its identity; identities smaller than the
// receiver's are purged, larger ones turn the receiver passive and are
// forwarded, and a node receiving its own identity wins.
//
// Average message complexity over random identity arrangements is
// Θ(n log n); the worst case (identities increasing around the ring) is
// Θ(n²). It contrasts the paper's anonymous Θ(n) algorithm with what
// unique identities alone achieve on the same asynchronous ring.
type ChangRobertsNode struct {
	id       int
	sendPort int
	active   bool
	leader   bool
}

var _ network.Node = (*ChangRobertsNode)(nil)

// NewChangRobertsNode returns a candidate node with the given unique
// identity, sending on sendPort — the out-port of its ring successor (0 on
// the natural ring).
func NewChangRobertsNode(id, sendPort int) *ChangRobertsNode {
	return &ChangRobertsNode{id: id, sendPort: sendPort, active: true}
}

// IsActive reports whether this node is still a candidate.
func (p *ChangRobertsNode) IsActive() bool { return p.active }

// IsLeader reports whether this node won.
func (p *ChangRobertsNode) IsLeader() bool { return p.leader }

// Init implements network.Node: announce candidacy.
func (p *ChangRobertsNode) Init(ctx *network.Context) {
	ctx.Send(p.sendPort, crMessage{ID: p.id})
}

// OnTimer implements network.Node; the algorithm is purely message-driven.
func (p *ChangRobertsNode) OnTimer(*network.Context, int) {}

// OnMessage implements network.Node.
func (p *ChangRobertsNode) OnMessage(ctx *network.Context, _ int, payload any) {
	m, ok := payload.(crMessage)
	if !ok {
		panic(fmt.Sprintf("election: foreign payload %T on Chang-Roberts ring", payload))
	}
	// A forward sends the payload as handed over: sending m would box it
	// again once IDs pass the runtime's cache of small boxed integers.
	switch {
	case !p.active:
		ctx.Send(p.sendPort, payload)
	case m.ID > p.id:
		p.active = false
		ctx.Send(p.sendPort, payload)
	case m.ID == p.id:
		p.leader = true
		ctx.StopNetwork("leader elected")
	default:
		// Purge smaller identities.
	}
}

// ChangRobertsArrangement selects how identities are laid out on the ring.
type ChangRobertsArrangement int

// Identity arrangements: random permutations give the Θ(n log n) average
// case. Ascending identities (in the direction of travel) are the Θ(n)
// best case — every token dies at its first hop. Descending identities are
// the Θ(n²) worst case — the token with identity k survives all the way to
// the maximum.
const (
	ArrangementRandom ChangRobertsArrangement = iota + 1
	ArrangementAscending
	ArrangementDescending
)

// IdentityArrangement lays out the unique identities 1..n around a ring of
// size n: entry i is node i's identity. The random layout is a pure
// function of seed, drawn from a dedicated stream so it never perturbs the
// run's own randomness.
func IdentityArrangement(n int, a ChangRobertsArrangement, seed uint64) ([]int, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	ids := make([]int, n)
	switch a {
	case ArrangementAscending:
		for i := range ids {
			ids[i] = i + 1
		}
	case ArrangementDescending:
		for i := range ids {
			ids[i] = n - i
		}
	default:
		perm := rng.New(seed).Derive("cr-ids").Perm(n)
		for i, p := range perm {
			ids[i] = p + 1
		}
	}
	return ids, nil
}

// Validate returns IdentityArrangement's error for an unknown arrangement;
// 0 means random.
func (a ChangRobertsArrangement) Validate() error {
	if a < 0 || a > ArrangementDescending {
		return fmt.Errorf("election: unknown arrangement %d", a)
	}
	return nil
}
