package core

import (
	"fmt"
	"math"

	"abenet/internal/network"
)

// State is the election state of a node (Section 3 of the paper).
type State uint8

// The four node states. Idle nodes may wake up and contend; active nodes
// have a message of their own in flight; passive nodes only relay; the
// leader is the unique winner.
const (
	Idle State = iota + 1
	Active
	Passive
	Leader
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Idle:
		return "idle"
	case Active:
		return "active"
	case Passive:
		return "passive"
	case Leader:
		return "leader"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// HopMessage is the single message type of the election algorithm: a hop
// counter in {1..n} certifying that Hop−1 consecutive predecessors of the
// receiver are passive.
//
// Epoch is always 0 in the paper's algorithm. Under the opt-in
// re-candidacy rule it stamps which re-candidacy wave the token belongs
// to: a passivity certificate is only valid within the epoch whose resets
// produced it, so nodes purge tokens from older epochs and reset their
// knowledge when a newer epoch reaches them.
//
// Both fields are 32-bit, as a ring's size and a node's epoch are, so a
// relayed token boxes 8 bytes.
type HopMessage struct {
	Hop   int32
	Epoch int32
}

// HopCount exposes the relay counter to the causal tracer (trace.HopCarrier):
// a token relayed over k consecutive hops carries Hop ≥ k, which the
// trace/causal analysis checks against the measured chain length.
func (m HopMessage) HopCount() int { return int(m.Hop) }

// tickTimer is the kind of the per-node wake-up timer.
const tickTimer = 1

// A0ForRing returns the base activation parameter for a ring of size n with
// expected per-link delay delta and local tick interval tick, scaled by the
// aggressiveness constant c (c = 1 is the balanced default).
//
// Rationale: the adaptive rule keeps the network-wide activation rate at
// about A0·n per tick — constant over time, which is the paper's stated
// design goal. A freshly activated node's message needs about n·delta time
// to traverse the ring; the election succeeds quickly once the expected
// number of interfering activations within one traversal, A0·n·(n·delta) /
// tick, is a small constant c. Solving gives A0 = c·tick/(n²·delta): with
// this choice the algorithm waits Θ(n) expected time for a viable
// activation, spends Θ(n) on the winning traversal and Θ(1) expected failed
// rounds of Θ(n) messages — the paper's average linear time and message
// complexity. Larger c trades more knockout collisions (messages) for less
// waiting (time); smaller c the reverse (experiment E6 sweeps c).
//
// The result is clamped into (0, 1/2] so it is always a valid probability.
func A0ForRing(n int, delta, tick, c float64) float64 {
	if n < 2 {
		panic(fmt.Sprintf("core: A0ForRing needs n >= 2, got %d", n))
	}
	if !(delta > 0) || !(tick > 0) || !(c > 0) {
		panic(fmt.Sprintf("core: A0ForRing needs positive delta, tick and c (got %g, %g, %g)", delta, tick, c))
	}
	a0 := c * tick / (float64(n) * float64(n) * delta)
	if a0 > 0.5 {
		a0 = 0.5
	}
	return a0
}

// DefaultA0 is A0ForRing for the canonical environment: unit expected
// delay, unit ticks, c = 1.
func DefaultA0(n int) float64 { return A0ForRing(n, 1, 1, 1) }

// ElectionNode runs the paper's election algorithm for anonymous,
// unidirectional rings of known size n:
//
//   - If idle, at every local clock tick, with probability 1−(1−A0)^d
//     become active and send ⟨1⟩.
//   - On receiving ⟨hop⟩, set d := max(d, hop); then if idle become
//     passive and send ⟨d+1⟩; if passive send ⟨d+1⟩; if active become
//     leader when hop = n, otherwise idle — purging the message either way.
//
// The exponent d in the activation probability is the paper's key idea: d−1
// predecessors are known passive, so a node that speaks for d ring
// positions raises its wake-up rate to keep the *overall* activation rate
// constant over time, yielding linear average time and message complexity.
//
// A node is its state, in 32 bytes: a pointer to the ElectionParams its
// whole ring shares — which also keep the ring's Tally, so a node counts
// nothing of its own — one pointer to a NodeExtra (the violation log and the
// re-candidacy state) that stays nil in a paper-default run, a 32-bit send
// port and d (a ring's size and ports are bounded by the 32-bit numbering of
// topology.Graph), and the state.
type ElectionNode struct {
	params   *ElectionParams
	extra    *NodeExtra // nil until a violation, unless re-candidacy is on
	sendPort int32
	d        int32
	state    State
}

// Tally is what a ring's election counted over all of its nodes and every
// churn incarnation of them, and how many of the ring's current incarnations
// are in each state but idle: every state change keeps those counts, and
// ElectionParams.Retire takes a replaced incarnation out of them, so reading
// how many nodes are active costs O(1), not a pass over the ring.
type Tally struct {
	Activations    int // idle→active transitions
	Knockouts      int // messages purged while active (hop < n)
	ResidualPurges int // messages purged after becoming leader

	Active, Passive, Leaders int // current incarnations in each state
}

// add adds d to the count of state s, if the tally keeps one.
func (t *Tally) add(s State, d int) {
	switch s {
	case Active:
		t.Active += d
	case Passive:
		t.Passive += d
	case Leader:
		t.Leaders += d
	}
}

// NodeExtra is what an election node keeps beyond the paper's algorithm: the
// state of the opt-in re-candidacy rule and the log of invariant violations.
// A paper-default node has none until it records a violation; a re-candidacy
// node has one from the start, which a ring of them can lay out in one slab
// (see ElectionParams.Node).
type NodeExtra struct {
	epoch int32 // re-candidacy wave this node's knowledge belongs to

	// lastActivity is the local-clock instant of the node's last protocol
	// activity (message seen or state transition).
	lastActivity float64

	recandidacies int      // timeout-driven returns to the idle state
	stalePurges   int      // tokens purged for carrying an outdated epoch
	violations    []string // invariant violations observed (always empty if the algorithm is correct)
}

var _ network.Node = (*ElectionNode)(nil)

// ElectionNodeConfig configures one election node.
type ElectionNodeConfig struct {
	// RingSize is the known ring size n (the paper assumes known n).
	RingSize int
	// A0 is the base activation parameter, in (0, 1).
	A0 float64
	// TickInterval is the local-clock period between wake-up attempts.
	// The paper's "every clock tick" is one local time unit; 0 means 1.
	TickInterval float64
	// StopOnLeader halts the network as soon as this node wins. Turn it
	// off for safety experiments that keep running to look for a second
	// leader.
	StopOnLeader bool
	// ConstantActivation disables the paper's d-adaptive wake-up rule and
	// always activates with probability A0. This is the E5 ablation: it
	// remains correct but loses the constant overall wake-up rate that
	// gives the algorithm its linear complexity.
	ConstantActivation bool
	// SendPort is the out-port leading to the node's ring successor. On
	// the unidirectional ring it is 0; on richer topologies it is the port
	// of the embedded Hamiltonian cycle (topology.RingEmbedding).
	SendPort int
	// RecandidacyTimeout, when positive, lets a passive node return to the
	// idle state (with d reset to 1, as if restarted by churn) after that
	// many local clock units without seeing a single message. The paper's
	// algorithm has no such rule — once passive, forever passive — which is
	// correct in the fault-free model but leaves a healed partition
	// leaderless forever: every token died at the cut and nobody is left to
	// re-candidate. The timeout restores liveness after such faults without
	// requiring restart churn. Choose it large against n·δ (several ring
	// traversals) so a quiesced network is overwhelmingly likely before
	// anyone re-candidates; 0 (the default) disables the rule and keeps
	// runs byte-identical to the unmodified algorithm.
	RecandidacyTimeout float64
}

// ElectionParams are the constants of one ring's election, shared by all of
// its nodes and by every churn incarnation of them, and the ring's Tally,
// which those nodes count into. A tally belongs to one ring: make one
// ElectionParams per run.
type ElectionParams struct {
	a0           float64
	tickInterval float64
	recandidacy  float64 // passive→idle timeout in local clock units; 0 disables
	ringSize     int32   // below math.MaxInt32, so the hop n+1 fits too
	stopOnLeader bool
	constantAct  bool
	tally        Tally
}

// NewElectionParams validates the ring-wide fields of cfg — all but
// SendPort — once for a whole ring, with a zero Tally.
func NewElectionParams(cfg ElectionNodeConfig) (*ElectionParams, error) {
	params, err := cfg.params()
	if err != nil {
		return nil, err
	}
	return &params, nil
}

func (cfg ElectionNodeConfig) params() (ElectionParams, error) {
	if cfg.RingSize < 2 {
		return ElectionParams{}, fmt.Errorf("core: ring size %d must be at least 2", cfg.RingSize)
	}
	if cfg.RingSize > math.MaxInt32 {
		return ElectionParams{}, fmt.Errorf("core: ring size %d exceeds the 32-bit node numbering", cfg.RingSize)
	}
	if cfg.RingSize == math.MaxInt32 {
		return ElectionParams{}, fmt.Errorf("core: ring size %d leaves no room for the 32-bit hop n+1", cfg.RingSize)
	}
	if cfg.TickInterval < 0 || math.IsNaN(cfg.TickInterval) || math.IsInf(cfg.TickInterval, 0) {
		return ElectionParams{}, fmt.Errorf("core: tick interval %g must be non-negative and finite", cfg.TickInterval)
	}
	if !(cfg.A0 > 0 && cfg.A0 < 1) {
		return ElectionParams{}, fmt.Errorf("core: A0 = %g must be in (0, 1)", cfg.A0)
	}
	if cfg.TickInterval == 0 {
		cfg.TickInterval = 1
	}
	if cfg.RecandidacyTimeout < 0 || math.IsNaN(cfg.RecandidacyTimeout) || math.IsInf(cfg.RecandidacyTimeout, 0) {
		return ElectionParams{}, fmt.Errorf("core: re-candidacy timeout %g must be non-negative and finite", cfg.RecandidacyTimeout)
	}
	return ElectionParams{
		ringSize:     int32(cfg.RingSize),
		a0:           cfg.A0,
		tickInterval: cfg.TickInterval,
		recandidacy:  cfg.RecandidacyTimeout,
		stopOnLeader: cfg.StopOnLeader,
		constantAct:  cfg.ConstantActivation,
	}, nil
}

// Tally returns what p's ring has counted so far.
func (p *ElectionParams) Tally() Tally { return p.tally }

// Retire takes e, an incarnation of one of p's nodes that a churn restart has
// replaced, out of the tally's state counts. e keeps its state, for whoever
// still reads it; it must not run again.
func (p *ElectionParams) Retire(e *ElectionNode) { p.tally.add(e.state, -1) }

// Node returns a node of p's ring in the initial state (idle, d = 1) that
// sends on sendPort, by value, for callers that keep a whole ring's nodes in
// one slice instead of one heap object per node. When p enables re-candidacy
// the node keeps its state in extra, reset here — an entry of a slab the ring
// lays out once — or, when extra is nil, in a NodeExtra of its own. Otherwise
// extra is not used.
func (p *ElectionParams) Node(sendPort int, extra *NodeExtra) (ElectionNode, error) {
	if sendPort < 0 {
		return ElectionNode{}, fmt.Errorf("core: send port %d must be non-negative", sendPort)
	}
	if sendPort > math.MaxInt32 {
		return ElectionNode{}, fmt.Errorf("core: send port %d exceeds the 32-bit port numbering", sendPort)
	}
	node := ElectionNode{params: p, sendPort: int32(sendPort), state: Idle, d: 1}
	if p.recandidacy > 0 {
		if extra == nil {
			extra = new(NodeExtra)
		}
		*extra = NodeExtra{}
		node.extra = extra
	}
	return node, nil
}

// NewElectionNode validates the configuration and returns a node in the
// initial state (idle, d = 1). The node and its own ElectionParams are one
// object: one allocation per node, and a second for its NodeExtra when
// re-candidacy is on. Such a node still counts its activations, knockouts and
// residual purges into its params' Tally, but nothing can read that tally: a
// ring's counts are kept only by the ElectionParams from NewElectionParams
// that its nodes share.
func NewElectionNode(cfg ElectionNodeConfig) (*ElectionNode, error) {
	params, err := cfg.params()
	if err != nil {
		return nil, err
	}
	obj := &struct {
		node   ElectionNode
		params ElectionParams
	}{params: params}
	if obj.node, err = obj.params.Node(cfg.SendPort, nil); err != nil {
		return nil, err
	}
	return &obj.node, nil
}

// State returns the node's current election state.
func (e *ElectionNode) State() State { return e.state }

// D returns the node's current knowledge counter d (d−1 predecessors are
// known passive).
func (e *ElectionNode) D() int { return int(e.d) }

// Recandidacies returns the node's timeout-driven returns to the idle state
// (re-candidacy mode only).
func (e *ElectionNode) Recandidacies() int {
	if e.extra == nil {
		return 0
	}
	return e.extra.recandidacies
}

// StalePurges returns the tokens the node purged for carrying an outdated
// epoch (re-candidacy mode only).
func (e *ElectionNode) StalePurges() int {
	if e.extra == nil {
		return 0
	}
	return e.extra.stalePurges
}

// Violations returns the invariant violations the node observed, in order:
// always none if the algorithm is correct.
func (e *ElectionNode) Violations() []string {
	if e.extra == nil {
		return nil
	}
	return e.extra.violations
}

// epoch returns the re-candidacy wave of the node's knowledge: 0 forever in
// the paper's algorithm.
func (e *ElectionNode) epoch() int32 {
	if e.extra == nil {
		return 0
	}
	return e.extra.epoch
}

// ActivationProbability returns the per-tick wake-up probability at the
// node's current knowledge: 1−(1−A0)^d, or the constant A0 under the
// ablation. At d = 1 it skips math.Pow, whose Pow(x, 1) is x, so the bits
// are the same. Only a knocked-out node ticks idle at d > 1, so nearly every
// call is at d = 1.
func (e *ElectionNode) ActivationProbability() float64 {
	p := e.params
	switch {
	case p.constantAct:
		return p.a0
	case e.d == 1:
		return 1 - (1 - p.a0)
	}
	return 1 - math.Pow(1-p.a0, float64(e.d))
}

// Init implements network.Node: start the local tick loop.
func (e *ElectionNode) Init(ctx *network.Context) {
	ctx.SetLocalTimerFunc(e.params.tickInterval, tickTimer)
}

// OnTimer implements network.Node: the idle wake-up rule, plus the opt-in
// re-candidacy rule for passive nodes.
func (e *ElectionNode) OnTimer(ctx *network.Context, kind int) {
	if kind != tickTimer {
		e.violate("unexpected timer kind %d", kind)
		return
	}
	// The tick loop runs for the node's lifetime; only idle ticks can act.
	p := e.params
	ctx.SetLocalTimerFunc(p.tickInterval, tickTimer)
	if x := e.extra; p.recandidacy > 0 && (e.state == Passive || e.state == Active) &&
		ctx.LocalTime()-x.lastActivity >= p.recandidacy {
		// Nothing has flowed past this node for the whole timeout: assume
		// the election wedged (e.g. every token died at a partition cut —
		// including this node's own, if it is still waiting as an active
		// candidate) and rejoin as a fresh candidate in a new epoch. The
		// epoch bump is what keeps the paper's d+1 relay jumps sound: d
		// certifies "d−1 consecutive predecessors are passive", and a
		// passive→idle reset silently voids every downstream d that
		// counted this node — so knowledge accumulated before the reset
		// must never mix with knowledge after it. Tokens carry the epoch;
		// older-epoch tokens are purged, newer-epoch tokens reset d as
		// they pass, and within one epoch the fault-free invariants hold.
		if x.epoch == math.MaxInt32 {
			// Every epoch is a re-candidacy somewhere on the ring, one timer
			// event each, and the kernel's event budget is unbounded.
			panic("core: re-candidacy epoch overflows its 32 bits")
		}
		e.become(Idle)
		e.d = 1
		x.epoch++
		x.recandidacies++
		x.lastActivity = ctx.LocalTime()
	}
	if e.state != Idle {
		return
	}
	if ctx.Rand().Bool(e.ActivationProbability()) {
		e.become(Active)
		p.tally.Activations++
		if p.recandidacy > 0 {
			// The candidacy is this node's own activity: give the token a
			// full timeout's worth of patience to come back around.
			e.extra.lastActivity = ctx.LocalTime()
		}
		ctx.Send(int(e.sendPort), HopMessage{Hop: 1, Epoch: e.epoch()})
	}
}

// OnMessage implements network.Node: the forwarding/knockout rule.
func (e *ElectionNode) OnMessage(ctx *network.Context, _ int, payload any) {
	msg, ok := payload.(HopMessage)
	if !ok {
		e.violate("foreign payload %T", payload)
		return
	}
	p := e.params
	if x := e.extra; p.recandidacy > 0 && e.state != Leader {
		switch {
		case msg.Epoch < x.epoch:
			// A token from before a re-candidacy wave: its passivity
			// certificate counts nodes that have since reset, so it must
			// not knock anyone out, win, or feed anyone's d. Purge it.
			x.stalePurges++
			return
		case msg.Epoch > x.epoch:
			// A newer wave reached this node: all pre-wave knowledge is
			// void. Adopt the epoch with fresh d; an own candidacy from
			// the old epoch is void too (its token, if alive, will be
			// purged — and counted — as stale wherever it lands, so this
			// demotion bumps no counter: the node goes on to handle the
			// incoming token normally, typically relaying it.
			x.epoch = msg.Epoch
			e.d = 1
			if e.state == Active {
				e.become(Idle)
			}
		}
		// Current-epoch traffic proves the election is flowing; push the
		// re-candidacy deadline out. All of this is guarded so disabled
		// runs never touch the local clock here and stay byte-identical.
		x.lastActivity = ctx.LocalTime()
	}
	if msg.Hop < 1 || msg.Hop > p.ringSize {
		// The algorithm guarantees hop ∈ {1..n}; seeing anything else
		// means the protocol (or this implementation) is broken.
		e.violate("hop %d outside [1, %d]", msg.Hop, p.ringSize)
		return
	}
	if msg.Hop > e.d {
		e.d = msg.Hop
	}

	switch e.state {
	case Idle:
		e.become(Passive)
		e.relay(ctx)
	case Passive:
		e.relay(ctx)
	case Active:
		if msg.Hop == p.ringSize {
			e.become(Leader)
			if p.stopOnLeader {
				ctx.StopNetwork("leader elected")
			}
		} else {
			p.tally.Knockouts++
			e.become(Idle)
		}
		// The message is purged in both cases: no forward.
	case Leader:
		// With message reordering the leader's earlier activations can
		// leave residual messages alive; by the time the leader is
		// elected every other node is passive, so such messages circulate
		// straight back to the leader. Purge them silently — they are
		// part of correct executions (observable with StopOnLeader off).
		p.tally.ResidualPurges++
	default:
		e.violate("impossible state %v", e.state)
	}
}

// become moves e to state s and its ring's Tally with it.
func (e *ElectionNode) become(s State) {
	t := &e.params.tally
	t.add(e.state, -1)
	t.add(s, 1)
	e.state = s
}

// relay forwards ⟨d+1⟩ to the successor. d ≤ n < MaxInt32, so d+1 fits.
func (e *ElectionNode) relay(ctx *network.Context) {
	ctx.Send(int(e.sendPort), HopMessage{Hop: e.d + 1, Epoch: e.epoch()})
}

// violate records an invariant violation, making the node's NodeExtra if it
// has none yet: only a broken run pays for the log.
func (e *ElectionNode) violate(format string, args ...any) {
	if e.extra == nil {
		e.extra = new(NodeExtra)
	}
	e.extra.violations = append(e.extra.violations, fmt.Sprintf(format, args...))
}
