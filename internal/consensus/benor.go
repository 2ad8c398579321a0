// Package consensus implements randomized binary consensus on the ABE
// kernel: Ben-Or's classic algorithm (PODC 1983) with a selectable coin —
// each node's private local coin, or a common-coin oracle shared by every
// node — running fully message-driven on the asynchronous network layer.
//
// The protocol proceeds in asynchronous rounds of two phases. In phase 1
// every node broadcasts its current estimate and waits for n−f phase-1
// values of its round (its own included); if more than (n+f)/2 of them
// agree on v it proposes v, otherwise it proposes ⊥. In phase 2 it
// broadcasts the proposal and again waits for n−f; seeing more than
// (n+f)/2 identical non-⊥ proposals it *decides* that value, seeing at
// least f+1 it *adopts* it as the next estimate, and otherwise it flips
// its coin. Deciders keep participating (their estimate is pinned to the
// decision) so laggards can catch up; the run stops once every honest node
// has decided.
//
// Why it is here: the paper's bounded-*expected*-delay assumption (ABE
// Definition 1) is exactly the regime Ben-Or needs — rounds complete in
// expected-finite time because the n−f'th arrival has finite expectation —
// and the byzantine.Plan + local-broadcast machinery lets experiment E14
// measure the equivocation tolerance gap Khan & Vaidya prove: under
// point-to-point links safety needs f < n/3, under local broadcast the
// same adversary budget tolerates strictly more equivocators because the
// medium forces every lie to be consistent.
//
// E14 provisions at f = ⌊(n−1)/3⌋ — Khan & Vaidya's regime, but past this
// algorithm's own Byzantine bound n > 5f — so its "safe at every e < n/3" is
// an empirical reading, not a property of this package: it held at base
// seed 1 and failed on 2 of base seeds 1–10, where two equivocators on the
// broadcast medium made honest nodes decide both values. That is consistent
// with the n > 5f bound; Engine.Result reports it ("agreement
// violated"), and runner's TestBenOrLosesAgreementPastItsBound pins the two
// runs as found.
package consensus

import (
	"errors"
	"fmt"

	"abenet/internal/byzantine"
	"abenet/internal/network"
	"abenet/internal/probe"
	"abenet/internal/rng"
	"abenet/internal/topology"
)

// The sentinel estimate/proposal values. Regular values are 0 and 1.
const (
	// Unknown is the ⊥ proposal: "no super-majority seen".
	Unknown int8 = -1
	// notReceived marks an empty slot in a round's tally table.
	notReceived int8 = -2
)

// Msg is one Ben-Or message: a phase-1 report of the sender's current
// estimate, or a phase-2 proposal (possibly Unknown).
type Msg struct {
	Phase int8  // 1 or 2
	Round int32 // 1-based asynchronous round number
	Value int8  // 0 or 1; phase-2 proposals may be Unknown
}

// Corrupt implements byzantine.Corruptible: a forged copy claims a random
// bit. For phase-2 proposals this can turn an honest ⊥ into a concrete
// value backed by no quorum — the most damaging single-message forgery
// available against Ben-Or's counting rules.
func (m Msg) Corrupt(r *rng.Source) any {
	m.Value = int8(r.Intn(2))
	return m
}

// Coin selects the randomness nodes fall back to when a round ends
// undecided.
type Coin int

const (
	// CoinLocal is Ben-Or's original private coin: each node flips its own.
	CoinLocal Coin = iota
	// CoinCommon is a common-coin oracle: every node's flip for round r
	// yields the same bit (a pure function of the run seed and r),
	// modelling a shared-coin primitive without implementing one.
	CoinCommon
)

// InitKind selects the deterministic assignment of initial values.
type InitKind int

const (
	// InitRandom assigns each node an independent random bit (from a
	// dedicated stream, so the assignment never perturbs protocol
	// randomness).
	InitRandom InitKind = iota
	// InitZeros starts every node at 0 (unanimity: validity is testable).
	InitZeros
	// InitOnes starts every node at 1.
	InitOnes
	// InitHalf starts the lower half of the ring at 0 and the upper half
	// at 1 — a maximally split start that exercises the coin.
	InitHalf
)

// Config states the protocol half of a consensus run. The environment —
// delays, clocks, faults, adversaries, medium, bounds — is the run
// substrate's (internal/runner); this package only contributes the nodes,
// the engine-level decision record and the verdict.
type Config struct {
	// F is the number of adversarial nodes the protocol is provisioned to
	// tolerate: nodes wait for n−F values per phase. Must satisfy 3F < n
	// (larger F makes the phase-1 super-majority unreachable). The actual
	// byzantine.Plan may assign more roles than F — that is how an
	// experiment probes past the tolerance bound.
	F int
	// Init selects the initial-value assignment.
	Init InitKind
	// Coin selects the fallback coin.
	Coin Coin
	// MaxRounds caps the asynchronous round number; a node reaching it
	// halts (undecided unless it decided earlier). 0 means 200.
	MaxRounds int
}

// Result is the verdict of one consensus run. Agreement and Validity are
// judged over honest nodes only (nodes holding no Byzantine role): the
// classic properties say nothing about what liars output.
type Result struct {
	N, F    int
	Honest  int // number of honest nodes
	Decided int // honest nodes that decided
	// Decision is the unanimous honest decision, or -1 when no honest node
	// decided or honest deciders disagree.
	Decision int
	// Agreement: no two honest nodes decided different values.
	Agreement bool
	// Validity: if every honest node started with the same value v, every
	// honest decision is v (vacuously true on split starts).
	Validity bool
	// Termination: every honest node decided.
	Termination bool
	// Violations describes any agreement/validity breach, for Report.
	Violations []string
	// Rounds is the highest round reached by an honest node.
	Rounds int
	// DecisionRound is the highest round at which an honest node decided
	// (0 when none did).
	DecisionRound int
	// CoinFlips counts coin flips across honest nodes.
	CoinFlips int
	// Ignored counts malformed payloads dropped by honest nodes.
	Ignored int
	// InitialValues is the assignment the run started from.
	InitialValues []int8
}

// Engine is the engine-level state of one consensus instance: the initial
// assignment, the honest set and the decision record. Decisions are
// recorded here rather than on the nodes so they survive churn restarts
// and network teardown. The run substrate builds the network from
// MakeNode, samples ProbeGauges, and reads Result once the run ends.
type Engine struct {
	cfg       Config
	n         int
	maxRounds int32
	initial   []int8
	coinSeed  uint64

	honest      []bool
	honestCount int

	decisions      []int8
	decisionRounds []int32
	decidedHonest  int
	// allDecided fires once, when the last honest node decides.
	allDecided func(cause string)

	nodes []*node
}

// RequireComplete returns New's error for a graph that is not complete.
func RequireComplete(graph *topology.Graph) error {
	n := graph.N()
	for u := 0; u < n; u++ {
		if graph.OutDegree(u) != n-1 || graph.InDegree(u) != n-1 {
			return fmt.Errorf("consensus: ben-or requires a complete topology; node %d has degree %d/%d, want %d/%d",
				u, graph.OutDegree(u), graph.InDegree(u), n-1, n-1)
		}
	}
	return nil
}

// Validate returns New's error for cfg on a complete graph of n nodes.
func (cfg Config) Validate(n int) error {
	if cfg.F < 0 || 3*cfg.F >= n {
		return fmt.Errorf("consensus: f = %d must satisfy 0 <= 3f < n (n = %d): beyond it the phase-1 super-majority is unreachable", cfg.F, n)
	}
	if cfg.MaxRounds < 0 {
		return fmt.Errorf("consensus: MaxRounds = %d must be positive", cfg.MaxRounds)
	}
	return nil
}

// New validates cfg against the (complete) topology and prepares one
// consensus instance for seed, with the nodes adversaries names judged as
// Byzantine. Initial values and the common coin come from dedicated
// streams of the run root, so neither perturbs the network's
// node/edge/clock streams (nor each other).
func New(cfg Config, graph *topology.Graph, seed uint64, adversaries *byzantine.Plan) (*Engine, error) {
	if graph == nil {
		return nil, errors.New("consensus: config needs a graph")
	}
	n := graph.N()
	if err := RequireComplete(graph); err != nil {
		return nil, err
	}
	if err := cfg.Validate(n); err != nil {
		return nil, err
	}
	maxRounds := cfg.MaxRounds
	if maxRounds == 0 {
		maxRounds = 200
	}
	setup := rng.New(seed)
	e := &Engine{
		cfg:            cfg,
		n:              n,
		maxRounds:      int32(maxRounds),
		initial:        initialValues(cfg.Init, n, setup.Derive("consensus/init")),
		coinSeed:       setup.Derive("consensus/coin").Uint64(),
		honest:         make([]bool, n),
		decisions:      make([]int8, n),
		decisionRounds: make([]int32, n),
		nodes:          make([]*node, n),
	}
	for i := 0; i < n; i++ {
		e.honest[i] = !adversaries.IsAdversary(i)
		if e.honest[i] {
			e.honestCount++
		}
		e.decisions[i] = notReceived
	}
	return e, nil
}

// OnAllDecided registers the hook fired when the last honest node decides —
// the substrate stops the kernel there, since nothing the remaining
// traffic does can change the verdict.
func (e *Engine) OnAllDecided(stop func(cause string)) { e.allDecided = stop }

// MakeNode builds node i's protocol instance. Churn restarts call it again
// for the same i; the engine-level decision record outlives the instance.
func (e *Engine) MakeNode(i int) network.Node {
	e.nodes[i] = &node{
		id: i, n: e.n, f: e.cfg.F,
		est:       e.initial[i],
		coin:      e.cfg.Coin,
		coinSeed:  e.coinSeed,
		maxRounds: e.maxRounds,
		onDecide:  e.onDecide,
	}
	return e.nodes[i]
}

func (e *Engine) onDecide(id int, v int8, round int32) {
	if e.decisions[id] != notReceived {
		return // a churn-restarted incarnation re-deciding
	}
	e.decisions[id] = v
	e.decisionRounds[id] = round
	if e.honest[id] {
		e.decidedHonest++
		if e.decidedHonest == e.honestCount && e.allDecided != nil {
			e.allDecided("consensus: every honest node decided")
		}
	}
}

// ProbeGauges implements probe.Observable: round and phase progress across
// the live node instances and the count of honest deciders (tracked at the
// engine so it survives churn restarts).
func (e *Engine) ProbeGauges() []probe.Gauge {
	return []probe.Gauge{
		{Name: "round_max", Read: func() float64 {
			max := int32(0)
			for _, nd := range e.nodes {
				if nd != nil && nd.round > max {
					max = nd.round
				}
			}
			return float64(max)
		}},
		{Name: "round_min", Read: func() float64 {
			min := int32(0)
			first := true
			for _, nd := range e.nodes {
				if nd == nil {
					continue
				}
				if first || nd.round < min {
					min = nd.round
					first = false
				}
			}
			return float64(min)
		}},
		// lead_phase is the phase of the node at the (round, phase)
		// frontier — the lexicographically greatest progress point — not
		// the maximum phase over all nodes: a node at (round 5, phase 0)
		// leads one at (round 4, phase 1), so the gauge reads 0.
		{Name: "lead_phase", Read: func() float64 {
			var round int32
			var phase int8
			for _, nd := range e.nodes {
				if nd == nil {
					continue
				}
				if nd.round > round || (nd.round == round && nd.phase > phase) {
					round, phase = nd.round, nd.phase
				}
			}
			return float64(phase)
		}},
		{Name: "decided", Read: func() float64 { return float64(e.decidedHonest) }},
	}
}

// initialValues builds the deterministic initial assignment.
func initialValues(kind InitKind, n int, r *rng.Source) []int8 {
	initial := make([]int8, n)
	for i := range initial {
		switch kind {
		case InitZeros:
			initial[i] = 0
		case InitOnes:
			initial[i] = 1
		case InitHalf:
			if i >= n/2 {
				initial[i] = 1
			}
		default:
			initial[i] = int8(r.Intn(2))
		}
	}
	return initial
}

// Result judges the run from the engine-level decision record and the
// surviving node instances.
func (e *Engine) Result() Result {
	res := Result{
		N: e.n, F: e.cfg.F,
		Honest:        e.honestCount,
		Decision:      -1,
		InitialValues: e.initial,
		Agreement:     true,
		Validity:      true,
	}
	unanimous := true
	var initRef int8
	first := true
	for i := 0; i < e.n; i++ {
		if !e.honest[i] {
			continue
		}
		if first {
			initRef = e.initial[i]
			first = false
		} else if e.initial[i] != initRef {
			unanimous = false
		}
	}

	decision := int8(notReceived)
	for i := 0; i < e.n; i++ {
		if nd := e.nodes[i]; nd != nil && e.honest[i] {
			if int(nd.round) > res.Rounds {
				res.Rounds = int(nd.round)
			}
			res.CoinFlips += nd.coinFlips
			res.Ignored += nd.ignored
		}
		if !e.honest[i] || e.decisions[i] == notReceived {
			continue
		}
		res.Decided++
		if int(e.decisionRounds[i]) > res.DecisionRound {
			res.DecisionRound = int(e.decisionRounds[i])
		}
		if decision == notReceived {
			decision = e.decisions[i]
		} else if e.decisions[i] != decision && res.Agreement {
			res.Agreement = false
			res.Violations = append(res.Violations,
				fmt.Sprintf("agreement violated: honest nodes decided both %d and %d", decision, e.decisions[i]))
		}
		if unanimous && e.decisions[i] != initRef {
			res.Validity = false
			res.Violations = append(res.Violations,
				fmt.Sprintf("validity violated: every honest node started with %d but node %d decided %d", initRef, i, e.decisions[i]))
		}
	}
	res.Termination = res.Decided == res.Honest
	if res.Agreement && decision != notReceived {
		res.Decision = int(decision)
	}
	return res
}

// node is one Ben-Or protocol instance. Tallies live in a sliding window of
// per-round rows: rows[k] belongs to round round+k, so the window opens on
// the round in progress and reaches as far ahead as traffic has arrived for.
// A completed round's row leaves the window and its table is reused by the
// next row to open; a message for a round already completed is dropped —
// up to f of the n−1 values of every phase arrive that late. Honest traffic
// therefore holds a table per round in flight and nothing else. A row is 40
// bytes until a value arrives for its round and gets its table (2n bytes)
// then, so a Byzantine message naming a far-away round — any round up to
// MaxRounds is valid, a slow honest node may lag that far — costs one table
// plus 40 bytes per round skipped, never a table per round skipped.
type node struct {
	id, n, f  int
	est       int8
	round     int32
	phase     int8
	decided   bool
	decision  int8
	halted    bool
	coin      Coin
	coinSeed  uint64
	coinFlips int
	ignored   int
	maxRounds int32

	rows  []roundRow // rows[k] tallies round round+k
	spare [][]int8   // tables of completed rounds, for the next rows to open

	onDecide func(id int, v int8, round int32)
}

// roundRow tallies one round: the values received per phase, first value per
// sender, and how many.
type roundRow struct {
	// vals[(phase−1)·n + slot] is the phase's value from slot: in-ports
	// 0..n−2 for the other nodes, slot n−1 for the node's own. Nil until
	// the round's first value arrives.
	vals  []int8
	count [2]int
}

var _ network.Node = (*node)(nil)

// Init implements network.Node.
func (nd *node) Init(ctx *network.Context) {
	nd.round = 1
	nd.phase = 1
	nd.record(1, 1, nd.n-1, nd.est)
	ctx.Broadcast(Msg{Phase: 1, Round: 1, Value: nd.est})
	nd.advance(ctx)
}

// OnMessage implements network.Node. Malformed payloads — wrong type,
// out-of-range phase/round/value — are counted and dropped rather than
// trusted: an adversary must not crash an honest node.
func (nd *node) OnMessage(ctx *network.Context, inPort int, payload any) {
	if nd.halted {
		return
	}
	m, ok := payload.(Msg)
	if !ok {
		nd.ignored++
		return
	}
	if m.Round < 1 || m.Round > nd.maxRounds {
		nd.ignored++
		return
	}
	switch m.Phase {
	case 1:
		if m.Value != 0 && m.Value != 1 {
			nd.ignored++
			return
		}
	case 2:
		if m.Value != 0 && m.Value != 1 && m.Value != Unknown {
			nd.ignored++
			return
		}
	default:
		nd.ignored++
		return
	}
	nd.record(m.Phase, m.Round, inPort, m.Value)
	nd.advance(ctx)
}

// OnTimer implements network.Node: the protocol is purely message-driven.
func (nd *node) OnTimer(ctx *network.Context, kind int) {}

// record stores the first value per (phase, round, slot); duplicates (from
// fault-plan duplication) and values for a completed round are ignored. The
// window grows to reach a round ahead of it, and only a round that has
// received a value gets a table.
func (nd *node) record(phase int8, round int32, slot int, v int8) {
	if round < nd.round {
		return
	}
	for int(round-nd.round) >= len(nd.rows) {
		nd.rows = append(nd.rows, roundRow{})
	}
	row := &nd.rows[round-nd.round]
	if row.vals == nil {
		if k := len(nd.spare); k > 0 {
			row.vals, nd.spare = nd.spare[k-1], nd.spare[:k-1]
		} else {
			row.vals = make([]int8, 2*nd.n)
		}
		for i := range row.vals {
			row.vals[i] = notReceived
		}
	}
	if i := int(phase-1)*nd.n + slot; row.vals[i] == notReceived {
		row.vals[i] = v
		row.count[phase-1]++
	}
}

// advance runs the state machine as far as buffered messages allow —
// possibly several phases, when future-round traffic arrived early. The
// node's own value of the phase in progress is always recorded, so rows[0]
// exists.
func (nd *node) advance(ctx *network.Context) {
	for !nd.halted {
		row := &nd.rows[0]
		switch {
		case nd.phase == 1 && row.count[0] >= nd.n-nd.f:
			c0, c1 := tally(row.vals[:nd.n])
			prop := Unknown
			if 2*c0 > nd.n+nd.f {
				prop = 0
			} else if 2*c1 > nd.n+nd.f {
				prop = 1
			}
			nd.phase = 2
			nd.record(2, nd.round, nd.n-1, prop)
			ctx.Broadcast(Msg{Phase: 2, Round: nd.round, Value: prop})

		case nd.phase == 2 && row.count[1] >= nd.n-nd.f:
			c0, c1 := tally(row.vals[nd.n:])
			if 2*c0 > nd.n+nd.f {
				nd.decide(0)
			} else if 2*c1 > nd.n+nd.f {
				nd.decide(1)
			}
			switch {
			case nd.decided:
				nd.est = nd.decision // pinned: deciders keep relaying
			case c0 >= nd.f+1 && c0 >= c1:
				nd.est = 0
			case c1 >= nd.f+1:
				nd.est = 1
			default:
				nd.est = nd.coinFlip(ctx)
			}
			if nd.round >= nd.maxRounds {
				nd.halted = true
				return
			}
			// The window slides: the finished row leaves, its table waits
			// for the next row to open.
			nd.spare = append(nd.spare, row.vals)
			nd.rows = nd.rows[:copy(nd.rows, nd.rows[1:])]
			nd.round++
			nd.phase = 1
			nd.record(1, nd.round, nd.n-1, nd.est)
			ctx.Broadcast(Msg{Phase: 1, Round: nd.round, Value: nd.est})

		default:
			return
		}
	}
}

// decide locks in v (idempotent: the first decision wins).
func (nd *node) decide(v int8) {
	if nd.decided {
		return
	}
	nd.decided = true
	nd.decision = v
	nd.onDecide(nd.id, v, nd.round)
}

// coinFlip returns the round's fallback bit. The common coin is a pure
// function of (coin seed, round), so every node flipping in round r sees
// the same bit regardless of when it flips.
func (nd *node) coinFlip(ctx *network.Context) int8 {
	nd.coinFlips++
	if nd.coin == CoinCommon {
		return int8(rng.New(nd.coinSeed).DeriveIndexed("round", int(nd.round)).Uint64() & 1)
	}
	return int8(ctx.Rand().Intn(2))
}

// tally counts the 0s and 1s in a round table (Unknown and empty slots
// count as neither).
func tally(t []int8) (c0, c1 int) {
	for _, v := range t {
		switch v {
		case 0:
			c0++
		case 1:
			c1++
		}
	}
	return c0, c1
}
