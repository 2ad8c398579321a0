// Package synchronizer implements synchronizers: algorithms that simulate a
// synchronous network on an asynchronous (here: ABE) one — and, under the
// clock synchronizer on links that honour its period, the synchronous model
// itself.
//
// The paper's Theorem 1 states that ABE networks of size n cannot be
// synchronised with fewer than n messages per round — Awerbuch's lower
// bound for asynchronous networks carries over because every asynchronous
// execution is also an ABE execution. This package provides the machinery
// to observe that cost, and its consequence ("we cannot run synchronous
// algorithms in ABE networks without losing the message complexity"):
//
//   - Round: the message-driven round synchronizer. Every node sends one
//     envelope per out-edge per round (payload or empty) and advances when
//     it has heard round r from all in-neighbours. Exactly |E| ≥ n
//     messages per round — it meets Awerbuch's bound, demonstrating the
//     bound is tight.
//   - Alpha: Awerbuch's α-synchronizer (payload + ack + safe per edge per
//     round) for bidirectional graphs — 3|E| messages per round, the
//     classic general-purpose synchronizer.
//   - Gamma (gamma.go): Awerbuch's γ-synchronizer — β-style tree
//     convergecast inside BFS clusters of bounded radius, α-style safety
//     exchange between adjacent clusters — interpolating between the two.
//   - Beta: Awerbuch's β-synchronizer (payload acks + 2(n−1) messages on
//     one global spanning tree per round). It is γ with a single cluster,
//     and is run as exactly that: Gamma at a radius no BFS can exhaust.
//   - Clock (clock.go): the Tel–Korach–Zaks style ABD synchronizer that
//     uses *zero* extra messages by trusting a hard delay bound — and
//     therefore cannot be correct on ABE networks, where no hard bound
//     exists (experiment E9 measures its round violations). Where the bound
//     does hold it is the lock-step model: at period 1 over links of delay
//     ½ and perfect clocks, round r+1 sees exactly the messages of round r.
//
// The package supplies nodes; it builds no network and runs nothing. New
// validates and precomputes, Node wraps a protocol instance into a
// network.Node, and Result reads the outcome back from the network the run
// substrate (internal/runner) built and ran.
package synchronizer

import (
	"errors"
	"fmt"
	"math"

	"abenet/internal/network"
	"abenet/internal/probe"
	"abenet/internal/rng"
	"abenet/internal/topology"
)

// Message is one message delivered at a round boundary.
type Message struct {
	// InPort is the receiver's local port the message arrived on.
	InPort int
	// Payload is the protocol content.
	Payload any
}

// NodeContext is the local view a synchronous protocol gets for one round;
// it is valid until Round returns.
type NodeContext interface {
	// N returns the network size (known-n assumption).
	N() int
	// ID returns the node identity; panics on anonymous networks.
	ID() int
	// OutDegree returns the number of out-ports.
	OutDegree() int
	// Send queues payload for delivery on outPort at the next round. A nil
	// payload is payload-less: it is carried and counted like any other,
	// but it puts nothing in the receiver's inbox.
	Send(outPort int, payload any)
	// Rand returns the node's private random stream.
	Rand() *rng.Source
	// StopNetwork ends the run.
	StopNetwork(cause string)
}

// Node is a synchronous protocol instance. Round is called once per round
// with all messages sent to the node in the previous round, ordered by
// in-port; the inbox is the synchronizer's and must not be kept.
type Node interface {
	Round(ctx NodeContext, round int, inbox []Message)
}

// Kind selects a synchronizer construction.
type Kind int

// The synchronizers.
const (
	// KindRound is the minimal round-message synchronizer (|E|/round).
	KindRound Kind = iota + 1
	// KindAlpha is Awerbuch's α-synchronizer (3|E|/round), bidirectional
	// topologies only.
	KindAlpha
	// KindBeta is Awerbuch's β-synchronizer (payload acks + 2(n−1) tree
	// messages per round), bidirectional topologies only. Cheapest on
	// dense graphs, at the price of Ω(tree depth) round latency.
	KindBeta
	// KindGamma is Awerbuch's γ-synchronizer: β within BFS clusters of
	// bounded radius (Options.ClusterRadius), α-style safety exchange
	// between adjacent clusters over one preferred edge per pair. It
	// interpolates between α (radius 0-ish) and β (radius ≥ diameter),
	// trading messages against round latency. Bidirectional only.
	KindGamma
	// KindClock is the clock-driven ABD synchronizer: round r starts at
	// local time (r+1)·Options.Period and sends no control message at all.
	// Any graph will do.
	KindClock
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindRound:
		return "round"
	case KindAlpha:
		return "alpha"
	case KindBeta:
		return "beta"
	case KindGamma:
		return "gamma"
	case KindClock:
		return "clock"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Options selects the synchronizer construction and its round budget. Of
// the network the protocol is synchronised over, New takes only the graph:
// links, clocks, seed, scheduler and anonymity belong to the run substrate
// (internal/runner), which builds the network around the nodes.
type Options struct {
	// Kind selects the synchronizer; required.
	Kind Kind
	// ClusterRadius is the γ-synchronizer's BFS cluster radius; 0 means 2.
	// Ignored by the other kinds.
	ClusterRadius int
	// Period is KindClock's round length in local time units: positive and
	// finite. Ignored by the other kinds.
	Period float64
	// MaxRounds is the round budget: a message-driven synchronizer stops
	// the network once a node would start round MaxRounds, the clock
	// synchronizer stops ticking there and lets the messages in flight
	// land. A protocol that has not stopped by then is an error. 0 means
	// 10000.
	MaxRounds int
}

// Result summarises a synchronized execution.
type Result struct {
	// Rounds is the highest round any node completed.
	Rounds int
	// MinRounds is the number of rounds completed by every node.
	MinRounds int
	// Messages counts every network message, including synchronizer
	// control traffic.
	Messages uint64
	// PayloadMessages counts protocol payloads carried.
	PayloadMessages uint64
	// MessagesPerRound is Messages/MinRounds — the sustained per-round
	// message cost Theorem 1 lower bounds by n. MinRounds is the honest
	// denominator: when the protocol stops mid-round some nodes have not
	// executed the final round, and dividing by the maximum would
	// understate the sustained cost.
	MessagesPerRound float64
	// Violations counts, under KindClock, the messages that arrived after
	// their receiver had started the round meant to consume them — synchrony
	// broken. On an ABD network with Period above the hard delay bound this
	// is 0; on an ABE network it is positive with probability approaching 1
	// as the run grows. The message-driven kinds never violate a round.
	Violations uint64
	// MaxLateness is the worst observed number of rounds a violating
	// message was late by.
	MaxLateness int
	// Time is the virtual completion time.
	Time float64
	// Stopped reports whether the protocol stopped the run (vs hitting
	// MaxRounds).
	Stopped bool
	// StopCause is the protocol's stop cause, if any.
	StopCause string
}

// Synchronizer supplies the nodes of one synchronized execution and reads
// its outcome back: New validates the topology and precomputes the
// geometry, Node wraps each synchronous protocol instance for the
// asynchronous network, and Result harvests the finished run.
type Synchronizer struct {
	graph     *topology.Graph
	kind      Kind
	maxRounds int
	period    float64
	// clusters is the per-node cluster geometry of β and γ.
	clusters []clusterPorts
	// cores are the nodes' round cores, by index: one slab, so KindClock —
	// whose node is its bare core — costs no allocation per node.
	cores []roundCore
	// view is the NodeContext of the round being executed. The kernel runs
	// one node's round at a time, so one view serves them all.
	view protoContext

	payloads, violations uint64
	maxLateness          int
}

var _ probe.Observable = (*Synchronizer)(nil)

// ErrRoundBudget is wrapped by Result's error when the round budget ran out
// before the protocol stopped.
var ErrRoundBudget = errors.New("synchronizer: protocol did not stop")

// New prepares a synchronizer of the given kind over g, refusing what
// opts.Validate refuses.
func New(g *topology.Graph, opts Options) (*Synchronizer, error) {
	if g == nil {
		return nil, errors.New("synchronizer: needs a graph")
	}
	if err := opts.Validate(g); err != nil {
		return nil, err
	}
	s := &Synchronizer{graph: g, kind: opts.Kind, maxRounds: opts.MaxRounds, period: opts.Period, cores: make([]roundCore, g.N())}
	if s.maxRounds == 0 {
		s.maxRounds = 10000
	}
	switch opts.Kind {
	case KindBeta:
		// β is γ with a single cluster: a radius no BFS can exhaust.
		s.clusters = clusterGeometry(g, g.N())
	case KindGamma:
		radius := opts.ClusterRadius
		if radius < 1 {
			radius = 2
		}
		s.clusters = clusterGeometry(g, radius)
	}
	return s, nil
}

// Validate returns New's error for o over g. The message-driven kinds need
// g strongly connected and — for every kind but Round — bidirectional;
// KindClock takes any graph and a Period, and reads nothing of g, which may
// then be nil.
func (o Options) Validate(g topology.Shape) error {
	if o.MaxRounds < 0 {
		return fmt.Errorf("synchronizer: round budget %d must not be negative", o.MaxRounds)
	}
	switch o.Kind {
	case KindClock:
		if !(o.Period > 0) || math.IsInf(o.Period, 0) {
			return fmt.Errorf("synchronizer: period %g must be positive and finite", o.Period)
		}
		return nil
	case KindRound, KindAlpha, KindBeta, KindGamma:
	default:
		return fmt.Errorf("synchronizer: unknown kind %v", o.Kind)
	}
	if !g.IsStronglyConnected() {
		return errors.New("synchronizer: graph must be strongly connected")
	}
	if o.Kind == KindRound {
		return nil
	}
	if u, v, ok := g.OneWayEdge(); ok {
		return fmt.Errorf("synchronizer: %v needs a bidirectional graph, missing %d->%d", o.Kind, v, u)
	}
	return nil
}

// Node wraps proto, node i's synchronous protocol instance, into the
// network node that runs it under the synchronizer.
func (s *Synchronizer) Node(i int, proto Node) network.Node {
	if proto == nil {
		panic(fmt.Sprintf("synchronizer: nil protocol for node %d", i))
	}
	core := &s.cores[i]
	*core = roundCore{proto: proto, sync: s}
	if s.kind == KindClock {
		return (*clockNode)(core)
	}
	env := envelopes{roundCore: core, outbox: make([][]any, s.graph.OutDegree(i))}
	inDegree := s.graph.InDegree(i)
	switch s.kind {
	case KindRound:
		return &roundNode{envelopes: env, inDegree: inDegree, received: make(map[int]int)}
	case KindAlpha:
		return &alphaNode{
			envelopes:   env,
			inDegree:    inDegree,
			reversePort: reversePorts(s.graph, i),
			ackCount:    make(map[int]int),
			safeCount:   make(map[int]int),
			safeSent:    make(map[int]bool),
		}
	default:
		return &gammaNode{
			envelopes:    env,
			clusterPorts: s.clusters[i],
			reversePort:  reversePorts(s.graph, i),
			sent:         make(map[int]int),
			acked:        make(map[int]int),
			childSafe:    make(map[int]int),
			treeSafeSent: make(map[int]bool),
			extSafe:      make(map[int]int),
			pendingGo:    make(map[int]bool),
		}
	}
}

// rounds returns the fewest and the most rounds any node has executed.
func (s *Synchronizer) rounds() (lo, hi int) {
	for i := range s.cores {
		r := s.cores[i].round
		if i == 0 || r < lo {
			lo = r
		}
		hi = max(hi, r)
	}
	return lo, hi
}

// ProbeGauges implements probe.Observable: the round front of the
// synchronized execution.
func (s *Synchronizer) ProbeGauges() []probe.Gauge {
	return []probe.Gauge{
		{Name: "rounds_min", Read: func() float64 { lo, _ := s.rounds(); return float64(lo) }},
		{Name: "rounds_max", Read: func() float64 { _, hi := s.rounds(); return float64(hi) }},
	}
}

// Result summarises the execution net ran over this synchronizer's nodes.
// A protocol that had not stopped when the round budget ran out is an
// error; the summary is filled in either way.
func (s *Synchronizer) Result(net *network.Network) (Result, error) {
	cause := net.StopCause()
	res := Result{
		Messages:        net.Metrics().MessagesSent,
		PayloadMessages: s.payloads,
		Violations:      s.violations,
		MaxLateness:     s.maxLateness,
		Time:            float64(net.Now()),
		Stopped:         cause != "" && cause != budgetStopCause,
		StopCause:       cause,
	}
	res.MinRounds, res.Rounds = s.rounds()
	if res.MinRounds > 0 {
		res.MessagesPerRound = float64(res.Messages) / float64(res.MinRounds)
	}
	if !res.Stopped && res.Rounds >= s.maxRounds {
		return res, fmt.Errorf("%w within %d rounds", ErrRoundBudget, s.maxRounds)
	}
	return res, nil
}
