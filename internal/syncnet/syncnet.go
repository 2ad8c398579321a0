// Package syncnet is a synchronous round-based network engine.
//
// In the synchronous model all nodes proceed in global rounds: messages
// sent in round r arrive at the start of round r+1. The paper positions ABE
// networks between this model and full asynchrony; the experiments use
// syncnet for two purposes:
//
//   - running the Itai–Rodeh style election natively, as the "most optimal
//     leader election known for anonymous synchronous rings" the paper
//     compares against (E7), and
//   - defining the reference behaviour that synchronisers must reproduce
//     on ABE networks (E8/E9).
package syncnet

import (
	"errors"
	"fmt"

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

// NodeContext is the local view a synchronous protocol gets each round.
// It is an interface so the same protocol code can run natively on the
// round engine or on an asynchronous ABE network through a synchronizer.
type NodeContext interface {
	// N returns the network size (known-n assumption).
	N() int
	// ID returns the node identity; panics on anonymous networks.
	ID() int
	// OutDegree returns the number of out-ports.
	OutDegree() int
	// Send queues payload for delivery on outPort at the next round.
	Send(outPort int, payload any)
	// Rand returns the node's private random stream.
	Rand() *rng.Source
	// StopNetwork ends the run after the current round.
	StopNetwork(cause string)
}

// Node is a synchronous protocol instance. Round is called once per round
// with all messages sent to the node in the previous round.
type Node interface {
	Round(ctx NodeContext, round int, inbox []Message)
}

var _ NodeContext = (*Context)(nil)

// Runner drives a synchronous network.
type Runner struct {
	graph     *topology.Graph
	nodes     []Node
	ctxs      []*Context
	inboxes   [][]Message
	outboxes  [][]Message
	anonymous bool

	messages  uint64
	rounds    int
	stopped   bool
	stopCause string
}

// Config describes a synchronous network.
type Config struct {
	// Graph is the topology. Required.
	Graph *topology.Graph
	// Seed drives all node randomness.
	Seed uint64
	// Anonymous forbids reading node identities.
	Anonymous bool
}

// New builds a synchronous network running makeNode(i) on each node.
func New(cfg Config, makeNode func(i int) Node) (*Runner, error) {
	if cfg.Graph == nil {
		return nil, errors.New("syncnet: config needs a graph")
	}
	if makeNode == nil {
		return nil, errors.New("syncnet: nil node constructor")
	}
	if err := cfg.Graph.Validate(); err != nil {
		return nil, fmt.Errorf("syncnet: %w", err)
	}
	n := cfg.Graph.N()
	root := rng.New(cfg.Seed)
	r := &Runner{
		graph:     cfg.Graph,
		nodes:     make([]Node, n),
		ctxs:      make([]*Context, n),
		inboxes:   make([][]Message, n),
		outboxes:  make([][]Message, n),
		anonymous: cfg.Anonymous,
	}
	for i := 0; i < n; i++ {
		r.ctxs[i] = &Context{
			runner: r,
			id:     i,
			rand:   root.DeriveIndexed("node", i),
		}
		r.nodes[i] = makeNode(i)
		if r.nodes[i] == nil {
			return nil, fmt.Errorf("syncnet: makeNode(%d) returned nil", i)
		}
	}
	return r, nil
}

// Step executes one synchronous round. It returns false once the network
// has stopped.
func (r *Runner) Step() bool {
	if r.stopped {
		return false
	}
	round := r.rounds
	// Deliver this round's messages and collect next round's.
	for i, node := range r.nodes {
		node.Round(r.ctxs[i], round, r.inboxes[i])
	}
	r.inboxes, r.outboxes = r.outboxes, r.inboxes
	for i := range r.outboxes {
		r.outboxes[i] = r.outboxes[i][:0]
	}
	r.rounds++
	return !r.stopped
}

// Run executes rounds until the protocol stops the network or maxRounds
// rounds have run. It returns the number of rounds executed and an error
// if the bound was hit without a stop.
func (r *Runner) Run(maxRounds int) (int, error) {
	if maxRounds <= 0 {
		return 0, fmt.Errorf("syncnet: maxRounds %d must be positive", maxRounds)
	}
	start := r.rounds
	for r.Step() {
		if r.rounds-start >= maxRounds {
			if r.stopped {
				break
			}
			return r.rounds - start, fmt.Errorf("syncnet: no termination within %d rounds", maxRounds)
		}
	}
	return r.rounds - start, nil
}

// Rounds returns the number of rounds executed so far.
func (r *Runner) Rounds() int { return r.rounds }

// Messages returns the total number of messages sent so far.
func (r *Runner) Messages() uint64 { return r.messages }

// Stopped reports whether the protocol stopped the network.
func (r *Runner) Stopped() bool { return r.stopped }

// StopCause returns the protocol's stop cause, or "".
func (r *Runner) StopCause() string { return r.stopCause }

// NodeAt returns the protocol instance at index i for post-run inspection.
func (r *Runner) NodeAt(i int) Node { return r.nodes[i] }

// N returns the network size.
func (r *Runner) N() int { return len(r.nodes) }

// Context is a synchronous node's local view.
type Context struct {
	runner *Runner
	id     int
	rand   *rng.Source
}

// N returns the network size (known-n assumption).
func (c *Context) N() int { return c.runner.N() }

// ID returns the node identity; panics on anonymous networks.
func (c *Context) ID() int {
	if c.runner.anonymous {
		panic("syncnet: protocol read node identity on an anonymous network")
	}
	return c.id
}

// OutDegree returns the number of out-ports.
func (c *Context) OutDegree() int { return c.runner.graph.OutDegree(c.id) }

// Send queues payload for delivery on the given out-port at the start of
// the next round.
func (c *Context) Send(outPort int, payload any) {
	g := c.runner.graph
	if degree := g.OutDegree(c.id); outPort < 0 || outPort >= degree {
		panic(fmt.Sprintf("syncnet: node has %d out-ports, sent on %d", degree, outPort))
	}
	// In-port numbering as in the asynchronous runtime: the graph recorded
	// it when the edge was added.
	dest, port := g.OutAt(c.id, outPort), g.InPort(c.id, outPort)
	c.runner.messages++
	c.runner.outboxes[dest] = append(c.runner.outboxes[dest], Message{InPort: port, Payload: payload})
}

// Rand returns the node's private random stream.
func (c *Context) Rand() *rng.Source { return c.rand }

// StopNetwork ends the run after the current round completes.
func (c *Context) StopNetwork(cause string) {
	c.runner.stopped = true
	c.runner.stopCause = cause
}
