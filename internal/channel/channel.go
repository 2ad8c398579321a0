// Package channel implements point-to-point message links with stochastic
// delays.
//
// Condition 1 of the ABE model (Bakhshi et al., PODC 2010, Definition 1)
// assumes a known bound δ on the *expected* message delay, with delays of
// different messages stochastically independent. Links here sample each
// message's delay independently from a configured distribution whose exact
// mean is known, so a network can verify its configuration against a
// declared δ.
//
// Three link families are provided:
//
//   - Random-delay links (the default): independent per-message delays, so
//     messages may overtake each other — matching the paper's "the order of
//     messages is arbitrary between any pair of nodes".
//   - FIFO links: same delays, but delivery order is forced to match send
//     order (for protocols and ablations that need it).
//   - ARQ links: an explicit model of the paper's Section 1 case (iii) — a
//     lossy physical channel with per-transmission success probability p
//     and stop-and-wait retransmission. The delay is (number of attempts) ×
//     slot time: unbounded support, expectation slot/p.
//
// A link owns its delay model, its random stream and its counters, and
// nothing else. The messages in flight on all links of a network live in one
// Store (pool.go), and a delivery reaches the network through the store's
// Sink as Deliver(edge, payload) — the link was told its edge index by the
// Factory call that built it. A link built on its own (NewRandomDelay,
// NewFIFO, NewARQ) gets a private store around a DeliverFunc.
//
// That is the whole package: three delay disciplines and one store, which
// schedules nothing but deliveries. Whatever else can happen to a message —
// loss, duplication, a reorder hold-back, an outage, an adversary, the fan-out
// of a radio medium — is the network deciding about it before it enters a
// link or after it leaves the store, so "in flight" is one number, the
// store's, and a message event reaches the kernel from port.send alone.
package channel

import (
	"abenet/internal/dist"
	"abenet/internal/rng"
	"abenet/internal/sim"
	"abenet/internal/simtime"
)

// Stats aggregates what happened on one link.
type Stats struct {
	Sent          uint64  // messages handed to the link
	Delivered     uint64  // messages delivered so far
	Transmissions uint64  // physical transmission attempts (= Sent except for ARQ links)
	TotalDelay    float64 // sum of per-message delays (send to delivery)
}

// MeanDelay returns the average delivered-message delay, or 0 if nothing
// was delivered yet.
func (s Stats) MeanDelay() float64 {
	if s.Delivered == 0 {
		return 0
	}
	return s.TotalDelay / float64(s.Delivered)
}

// Link is a unidirectional message channel.
type Link interface {
	// Send accepts a payload for delivery and returns the sampled delay.
	Send(payload any) simtime.Duration
	// Stats returns a snapshot of the link's counters.
	Stats() Stats
	// MeanDelay returns the exact expectation of the link's delay
	// distribution (the per-link δ).
	MeanDelay() float64
}

// RandomDelay is a link whose per-message delays are independent samples of
// a delay distribution. Because samples are independent, messages can
// overtake: the link is not FIFO.
type RandomDelay struct {
	delay dist.Dist
	r     *rng.Source
	port
}

var _ Link = (*RandomDelay)(nil)

// NewRandomDelay returns a non-FIFO random-delay link on a store of its
// own, delivering into deliver. All arguments must be non-nil.
func NewRandomDelay(k *sim.Kernel, delay dist.Dist, r *rng.Source, deliver DeliverFunc) *RandomDelay {
	return newRandomDelay(newLoneStore(k, deliver), 0, delay, r)
}

func newRandomDelay(s *Store, edge int, delay dist.Dist, r *rng.Source) *RandomDelay {
	mustLinkArgs(delay, r)
	return &RandomDelay{delay: delay, r: r, port: newPort(s, edge)}
}

// Send implements Link.
func (l *RandomDelay) Send(payload any) simtime.Duration {
	d := simtime.Duration(l.delay.Sample(l.r))
	l.stats.Sent++
	l.stats.Transmissions++
	l.send(l.store.kernel.Now().Add(d), payload, d)
	return d
}

// MeanDelay implements Link.
func (l *RandomDelay) MeanDelay() float64 { return l.delay.Mean() }

// FIFO is a link with random per-message delays whose deliveries are
// nevertheless forced into send order: a message's delivery time is the
// maximum of its own sampled arrival and the previous delivery time.
type FIFO struct {
	delay        dist.Dist
	r            *rng.Source
	lastDelivery simtime.Time
	port
}

var _ Link = (*FIFO)(nil)

// NewFIFO returns an order-preserving random-delay link on a store of its
// own, delivering into deliver.
func NewFIFO(k *sim.Kernel, delay dist.Dist, r *rng.Source, deliver DeliverFunc) *FIFO {
	return newFIFO(newLoneStore(k, deliver), 0, delay, r)
}

func newFIFO(s *Store, edge int, delay dist.Dist, r *rng.Source) *FIFO {
	mustLinkArgs(delay, r)
	return &FIFO{delay: delay, r: r, port: newPort(s, edge)}
}

// Send implements Link.
func (l *FIFO) Send(payload any) simtime.Duration {
	sent := l.store.kernel.Now()
	arrival := sent.Add(simtime.Duration(l.delay.Sample(l.r)))
	if arrival.Before(l.lastDelivery) {
		arrival = l.lastDelivery
	}
	l.lastDelivery = arrival
	effective := arrival.Sub(sent)
	l.stats.Sent++
	l.stats.Transmissions++
	l.send(arrival, payload, effective)
	return effective
}

// MeanDelay returns the mean of the underlying distribution. Note the
// effective FIFO delay stochastically dominates it (head-of-line blocking),
// so this is a lower bound on the expected effective delay; for the ABE
// bound use a distribution whose mean already accounts for queueing, or use
// RandomDelay links as the paper's model does.
func (l *FIFO) MeanDelay() float64 { return l.delay.Mean() }

// ARQ is the paper's case (iii) link: each physical transmission attempt
// takes Slot time units and succeeds independently with probability P; the
// sender retransmits until success. Delay = attempts × slot, so the delay
// is unbounded but E[delay] = slot/p exactly (k_avg = 1/p in the paper).
type ARQ struct {
	model dist.Retransmission
	r     *rng.Source
	port
}

var _ Link = (*ARQ)(nil)

// NewARQ returns a lossy stop-and-wait ARQ link with per-attempt success
// probability p and per-attempt duration slot, on a store of its own and
// delivering into deliver.
func NewARQ(k *sim.Kernel, p, slot float64, r *rng.Source, deliver DeliverFunc) *ARQ {
	model := dist.NewRetransmission(p, slot) // validates p and slot
	return newARQ(newLoneStore(k, deliver), 0, model, r)
}

func newARQ(s *Store, edge int, model dist.Retransmission, r *rng.Source) *ARQ {
	if r == nil {
		panic("channel: nil random source")
	}
	return &ARQ{model: model, r: r, port: newPort(s, edge)}
}

// Send implements Link. It simulates the individual transmission attempts
// so the physical transmission count is observable (experiment E1).
func (l *ARQ) Send(payload any) simtime.Duration {
	attempts := l.model.Attempts(l.r)
	d := simtime.Duration(float64(attempts) * l.model.SlotTime)
	l.stats.Sent++
	l.stats.Transmissions += uint64(attempts)
	l.send(l.store.kernel.Now().Add(d), payload, d)
	return d
}

// MeanDelay implements Link: exactly slot/p.
func (l *ARQ) MeanDelay() float64 { return l.model.Mean() }

// Factory builds the link of one directed edge on the network's shared
// store; the network layer calls it once per edge, in edge-index order,
// while wiring a topology. edge identifies the link to the store's Sink at
// delivery time and is the only per-edge input besides the stream, so a
// Factory value holds no state and may be shared by concurrent runs.
// Implementations must use only the provided per-edge random stream for
// randomness.
type Factory func(s *Store, edge int, edgeRNG *rng.Source) Link

// RandomDelayFactory returns a Factory producing non-FIFO links with the
// given delay distribution (shared shape, independent samples per link).
func RandomDelayFactory(delay dist.Dist) Factory {
	if delay == nil {
		panic("channel: nil delay distribution")
	}
	return func(s *Store, edge int, edgeRNG *rng.Source) Link {
		return newRandomDelay(s, edge, delay, edgeRNG)
	}
}

// FIFOFactory returns a Factory producing FIFO links.
func FIFOFactory(delay dist.Dist) Factory {
	if delay == nil {
		panic("channel: nil delay distribution")
	}
	return func(s *Store, edge int, edgeRNG *rng.Source) Link {
		return newFIFO(s, edge, delay, edgeRNG)
	}
}

// ARQFactory returns a Factory producing lossy ARQ links with success
// probability p and slot duration slot.
func ARQFactory(p, slot float64) Factory {
	model := dist.NewRetransmission(p, slot) // validate eagerly
	return func(s *Store, edge int, edgeRNG *rng.Source) Link {
		return newARQ(s, edge, model, edgeRNG)
	}
}

// HeterogeneousFactory builds the link of edge e with delay distribution
// pick(e), allowing per-edge delay models (non-homogeneous links, as the
// paper's motivation for using a *bound* on expected delay discusses). The
// network-wide δ is then the maximum per-link mean.
func HeterogeneousFactory(pick func(edgeIndex int) dist.Dist) Factory {
	if pick == nil {
		panic("channel: nil pick function")
	}
	return func(s *Store, edge int, edgeRNG *rng.Source) Link {
		return newRandomDelay(s, edge, pick(edge), edgeRNG)
	}
}

// newLoneStore backs a link built outside a network.
func newLoneStore(k *sim.Kernel, deliver DeliverFunc) *Store {
	if deliver == nil {
		panic("channel: nil deliver callback")
	}
	return NewStore(k, deliver)
}

func mustLinkArgs(delay dist.Dist, r *rng.Source) {
	if delay == nil {
		panic("channel: nil delay distribution")
	}
	if r == nil {
		panic("channel: nil random source")
	}
}
