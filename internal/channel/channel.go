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
// A network picks one of them, its Factory, for all of its links, and a link
// is a row of the network's Store (pool.go): its counters, beside a random
// stream the network lays out and, on a FIFO store, its last delivery instant
// (on an ARQ store, its transmission attempts) in a column of their own. The store applies the one discipline to every
// row, keeps the one batch of same-instant deliveries a send may still join,
// holds the messages in flight on all of them, and hands a delivery to the
// network's Sink as Deliver(link, payload). A link built on its own (NewRandomDelay, NewFIFO,
// NewARQ) is a store of one row around a DeliverFunc, on the same send path.
//
// That is the whole package: three delay disciplines and one store, which
// schedules nothing but deliveries. Whatever else can happen to a message —
// loss, duplication, a reorder hold-back, an outage, an adversary, the fan-out
// of a radio medium — is the network deciding about it before it enters a
// link or after it leaves the store, so "in flight" is one number, the
// store's, and a message event reaches the kernel from Store.Send alone.
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
	Transmissions uint64  // physical transmission attempts: an ARQ link's own count, Sent on any other
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

// Factory is a network's link discipline: how every one of its links turns a
// send into a delivery instant. It is one immutable value, read once by
// NewStore, which lays out a row per link; nothing is built per link but the
// per-link laws of a HeterogeneousFactory, so one Factory may serve any number
// of concurrent runs. A nil Factory is unset.
type Factory *discipline

// discipline is what a Factory points to.
type discipline struct {
	kind  kind
	delay dist.Dist           // every link's delay law (random-delay, FIFO)
	arq   dist.Retransmission // every link's attempt model (ARQ)
	pick  func(link int) dist.Dist
}

// kind names one of the three delay disciplines.
type kind uint8

const (
	kindRandomDelay kind = iota
	kindFIFO
	kindARQ
)

// RandomDelayFactory returns the discipline of non-FIFO links with the given
// delay distribution (shared shape, independent samples per link).
func RandomDelayFactory(delay dist.Dist) Factory {
	mustDelay(delay)
	return &discipline{kind: kindRandomDelay, delay: delay}
}

// FIFOFactory returns the discipline of FIFO links: a message's delivery
// instant is the maximum of its own sampled arrival and its link's previous
// delivery instant.
func FIFOFactory(delay dist.Dist) Factory {
	mustDelay(delay)
	return &discipline{kind: kindFIFO, delay: delay}
}

// ARQFactory returns the discipline of lossy stop-and-wait ARQ links with
// success probability p and slot duration slot: each physical transmission
// attempt takes slot time units and succeeds independently with probability
// p, so a delay is attempts × slot — unbounded, with E[delay] = slot/p exactly
// (k_avg = 1/p in the paper). The attempts are counted as Transmissions.
func ARQFactory(p, slot float64) Factory {
	return &discipline{kind: kindARQ, arq: dist.NewRetransmission(p, slot)} // validates p and slot
}

// HeterogeneousFactory returns the discipline of random-delay links whose
// link k has delay distribution pick(k), allowing per-link delay models
// (non-homogeneous links, as the paper's motivation for using a *bound* on
// expected delay discusses). NewStore calls pick once per link. The
// network-wide δ is then the maximum per-link mean.
func HeterogeneousFactory(pick func(link int) dist.Dist) Factory {
	if pick == nil {
		panic("channel: nil pick function")
	}
	return &discipline{kind: kindRandomDelay, pick: pick}
}

// lone is a link built on its own: a store of one row, reached through the
// same Store.Send as a network's links.
type lone struct{ store *Store }

// newLone lays out a one-row store of discipline links, delivering into
// deliver. The row draws from a copy of r's state: r itself does not advance.
func newLone(k *sim.Kernel, links Factory, r *rng.Source, deliver DeliverFunc) lone {
	if r == nil {
		panic("channel: nil random source")
	}
	if deliver == nil {
		panic("channel: nil deliver callback")
	}
	return lone{NewStore(k, deliver, links, []rng.Source{*r})}
}

// Send implements Link.
func (l lone) Send(payload any) simtime.Duration { return l.store.Send(0, payload) }

// Stats implements Link.
func (l lone) Stats() Stats { return l.store.Stats(0) }

// MeanDelay implements Link.
func (l lone) MeanDelay() float64 { return l.store.MeanDelay(0) }

// RandomDelay is a random-delay link built on its own. Because samples are
// independent, messages can overtake: the link is not FIFO.
type RandomDelay struct{ lone }

var _ Link = (*RandomDelay)(nil)

// NewRandomDelay returns a non-FIFO random-delay link on a store of its
// own, delivering into deliver. All arguments must be non-nil.
func NewRandomDelay(k *sim.Kernel, delay dist.Dist, r *rng.Source, deliver DeliverFunc) *RandomDelay {
	return &RandomDelay{newLone(k, RandomDelayFactory(delay), r, deliver)}
}

// FIFO is a FIFO link built on its own. Its MeanDelay is the mean of the
// underlying distribution; the effective FIFO delay stochastically dominates
// it (head-of-line blocking), so it is a lower bound on the expected effective
// delay. For the ABE bound use a distribution whose mean already accounts for
// queueing, or use random-delay links as the paper's model does.
type FIFO struct{ lone }

var _ Link = (*FIFO)(nil)

// NewFIFO returns an order-preserving random-delay link on a store of its
// own, delivering into deliver.
func NewFIFO(k *sim.Kernel, delay dist.Dist, r *rng.Source, deliver DeliverFunc) *FIFO {
	return &FIFO{newLone(k, FIFOFactory(delay), r, deliver)}
}

// ARQ is the paper's case (iii) link built on its own (see ARQFactory). Its
// Send simulates the individual transmission attempts, so the physical
// transmission count is observable (experiment E1).
type ARQ struct{ lone }

var _ Link = (*ARQ)(nil)

// NewARQ returns a lossy stop-and-wait ARQ link with per-attempt success
// probability p and per-attempt duration slot, on a store of its own and
// delivering into deliver.
func NewARQ(k *sim.Kernel, p, slot float64, r *rng.Source, deliver DeliverFunc) *ARQ {
	return &ARQ{newLone(k, ARQFactory(p, slot), r, deliver)}
}

func mustDelay(delay dist.Dist) {
	if delay == nil {
		panic("channel: nil delay distribution")
	}
}
