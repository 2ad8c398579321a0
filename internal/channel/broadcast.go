package channel

import (
	"abenet/internal/dist"
	"abenet/internal/rng"
	"abenet/internal/sim"
	"abenet/internal/simtime"
)

// LocalBroadcast is a per-node radio medium implementing Khan & Vaidya's
// local-broadcast model ("Asynchronous Byzantine Consensus under the Local
// Broadcast Model"): one Send is one physical transmission whose payload
// reaches every neighbour *identically and at the same instant*. The
// atomicity is the point — a sender physically cannot tell two neighbours
// different things, which is what lifts the f < n/3 equivocation barrier.
//
// The link samples a single delay per transmission (the medium's access +
// propagation time); the network layer fans the delivery out to each
// in-range receiver. Fanout is the number of receivers, fixed at wiring
// time, so Stats can account per-receiver receptions while Transmissions
// counts radio slots.
type LocalBroadcast struct {
	kernel *sim.Kernel
	delay  dist.Dist
	r      *rng.Source
	sink   Sink // the network's fan-out: one Deliver(sender, ·) per transmission
	sender int
	fanout int
	stats  Stats
}

var _ Link = (*LocalBroadcast)(nil)

// NewLocalBroadcast returns the radio link of node sender, with the given
// number of in-range receivers. Each transmission reaches sink once, as
// Deliver(sender, payload); the sink fans it out. All arguments must be
// non-nil and fanout non-negative.
func NewLocalBroadcast(k *sim.Kernel, delay dist.Dist, r *rng.Source, sink Sink, sender, fanout int) *LocalBroadcast {
	if k == nil {
		panic("channel: nil kernel")
	}
	mustLinkArgs(delay, r)
	if sink == nil {
		panic("channel: nil delivery sink")
	}
	if fanout < 0 {
		panic("channel: negative broadcast fanout")
	}
	return &LocalBroadcast{kernel: k, delay: delay, r: r, sink: sink, sender: sender, fanout: fanout}
}

// Send implements Link: one transmission, one delay sample, one atomic
// delivery instant shared by all receivers.
func (l *LocalBroadcast) Send(payload any) simtime.Duration {
	d := simtime.Duration(l.delay.Sample(l.r))
	l.stats.Sent++
	l.stats.Transmissions++
	l.kernel.AfterFunc(d, func() {
		// Per-receiver accounting: fanout receptions, each after delay d.
		l.stats.Delivered += uint64(l.fanout)
		l.stats.TotalDelay += d.Seconds() * float64(l.fanout)
		l.sink.Deliver(l.sender, payload)
	})
	return d
}

// Stats implements Link. Delivered counts receptions (transmissions ×
// fanout for a loss-free medium).
func (l *LocalBroadcast) Stats() Stats { return l.stats }

// MeanDelay implements Link.
func (l *LocalBroadcast) MeanDelay() float64 { return l.delay.Mean() }
