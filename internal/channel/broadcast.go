package channel

import (
	"abenet/internal/dist"
	"abenet/internal/rng"
)

// LocalBroadcast is a per-node radio medium implementing Khan & Vaidya's
// local-broadcast model ("Asynchronous Byzantine Consensus under the Local
// Broadcast Model"): one Send is one physical transmission whose payload
// reaches every neighbour *identically and at the same instant*. The
// atomicity is the point — a sender physically cannot tell two neighbours
// different things, which is what lifts the f < n/3 equivocation barrier.
//
// On the wire it is a random-delay link: one delay sample per transmission
// (the medium's access + propagation time), one slot in the store, one
// Deliver(sender, payload) into the store's Sink, which is the network's
// fan-out over the sender's in-range receivers. Fanout is the number of
// receivers, fixed at wiring time, so Stats can account per-receiver
// receptions while Transmissions counts radio slots.
type LocalBroadcast struct {
	RandomDelay
	fanout int
}

var _ Link = (*LocalBroadcast)(nil)

// NewLocalBroadcast returns the radio link of node sender on store s, with
// the given number of in-range receivers. Each transmission reaches the
// store's Sink once, as Deliver(sender, payload); the sink fans it out. All
// arguments must be non-nil and fanout non-negative.
func NewLocalBroadcast(s *Store, sender int, delay dist.Dist, r *rng.Source, fanout int) *LocalBroadcast {
	if fanout < 0 {
		panic("channel: negative broadcast fanout")
	}
	return &LocalBroadcast{*newRandomDelay(s, sender, delay, r), fanout}
}

// Stats implements Link. The port counts transmissions; Delivered and
// TotalDelay are per reception (× fanout for a loss-free medium).
func (l *LocalBroadcast) Stats() Stats {
	st := l.stats
	st.Delivered *= uint64(l.fanout)
	st.TotalDelay *= float64(l.fanout)
	return st
}
