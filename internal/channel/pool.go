package channel

import (
	"abenet/internal/sim"
	"abenet/internal/simtime"
)

// Sink is where links hand payloads at their delivery instants: the network
// layer. edge is the index the link was built with (Factory's edge; what it
// names — a directed edge, a sender's radio — is the network's business), so
// one Sink value serves every link of a network and resolves the receiving
// side from its own tables — no link carries a callback of its own.
type Sink interface {
	Deliver(edge int, payload any)
}

// DeliverFunc receives a payload at its delivery instant. It is the Sink of
// a link built on its own (NewRandomDelay, NewFIFO, NewARQ), where there is
// one link and the edge index says nothing.
type DeliverFunc func(payload any)

// Deliver implements Sink.
func (f DeliverFunc) Deliver(_ int, payload any) { f(payload) }

// Store holds the messages in flight on every link of one network. It
// replaces the per-message pattern — one heap-allocated closure plus one
// kernel event per Send — with pooled slots (a slot holds the payload, its
// sampled delay and the link it travels on) and, where the kernel's
// execution order provably cannot tell the difference, one kernel event for
// a whole batch of same-instant deliveries on a link. One store per network
// rather than one per link: an idle link then costs its own counters and
// batch state and nothing else, and the slots a burst needed on one edge
// are reused by the next burst on any other.
//
// # Batching without changing the execution order
//
// A Send may join its link's open batch only if (a) its delivery instant
// equals the batch's and (b) nothing at all has been scheduled on the
// kernel since the batch's event (checked via Kernel.ScheduleSeq). Under
// (a)+(b) the merged deliveries would have held consecutive (at, seq)
// positions, so executing them back-to-back inside one event is exactly
// the order the unbatched kernel would have produced — runs stay
// byte-identical, only Kernel.Executed() and the per-event observer
// cadence see fewer events. Two links never share a batch: the second
// link's event moves ScheduleSeq, which closes the first link's batch, so
// same-instant deliveries on different links interleave in send order. The
// batch also closes the moment one of its link's batches starts firing: a
// delivery handler that sends again at the same instant gets a fresh kernel
// event, which is precisely where the unbatched ordering would have put it
// (after everything already in flight). And because one event per delivery
// let Kernel.Stop cut off the remaining same-instant deliveries, the batch
// walk re-checks Stopped before each entry and abandons the rest —
// identical semantics, closure for closure.
type Store struct {
	kernel *sim.Kernel
	sink   Sink

	// slots is the in-flight pool; free lists vacated slots for reuse, so
	// steady-state sends allocate nothing.
	slots []slot
	free  []int32

	fire sim.HandlerID // fireBatch, registered once; every delivery event names it
}

// slot is one message in flight.
type slot struct {
	payload any
	delay   simtime.Duration
	from    *port // the link carrying it
	next    int32 // next entry of the same batch in send order; -1 terminates
}

// NewStore returns an empty store delivering into sink on kernel k. Both
// must be non-nil.
func NewStore(k *sim.Kernel, sink Sink) *Store {
	if k == nil {
		panic("channel: nil kernel")
	}
	if sink == nil {
		panic("channel: nil delivery sink")
	}
	s := &Store{kernel: k, sink: sink}
	s.fire = k.Register(s.fireBatch)
	return s
}

// InFlight returns the number of messages on the wire: handed to a link and
// neither delivered yet nor abandoned by a Stop.
func (s *Store) InFlight() int { return len(s.slots) - len(s.free) }

// port is a link's attachment to the store: the edge it delivers on, its
// counters, and the one piece of batching state that is per link — which
// batch, if any, a Send may still join.
type port struct {
	store *Store
	edge  int
	stats Stats

	open    bool // an open batch exists that a Send may still join
	openAt  simtime.Time
	openSeq uint64 // kernel ScheduleSeq right after the batch event: unchanged ⇔ joinable
	tail    int32  // last entry of the open batch
}

func newPort(s *Store, edge int) port {
	if s == nil {
		panic("channel: nil store")
	}
	return port{store: s, edge: edge}
}

// Stats implements Link for every link type that embeds a port.
func (p *port) Stats() Stats { return p.stats }

// send files one payload for delivery at instant at, joining the link's
// open batch when that is provably order-preserving and scheduling a fresh
// kernel event otherwise.
func (p *port) send(at simtime.Time, payload any, d simtime.Duration) {
	s := p.store
	var i int32
	if n := len(s.free); n > 0 {
		i = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		i = int32(len(s.slots))
		s.slots = append(s.slots, slot{})
	}
	s.slots[i] = slot{payload: payload, delay: d, from: p, next: -1}
	if p.open && at == p.openAt && s.kernel.ScheduleSeq() == p.openSeq {
		s.slots[p.tail].next = i
		p.tail = i
		return
	}
	s.kernel.AtArg(at, s.fire, uint32(i))
	p.open = true
	p.openAt = at
	p.openSeq = s.kernel.ScheduleSeq()
	p.tail = i
}

// fireBatch delivers a batch chain head-to-tail. Slots are released before
// each delivery callback so reentrant sends can reuse them; the chain link
// is read out first, so reuse cannot corrupt the walk.
func (s *Store) fireBatch(head uint32) {
	p := s.slots[head].from
	p.open = false // reentrant same-instant sends must open a fresh event
	for i := int32(head); i >= 0; {
		sl := s.slots[i]
		s.slots[i] = slot{}
		s.free = append(s.free, i)
		i = sl.next
		if s.kernel.Stopped() {
			// Mirror the unbatched kernel: a Stop between two same-instant
			// deliveries abandons the rest. Their slots are released
			// undelivered.
			continue
		}
		p.stats.Delivered++
		p.stats.TotalDelay += sl.delay.Seconds()
		s.sink.Deliver(p.edge, sl.payload)
	}
}
