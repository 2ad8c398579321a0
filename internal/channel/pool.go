package channel

import (
	"abenet/internal/dist"
	"abenet/internal/rng"
	"abenet/internal/sim"
	"abenet/internal/simtime"
)

// Sink is where a store hands payloads at their delivery instants: the
// network layer. link is the row the payload travelled on (what it names — a
// directed edge, a sender's radio — is the network's business), so one Sink
// value serves every link of a network and resolves the receiving side from
// its own tables — no link carries a callback of its own.
type Sink interface {
	Deliver(link int, payload any)
}

// DeliverFunc receives a payload at its delivery instant. It is the Sink of
// a link built on its own (NewRandomDelay, NewFIFO, NewARQ), where there is
// one link and the row index says nothing.
type DeliverFunc func(payload any)

// Deliver implements Sink.
func (f DeliverFunc) Deliver(_ int, payload any) { f(payload) }

// Store is every link of one network and every message in flight on them. A
// link is a row — its counters — in one slice laid out by NewStore, next to
// the random stream the network lays out for it, and the network's one
// discipline (its Factory) decides each row's delays; a FIFO store keeps a
// column of last delivery instants beside the rows, an ARQ store a column of
// transmission attempts, and the store as a whole keeps the one batch a Send
// may still join. The store holds no object per link, and nothing in a row or
// a slot but a slot's payload is a pointer, so the collector never scans the
// rows. A message in flight is a pooled slot (its payload, its sampled delay
// and its row), and, where the kernel's execution order provably cannot tell
// the difference, one kernel event carries a whole batch of same-instant
// deliveries on a link. The slots a burst needed on one link are reused by
// the next burst on any other.
//
// The pool is pages of pageSlots slots, sized so that a page fills the size
// class the allocator serves it from. The first page grows by append, as a
// slice would, so a store that never has more than pageSlots messages in
// flight allocates what a slice of them costs; every later page is allocated
// whole, once, and never copied, so a store that reaches P messages in flight
// holds P slots rounded up to a page and has copied none past the first
// page. A vacated slot joins the free list through its own next field, so
// the list costs nothing beside the pool, and the store counts the slots in
// use instead of measuring them.
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
// same-instant deliveries on different links interleave in send order.
//
// That makes the open batch one record per store, not one per row: a batch's
// sequence mark is ScheduleSeq read right after its own event is scheduled,
// and any later schedule moves ScheduleSeq, so no two batches ever hold the
// same mark and at most one of them — the newest — can pass (b). The record
// names that batch's row, its instant, its mark and its last entry.
//
// The batch also closes the moment it starts firing: a delivery handler that
// sends again at the same instant on the same link gets a fresh kernel event,
// which is precisely where the unbatched ordering would have put it (after
// everything already in flight). Firing another link's batch leaves the
// record alone — nothing was scheduled, so a send from that handler at the
// open batch's instant on its link still joins it. And because one event per
// delivery let Kernel.Stop cut off the remaining same-instant deliveries, the
// batch walk re-checks Stopped before each entry and abandons the rest —
// identical semantics, closure for closure.
type Store struct {
	kernel *sim.Kernel
	sink   Sink

	discipline
	delays  []dist.Dist    // delays[k] = row k's law under a HeterogeneousFactory; nil otherwise
	maxMean float64        // the largest row mean: the store's δ; 0 without rows
	rows    []row          // rows[k] = link k
	streams []rng.Source   // streams[k] = link k's random stream, drawn from in place
	last    []simtime.Time // last[k] = link k's last delivery instant; a FIFO store's alone
	tx      []uint64       // tx[k] = link k's transmission attempts; an ARQ store's alone

	open batch // the one batch a Send may still join, if any

	// first and pages are the in-flight pool: slot i is first[i] on the
	// first page and pages[i/pageSlots−1][i%pageSlots] past it. free heads
	// the list of vacated slots, linked through their next fields (−1 ends
	// it), so steady-state sends allocate nothing; every slot is in flight
	// or on it.
	first    []slot
	pages    []*[pageSlots]slot
	free     int32
	inFlight int32

	fire sim.HandlerID // fireBatch, registered once; every delivery event names it
}

// row is one link: its counters and nothing else, 24 B. A link that is not
// ARQ transmits each message once, so only an ARQ store counts transmissions,
// in its own column.
type row struct {
	Sent       uint64
	Delivered  uint64
	TotalDelay float64
}

// batch is the store's open batch: the row it carries, its last entry, its
// delivery instant and the kernel's ScheduleSeq right after its event was
// scheduled — joinable while ScheduleSeq still reads seq. Row −1 means there
// is none: a zero record would name row 0 and be joinable at time 0, since
// ScheduleSeq starts at 0.
type batch struct {
	row, tail int32
	at        simtime.Time
	seq       uint64
}

// closed is the batch record that names no batch.
var closed = batch{row: -1}

// slot is one message in flight, 32 B, or a vacated slot on the free list.
type slot struct {
	payload any
	delay   simtime.Duration
	link    int32 // the row carrying it
	// next is the next entry of the same batch in send order or, on a
	// vacated slot, the next one on the free list; -1 terminates either.
	next int32
}

// pageSlots is the pool's page: 71 slots, 2,272 B. A slot holds a pointer,
// so the allocator puts an 8-B header before a page and serves it from the
// 2,304-B size class, which 71 slots fill; 64 would leave 248 B of it unused.
// Append grows the first page to the same 71 (1, 2, 4, 8, 16, 35, 71 slots).
// A pointer-free slot with the payloads in 32-entry pages of their own fills
// its classes too, but costs two objects more per 64 slots, and ran Ben-Or on
// Complete(64) slower.
const pageSlots = 71

// at returns slot i. The pointer is good until the pool next grows: the
// first page moves when it does.
func (s *Store) at(i int32) *slot {
	if i < pageSlots {
		return &s.first[i]
	}
	u := uint32(i) // unsigned: the page and offset divide by a constant with no sign fix-up
	return &s.pages[u/pageSlots-1][u%pageSlots]
}

// NewStore lays out one row per stream under discipline links, delivering
// into sink on kernel k: link k draws its delays from streams[k], in place, so
// the caller may derive from a stream before its link first sends. Under a
// HeterogeneousFactory it reads each link's law here, once. k, sink and links
// must be non-nil. It computes the store's δ (MaxMeanDelay) here too, once.
func NewStore(k *sim.Kernel, sink Sink, links Factory, streams []rng.Source) *Store {
	if k == nil {
		panic("channel: nil kernel")
	}
	if sink == nil {
		panic("channel: nil delivery sink")
	}
	if links == nil {
		panic("channel: nil link factory")
	}
	s := &Store{kernel: k, sink: sink, discipline: *links, rows: make([]row, len(streams)), streams: streams, open: closed, free: -1}
	switch s.kind {
	case kindFIFO:
		s.last = make([]simtime.Time, len(streams))
	case kindARQ:
		s.tx = make([]uint64, len(streams))
	}
	if s.pick != nil {
		s.delays = make([]dist.Dist, len(streams))
		for i := range s.delays {
			s.delays[i] = s.pick(i)
			mustDelay(s.delays[i])
			if m := s.delays[i].Mean(); m > s.maxMean {
				s.maxMean = m
			}
		}
	} else if len(streams) > 0 {
		s.maxMean = max(s.MeanDelay(0), 0) // every row has the one law
	}
	s.fire = k.Register(s.fireBatch)
	return s
}

// Links returns the number of rows.
func (s *Store) Links() int { return len(s.rows) }

// Stats returns link k's counters. Its Transmissions are an ARQ link's
// attempts and Sent on any other.
func (s *Store) Stats(k int) Stats {
	w := &s.rows[k]
	st := Stats{Sent: w.Sent, Delivered: w.Delivered, Transmissions: w.Sent, TotalDelay: w.TotalDelay}
	if s.tx != nil {
		st.Transmissions = s.tx[k]
	}
	return st
}

// MeanDelay returns the exact expectation of link k's delay distribution
// (its δ).
func (s *Store) MeanDelay(k int) float64 {
	if s.kind == kindARQ {
		return s.arq.Mean()
	}
	return s.delayOf(k).Mean()
}

// MaxMeanDelay returns the largest of the rows' MeanDelay, or 0 when there
// are no rows: the tightest δ the store's links satisfy.
func (s *Store) MaxMeanDelay() float64 { return s.maxMean }

// delayOf returns link k's delay law.
func (s *Store) delayOf(k int) dist.Dist {
	if s.delays != nil {
		return s.delays[k]
	}
	return s.delay
}

// InFlight returns the number of messages on the wire: handed to a link and
// neither delivered yet nor abandoned by a Stop.
func (s *Store) InFlight() int { return int(s.inFlight) }

// Send hands payload to link k: it samples the link's delay now under the
// store's discipline, counts the send and files the payload for delivery. It
// returns the delay the message will take.
func (s *Store) Send(k int, payload any) simtime.Duration {
	w, r := &s.rows[k], &s.streams[k]
	now := s.kernel.Now()
	var at simtime.Time
	var d simtime.Duration
	switch s.kind {
	case kindARQ:
		attempts := s.arq.Attempts(r)
		d = simtime.Duration(float64(attempts) * s.arq.SlotTime)
		at = now.Add(d)
		s.tx[k] += uint64(attempts)
	case kindFIFO:
		at = now.Add(simtime.Duration(s.delayOf(k).Sample(r)))
		if at.Before(s.last[k]) {
			at = s.last[k]
		}
		s.last[k] = at
		d = at.Sub(now)
	default:
		d = simtime.Duration(s.delayOf(k).Sample(r))
		at = now.Add(d)
	}
	w.Sent++
	s.file(int32(k), at, payload, d)
	return d
}

// file puts one payload in flight on link k for delivery at instant at,
// joining the link's open batch when that is provably order-preserving and
// scheduling a fresh kernel event otherwise.
func (s *Store) file(k int32, at simtime.Time, payload any, d simtime.Duration) {
	i := s.free
	if i >= 0 {
		s.free = s.at(i).next
	} else {
		i = s.inFlight // every slot is in flight: the pool grows by one
		s.grow(i)
	}
	s.inFlight++
	*s.at(i) = slot{payload: payload, delay: d, link: k, next: -1}
	if o := &s.open; o.row == k && o.at == at && o.seq == s.kernel.ScheduleSeq() {
		s.at(o.tail).next = i
		o.tail = i
		return
	}
	s.kernel.AtArg(at, s.fire, uint32(i))
	s.open = batch{row: k, tail: i, at: at, seq: s.kernel.ScheduleSeq()}
}

// grow adds slot i, the first past the pool's end: the first page grows by
// append, and a later page is allocated whole when its first slot is needed.
func (s *Store) grow(i int32) {
	switch {
	case i < pageSlots:
		s.first = append(s.first, slot{})
	case i%pageSlots == 0:
		s.pages = append(s.pages, new([pageSlots]slot))
	}
}

// fireBatch delivers a batch chain head-to-tail. Slots are released before
// each delivery callback so reentrant sends can reuse them; the chain link
// is read out first, so reuse cannot corrupt the walk.
func (s *Store) fireBatch(head uint32) {
	k := s.at(int32(head)).link
	if s.open.row == k {
		s.open = closed // reentrant same-instant sends on k must open a fresh event
	}
	w := &s.rows[k]
	for i := int32(head); i >= 0; {
		p := s.at(i)
		sl := *p
		*p = slot{next: s.free}
		s.free = i
		s.inFlight--
		i = sl.next
		if s.kernel.Stopped() {
			// Mirror the unbatched kernel: a Stop between two same-instant
			// deliveries abandons the rest. Their slots are released
			// undelivered.
			continue
		}
		w.Delivered++
		w.TotalDelay += sl.delay.Seconds()
		s.sink.Deliver(int(k), sl.payload)
	}
}
