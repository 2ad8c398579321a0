package sim

import (
	"math"
	"math/bits"

	"abenet/internal/simtime"
)

// heapScheduler is the default Scheduler: a sorted run in front of an
// intrusive 4-ary min-heap, both ordered by (at, seq) and both stored in
// plain value slices that double as the event pool, so steady-state
// scheduling allocates nothing. There is no container/heap and no interface
// boxing on the hot path.
//
// The run is a FIFO ring. It takes an event when it is empty or the event's
// instant is not below its newest one; the kernel hands out seq in schedule
// order, so the ring is in (at, seq) order by construction and nothing in it
// ever moves. Everything else — an event below the run's newest instant, or
// one that finds the run full — goes to the heap, which takes any event. Next
// returns the smaller of the run's oldest event and the heap's root, so the
// pop order is exactly the heap-only one.
//
// The shape this serves is the paper's own: every node re-arms a tick timer
// forever, and on perfect clocks those n timers are scheduled at
// non-decreasing instants. They cost one compare and one copy in, one out,
// with no sift, and the heap shrinks to the few events actually out of
// order (messages with random delays). When instants arrive in no order
// (drifting clocks, all-message protocols) nearly everything takes the heap
// path and the run costs one compare per operation.
type heapScheduler struct {
	heap []event // 4-ary min-heap by (at, seq)

	run      []event      // ring of len(run) slots, in (at, seq) order from head
	head     int          // slot of the run's oldest event
	n        int          // events in the run
	tail     simtime.Time // instant of the run's newest event; valid while n > 0
	reserved bool         // Reserve fixed the run's size: a full run spills
}

func newHeapScheduler() *heapScheduler { return &heapScheduler{} }

// Reserve sizes the run once, to n slots, and stops it from growing
// afterwards — until then it grows by doubling, and from then on a full run
// spills into the heap, so a reservation is a memory bound for the run: "a
// timer per node" is n timers scheduled at non-decreasing instants, and they
// take the run. The heap is left to grow by append: on the
// paper's workloads it holds the messages in flight, far fewer than one per
// node on a ring, and a slot reserved per node there would mostly stay empty.
func (h *heapScheduler) Reserve(n int) {
	h.reserved = true
	if n > len(h.run) {
		h.resizeRun(n)
	}
}

// resizeRun moves the run into a ring of size slots, oldest event first.
func (h *heapScheduler) resizeRun(size int) {
	run := make([]event, size)
	k := copy(run, h.run[h.head:])
	copy(run[k:], h.run[:h.head])
	h.run, h.head = run, 0
}

func (h *heapScheduler) Schedule(ev event) {
	if h.n == 0 || ev.at >= h.tail {
		if h.n == len(h.run) && !h.reserved {
			h.resizeRun(max(2*len(h.run), 16))
		}
		if h.n < len(h.run) {
			i := h.head + h.n
			if i >= len(h.run) {
				i -= len(h.run)
			}
			h.run[i] = ev
			h.n++
			h.tail = ev.at
			return
		}
	}
	h.heap = append(h.heap, ev)
	h.siftUp(len(h.heap) - 1)
}

// runFirst reports whether the earliest pending event is the run's oldest
// rather than the heap's root. At least one of the two must exist.
func (h *heapScheduler) runFirst() bool {
	return h.n > 0 && (len(h.heap) == 0 || less(&h.run[h.head], &h.heap[0]))
}

func (h *heapScheduler) PeekTime() (simtime.Time, bool) {
	if h.runFirst() {
		return h.run[h.head].at, true
	}
	if len(h.heap) == 0 {
		return 0, false
	}
	return h.heap[0].at, true
}

// Next removes and returns the earliest event — the run's oldest or the
// heap's root, whichever is smaller — if it is not after horizon. It decides
// the lane once. The heap pops bottom-up: the root's hole sinks to a leaf and
// the displaced last entry — a leaf itself, so it rarely belongs higher —
// sifts up from there. Against sifting that entry down from the root, this
// drops one compare per level, the one that nearly always says "keep going".
func (h *heapScheduler) Next(horizon simtime.Time) (event, bool) {
	if h.runFirst() {
		ev := h.run[h.head]
		if ev.at > horizon {
			return event{}, false
		}
		h.n--
		if h.head++; h.head == len(h.run) {
			h.head = 0
		}
		return ev, true
	}
	if len(h.heap) == 0 || h.heap[0].at > horizon {
		return event{}, false
	}
	ev := h.heap[0]
	n := len(h.heap) - 1
	last := h.heap[n]
	h.heap = h.heap[:n]
	if n > 0 {
		i := h.sinkHole()
		h.heap[i] = last
		h.siftUp(i)
	}
	return ev, true
}

// key is an event's position in the (at, seq) order as a 128-bit unsigned
// integer, the instant's bit pattern on top. Pending instants are finite and
// non-negative and never −0 (see Kernel.enqueue), so their bit patterns order
// as the instants do.
func key(e *event) (hi, lo uint64) { return math.Float64bits(float64(e.at)), e.seq }

// before is 1 if key a is below key b and 0 otherwise, without a branch: the
// borrow out of the 128-bit subtraction a − b.
func before(aHi, aLo, bHi, bLo uint64) uint64 {
	_, borrow := bits.Sub64(aLo, bLo, 0)
	_, borrow = bits.Sub64(aHi, bHi, borrow)
	return borrow
}

// pick is b if take is 1 and a if it is 0.
func pick(a, b, take uint64) uint64 { return a ^ (a^b)&-take }

// sinkHole treats the root as a hole and walks it down to a leaf, moving the
// smallest child up into it at each level, and returns the leaf's index. A
// full group of four siblings is decided by a two-round tournament of before
// words; which child wins is close to a coin flip, and a mispredicted branch
// per level is what this loop exists not to pay.
func (h *heapScheduler) sinkHole() int {
	heap := h.heap
	i := 0
	for c := 1; c+4 <= len(heap); c = 4*i + 1 {
		g := heap[c : c+4 : c+4]
		h0, l0 := key(&g[0])
		h1, l1 := key(&g[1])
		h2, l2 := key(&g[2])
		h3, l3 := key(&g[3])
		first := before(h1, l1, h0, l0)  // winner of g[0], g[1] is g[first]
		second := before(h3, l3, h2, l2) // winner of g[2], g[3] is g[2+second]
		final := before(pick(h2, h3, second), pick(l2, l3, second), pick(h0, h1, first), pick(l0, l1, first))
		m := pick(first, 2+second, final)
		heap[i] = g[m&3]
		i = c + int(m)
	}
	// A partial last group: fewer than four children, and they are leaves.
	if c := 4*i + 1; c < len(heap) {
		m := c
		for j := c + 1; j < len(heap); j++ {
			if less(&heap[j], &heap[m]) {
				m = j
			}
		}
		heap[i] = heap[m]
		i = m
	}
	return i
}

// siftUp restores the heap property for the entry at index i by moving it
// towards the root.
func (h *heapScheduler) siftUp(i int) {
	ev := h.heap[i]
	for i > 0 {
		p := (i - 1) / 4
		if !less(&ev, &h.heap[p]) {
			break
		}
		h.heap[i] = h.heap[p]
		i = p
	}
	h.heap[i] = ev
}
