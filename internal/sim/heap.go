package sim

import (
	"math"
	"math/bits"

	"abenet/internal/reuse"
	"abenet/internal/simtime"
)

// heapScheduler is the default scheduler: a sorted run in front of an
// intrusive 4-ary min-heap, both ordered by (at, seq) and both stored in
// plain value slices that double as the event pool, so steady-state
// scheduling allocates nothing. The Kernel holds it by value and works its
// fields itself: a push or a run pop is no call, a heap pop one (next).
//
// The run is a FIFO ring. It takes an event when it is empty or the event's
// instant is not below its newest one; the kernel hands out seq in schedule
// order, so the ring is in (at, seq) order by construction and nothing in it
// ever moves. Everything else — an event below the run's newest instant, or
// one that finds the run full — goes to the heap, which takes any event. The
// loop pops the smaller of the run's oldest event and the heap's root, so the
// pop order is exactly the heap-only one.
//
// The shape this serves is the paper's own: every node re-arms a tick timer
// forever, and on perfect clocks those n timers are scheduled at
// non-decreasing instants. They cost one compare and one copy in, one out,
// with no sift, and the heap shrinks to the few events actually out of
// order (messages with random delays). When instants arrive in no order
// (drifting clocks, all-message protocols) nearly everything takes the heap
// path and the run costs one compare per operation.
//
// The heap is sized from the burst it starts with. What the kernel schedules
// for the heap before it has executed anything — every node's opening
// broadcast, 4,032 messages on Complete(64) — is staged in schedule order
// instead of sifted (see stage), and the first pop loads it (see load): one
// slice of the staged count plus a quarter, heapified bottom-up. Sifted in
// one by one, the burst regrew the slice by append, a quarter per step past
// 256 events, and on Complete(64) those steps allocated 3.3 times the array
// they ended in. From the load on, the heap is one contiguous array that
// grows by append; the pages only hold the burst until then. A heap kept in
// pages made every pop slower: events_per_s 0.934× on Ben-Or.
type heapScheduler struct {
	heap []event // 4-ary min-heap by (at, seq); while staged, the burst's first events unordered

	// spill holds the staged events that did not fit in heap once it reached
	// stageSlots, in pages that double from stageSlots and are never copied
	// until the load; nil unless a burst spilled. A pointer, so that a kernel
	// without one is no larger.
	spill *[][]event

	run      []event      // ring of len(run) slots, in (at, seq) order from head
	head     int          // slot of the run's oldest event
	n        int          // events in the run
	tail     simtime.Time // instant of the run's newest event; valid while n > 0
	reserved bool         // Reserve fixed the run's size: a full run spills
	staged   bool         // heap or spill holds events not yet heap-ordered: the next pop loads them
}

// stageSlots is where staging leaves the heap's own slice for pages. Up to
// it, append doubles the slice and the load heapifies it in place, so a
// burst of up to stageSlots events allocates exactly what sifting it in
// did; past it, append would grow the slice by a quarter per step.
const stageSlots = 256

// Reserve sizes the run once, to n slots, and stops it from growing
// afterwards — until then it grows by doubling, and from then on a full run
// spills into the heap, so a reservation is a memory bound for the run: "a
// timer per node" is n timers scheduled at non-decreasing instants, and they
// take the run. The heap is not reserved: on the paper's workloads it holds
// the messages in flight, far fewer than one per node on a ring, and a slot
// reserved per node there would mostly stay empty. Its opening burst sizes
// it instead (see load).
func (h *heapScheduler) Reserve(n int) {
	h.reserved = true
	if n > len(h.run) {
		h.resizeRun(n)
	}
}

// stage files ev, scheduled before the first pop, without ordering it: onto
// the heap's slice while that is below stageSlots — a recycled slice of
// stageSlots if there is one, else one that grows by append — else onto the
// newest page of the spill, starting a page twice the size of the last when
// it is full.
func (h *heapScheduler) stage(ev event) {
	h.staged = true
	if h.spill == nil {
		if len(h.heap) < stageSlots {
			if h.heap == nil {
				h.heap = eventArrays.Reuse(stageSlots)[:0] // nil, to grow by append, when none is pooled
			}
			h.heap = append(h.heap, ev)
			return
		}
		pages := make([][]event, 0, 8) // 8 pages hold 65,280 events
		h.spill = &pages
	}
	pages := *h.spill
	if n := len(pages); n == 0 || len(pages[n-1]) == cap(pages[n-1]) {
		pages = append(pages, make([]event, 0, stageSlots<<n))
		*h.spill = pages
	}
	pages[len(pages)-1] = append(pages[len(pages)-1], ev)
}

// load makes one heap of everything pending in it, staged or not: the
// heap's slice itself when nothing spilled, else one slice of the count plus
// a quarter's headroom, a recycled one or else allocated once, that the
// slice and the pages are copied into. Either is heapified bottom-up in the
// full (at, seq) order.
func (h *heapScheduler) load() {
	if h.spill != nil {
		n := len(h.heap)
		for _, p := range *h.spill {
			n += len(p)
		}
		heap := append(eventArrays.Get(n + n/4)[:0], h.heap...)
		for _, p := range *h.spill {
			heap = append(heap, p...)
		}
		h.heap, h.spill = heap, nil
	}
	for i := (len(h.heap) - 2) / 4; i >= 0; i-- { // staged, so the heap holds an event
		h.siftDown(i)
	}
	h.staged = false
}

// resizeRun moves the run into a ring of size slots, oldest event first.
func (h *heapScheduler) resizeRun(size int) {
	run := eventArrays.Get(size)
	k := copy(run, h.run[h.head:])
	copy(run[k:], h.run[:h.head])
	h.run, h.head = run, 0
}

// eventArrays pools the run lanes and heaps of finished runs (see
// Kernel.Recycle). A lane or a heap slot is written before it is read, so
// neither is cleared.
var eventArrays = reuse.New[event](false)

// recycle hands the run lane and the heap to the next kernel, and empties
// both lanes.
func (h *heapScheduler) recycle() {
	eventArrays.Put(h.run)
	eventArrays.Put(h.heap)
	*h = heapScheduler{}
}

// grow makes room for one more event in the heap: in a pooled array of
// twice the heap's length when one is there, else by append.
func (h *heapScheduler) grow() {
	if s := eventArrays.Reuse(2 * len(h.heap)); s != nil {
		h.heap = append(s[:0], h.heap...)
		return
	}
	h.heap = append(h.heap, event{})[:len(h.heap)]
}

// runFirst reports whether the earliest pending event is the run's oldest
// rather than the heap's root. At least one of the two must exist.
func (h *heapScheduler) runFirst() bool {
	return h.n > 0 && (len(h.heap) == 0 || less(&h.run[h.head], &h.heap[0]))
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

// siftDown restores the heap property for the entry at index i by moving it
// away from the root, in the full (at, seq) order: load's entries were not
// scheduled in heap order, so their seqs say nothing about their places.
func (h *heapScheduler) siftDown(i int) {
	heap := h.heap
	ev := heap[i]
	for {
		c := 4*i + 1
		if c >= len(heap) {
			break
		}
		m := c
		for j := c + 1; j < min(c+4, len(heap)); j++ {
			if less(&heap[j], &heap[m]) {
				m = j
			}
		}
		if !less(&heap[m], &ev) {
			break
		}
		heap[i] = heap[m]
		i = m
	}
	heap[i] = ev
}
