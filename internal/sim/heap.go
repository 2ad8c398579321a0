package sim

import (
	"slices"

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
// one that finds the run full — goes to the heap, which takes any event. Pop
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
//
// Sizing: the run of an unreserved scheduler grows by doubling, like the
// heap's slice. Reserve(n) divides n between the two — half the slots each —
// and from then on a full run spills into the heap instead of growing, so a
// reservation is a memory bound for the run and the heap alone grows past
// it.
type heapScheduler struct {
	heap []event // 4-ary min-heap by (at, seq)

	run      []event      // ring of len(run) slots, in (at, seq) order from head
	head     int          // slot of the run's oldest event
	n        int          // events in the run
	tail     simtime.Time // instant of the run's newest event; valid while n > 0
	reserved bool         // Reserve fixed the run's size: a full run spills
}

func newHeapScheduler() *heapScheduler { return &heapScheduler{} }

func (h *heapScheduler) Name() string { return SchedulerHeap }

func (h *heapScheduler) Pending() int { return h.n + len(h.heap) }

// Reserve sizes both lanes once, n/2 slots for the run and the rest for the
// heap, and stops the run from growing afterwards: "a timer and a message
// per node" is n timers in the run and n messages in the heap, in the memory
// the heap alone used to take. Grown by append alone, a large queue is
// reallocated and copied some twenty times on its way up, allocating about
// five times its final size.
func (h *heapScheduler) Reserve(n int) {
	h.reserved = true
	if n/2 > len(h.run) {
		h.resizeRun(n / 2)
	}
	if rest := n - n/2; rest > cap(h.heap) {
		h.heap = slices.Grow(h.heap, rest-len(h.heap))
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

// Pop removes and returns the earliest event: the run's oldest or the
// heap's root, whichever is smaller. The vacated slot is zeroed so the
// handler's captures are released.
func (h *heapScheduler) Pop() (event, bool) {
	if h.runFirst() {
		ev := h.run[h.head]
		h.run[h.head] = event{}
		h.n--
		if h.head++; h.head == len(h.run) {
			h.head = 0
		}
		return ev, true
	}
	if len(h.heap) == 0 {
		return event{}, false
	}
	ev := h.heap[0]
	n := len(h.heap) - 1
	if n > 0 {
		h.heap[0] = h.heap[n]
	}
	h.heap[n] = event{}
	h.heap = h.heap[:n]
	if n > 0 {
		h.siftDown(0)
	}
	return ev, true
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
// towards the leaves.
func (h *heapScheduler) siftDown(i int) {
	n := len(h.heap)
	ev := h.heap[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if less(&h.heap[j], &h.heap[m]) {
				m = j
			}
		}
		if !less(&h.heap[m], &ev) {
			break
		}
		h.heap[i] = h.heap[m]
		i = m
	}
	h.heap[i] = ev
}
