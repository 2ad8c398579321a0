package sim

import (
	"slices"

	"abenet/internal/simtime"
)

// heapScheduler is the default Scheduler: an intrusive 4-ary min-heap
// ordered by (at, seq) and stored in a single value slice — the slice
// doubles as the event pool, so steady-state scheduling allocates nothing.
// There is no container/heap and no interface boxing on the hot path.
type heapScheduler struct {
	heap []event // 4-ary min-heap by (at, seq); the slice is the event pool
}

func newHeapScheduler() *heapScheduler { return &heapScheduler{} }

func (h *heapScheduler) Name() string { return SchedulerHeap }

func (h *heapScheduler) Pending() int { return len(h.heap) }

// Reserve sizes the backing slice once. Grown by append alone, a large heap
// is reallocated and copied some twenty times on its way up, allocating
// about five times its final size.
func (h *heapScheduler) Reserve(n int) {
	if n > cap(h.heap) {
		h.heap = slices.Grow(h.heap, n-len(h.heap))
	}
}

func (h *heapScheduler) Schedule(ev event) {
	h.heap = append(h.heap, ev)
	h.siftUp(len(h.heap) - 1)
}

func (h *heapScheduler) PeekTime() (simtime.Time, bool) {
	if len(h.heap) == 0 {
		return 0, false
	}
	return h.heap[0].at, true
}

// Pop removes and returns the root event, maintaining the heap property.
// The vacated slot is zeroed so the handler's captures are released.
func (h *heapScheduler) Pop() (event, bool) {
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
