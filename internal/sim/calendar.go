package sim

import (
	"sort"

	"abenet/internal/simtime"
)

// calendarScheduler is a calendar queue (Brown 1988; the same family as
// ns-3's calendar scheduler): a wheel of buckets, each covering one
// contiguous time window of width `width`, plus an unsorted overflow area
// for events beyond the wheel's horizon. Enqueue and dequeue are amortized
// O(1) in theory, but it is slower than the heap on every workload the repo
// benchmark measures: sim.calendar_over_heap reads 2.0 / 1.6 / 1.3 on the
// dense-timer / sparse-timer / all-message workloads, the heap's sorted run
// taking in-order timers with no sift. It stays only because that frozen
// benchmark measures it.
//
// # Exact (at, seq) order
//
// Buckets partition [wheelStart, wheelEnd) into windows that are monotone
// in time, each bucket keeps its entries sorted by (at, seq), and events
// with equal instants always land in the same bucket (the bucket index is a
// function of the instant alone). Overflow entries all lie at or beyond
// wheelEnd, i.e. after every wheel entry. The earliest event is
// therefore the front of the first non-empty bucket at or after the cursor
// — the pop sequence is exactly the (at, seq) total order, byte-identical
// to the heap's. The differential tests in this package pin that.
//
// Keeping buckets sorted also keeps same-instant bursts cheap: seq is
// monotone, so a burst of equal-instant schedules (a million synchronized
// tick timers, say) appends at the bucket tail in O(1) each and pops from
// the bucket head in O(1) each. An unsorted bucket would pay a full scan
// per pop — quadratic in the burst size.
//
// # Invariants
//
//   - overflow entries have at >= wheelEnd;
//   - no wheel entry sits in a bucket before cursor (pops advance the
//     cursor to the popped bucket, and nothing can be scheduled before the
//     kernel's current instant, which lies in the cursor's window);
//   - bucket entries evs[head:] are sorted by (at, seq); evs[:head] are
//     consumed slots awaiting reuse.
//
// Resizes (grow when the wheel overfills, shrink when it drains, promote
// the overflow when the wheel empties) rebuild the wheel from the sorted
// pending set; the triggers depend only on counters, so the rebuild
// schedule — like everything else here — is a deterministic function of the
// workload.
type calendarScheduler struct {
	buckets    []calBucket
	width      float64 // time width of one bucket window
	wheelStart float64 // inclusive lower edge of bucket 0's window
	wheelEnd   float64 // exclusive upper edge of the last bucket's window
	cursor     int     // no wheel entries in buckets before this one
	wheelLen   int     // entries in the wheel (the overflow counts itself)

	overflow []event // unsorted; every entry has at >= wheelEnd
	scratch  []event // rebuild staging buffer, retained across rebuilds

	cacheValid  bool // PeekTime caches its bucket search for the next pop
	cacheBucket int
}

// calBucket is one time window of the wheel. evs[head:] are the entries
// still queued, sorted by (at, seq); evs[:head] are already-consumed slots,
// reused once the bucket drains.
type calBucket struct {
	evs  []event
	head int
}

const (
	// calMinBuckets/calMaxBuckets bound the wheel size: grown and shrunk in
	// powers of two so resize costs amortize against the schedules/pops
	// that triggered them.
	calMinBuckets = 64
	calMaxBuckets = 1 << 20
)

func newCalendarScheduler() *calendarScheduler {
	return &calendarScheduler{
		buckets:    make([]calBucket, calMinBuckets),
		width:      1,
		wheelStart: 0,
		wheelEnd:   float64(calMinBuckets),
	}
}

// pending counts the queued events; the resize logic sizes the wheel by it.
func (c *calendarScheduler) pending() int { return c.wheelLen + len(c.overflow) }

// Reserve is a no-op: the wheel sizes itself from the pending population at
// each rebuild, and which bucket an event lands in is not known up front.
func (c *calendarScheduler) Reserve(int) {}

// bucketIndex maps an instant within [wheelStart, wheelEnd) to its bucket.
// Clamping keeps the result in range under floating-point rounding (and
// files instants before wheelStart — possible after a rebuild whose
// earliest event lay ahead of the current instant — under bucket 0, which
// then simply covers a wider window). The map is monotone non-decreasing in
// at, which is all cross-bucket ordering needs.
func (c *calendarScheduler) bucketIndex(at float64) int {
	i := int((at - c.wheelStart) / c.width)
	if i < 0 {
		i = 0
	}
	if i >= len(c.buckets) {
		i = len(c.buckets) - 1
	}
	return i
}

func (c *calendarScheduler) Schedule(ev event) {
	c.cacheValid = false
	at := float64(ev.at)
	c.place(ev, at)
	if c.wheelLen > 2*len(c.buckets) && len(c.buckets) < calMaxBuckets {
		c.rebuild()
	}
}

// place files ev under the current wheel geometry: into its time-window
// bucket, or into the overflow area when it lies beyond the wheel horizon.
func (c *calendarScheduler) place(ev event, at float64) {
	if at >= c.wheelEnd {
		c.overflow = append(c.overflow, ev)
	} else {
		c.insert(c.bucketIndex(at), ev)
		c.wheelLen++
	}
}

// insert places ev into bucket b, keeping evs[head:] sorted by (at, seq).
// The fast path is an O(1) append: seq is monotone, so new entries sort
// after every existing entry unless they are strictly earlier in time.
func (c *calendarScheduler) insert(b int, ev event) {
	bk := &c.buckets[b]
	if n := len(bk.evs); n == bk.head || !less(&ev, &bk.evs[n-1]) {
		bk.evs = append(bk.evs, ev)
		return
	}
	// Slow path: binary-search the insertion point and shift the tail.
	lo, hi := bk.head, len(bk.evs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if less(&bk.evs[mid], &ev) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	bk.evs = append(bk.evs, event{})
	copy(bk.evs[lo+1:], bk.evs[lo:])
	bk.evs[lo] = ev
}

// findMin locates the bucket holding the earliest event. It must only be
// called when the set is non-empty; it promotes the overflow into a fresh
// wheel if the wheel itself is empty.
func (c *calendarScheduler) findMin() int {
	if c.wheelLen == 0 {
		c.rebuild() // promote the overflow into a fresh wheel
	}
	for b := c.cursor; b < len(c.buckets); b++ {
		if bk := &c.buckets[b]; bk.head < len(bk.evs) {
			return b
		}
	}
	panic("sim: calendar queue lost an event")
}

func (c *calendarScheduler) PeekTime() (simtime.Time, bool) {
	if c.pending() == 0 {
		return 0, false
	}
	if !c.cacheValid {
		c.cacheBucket = c.findMin()
		c.cacheValid = true
	}
	bk := &c.buckets[c.cacheBucket]
	return bk.evs[bk.head].at, true
}

// Next is PeekTime, which finds and caches the earliest bucket, then pop.
func (c *calendarScheduler) Next(horizon simtime.Time) (event, bool) {
	if at, ok := c.PeekTime(); !ok || at > horizon {
		return event{}, false
	}
	return c.pop(), true
}

// pop removes and returns the earliest event, which PeekTime has just found.
func (c *calendarScheduler) pop() event {
	b := c.cacheBucket
	c.cacheValid = false
	bk := &c.buckets[b]
	ev := bk.evs[bk.head]
	bk.head++
	if bk.head == len(bk.evs) {
		bk.evs = bk.evs[:0]
		bk.head = 0
	}
	c.cursor = b
	c.wheelLen--
	if len(c.buckets) > calMinBuckets && c.pending() < len(c.buckets)/8 {
		c.rebuild()
	}
	return ev
}

// setHorizon derives wheelEnd from the current geometry. At extreme
// magnitudes (wheelStart near float64's upper range) the nominal horizon
// wheelStart + nb·width can round back to wheelStart, which would strand
// every event — the earliest included — in the overflow area and deadlock
// the promote-on-empty rebuild. Doubling the width until the horizon
// registers keeps the wheel non-degenerate at any representable instant.
func (c *calendarScheduler) setHorizon() {
	c.wheelEnd = c.wheelStart + float64(len(c.buckets))*c.width
	for c.wheelEnd <= c.wheelStart {
		c.width *= 2
		c.wheelEnd = c.wheelStart + float64(len(c.buckets))*c.width
	}
}

// rebuild re-seeds the wheel from the pending set. Large populations get a
// full resize — bucket count sized to the population, width chosen from the
// interquartile spread of event instants (robust against far-future
// outliers, which go back to the overflow), wheelStart at the earliest
// event. Small populations (at most one event per bucket of a minimum
// wheel) keep the current geometry and just re-anchor wheelStart — that path
// allocates nothing, which matters because a lone self-rescheduling timer
// marching past the wheel horizon triggers a rebuild per event.
func (c *calendarScheduler) rebuild() {
	c.cacheValid = false
	all := c.scratch[:0]
	for b := range c.buckets {
		bk := &c.buckets[b]
		all = append(all, bk.evs[bk.head:]...)
		bk.evs = bk.evs[:0]
		bk.head = 0
	}
	all = append(all, c.overflow...)
	c.overflow = c.overflow[:0]
	c.scratch = all[:0] // retain staging capacity for the next rebuild
	c.cursor = 0
	c.wheelLen = 0
	if len(all) == 0 {
		return // keep the current geometry; an empty wheel is fine
	}

	if len(all) <= calMinBuckets {
		// Re-anchor only. With so few events any width works (a bucket
		// holds a short sorted run), so keep it and avoid the sort.
		if len(c.buckets) != calMinBuckets {
			c.buckets = make([]calBucket, calMinBuckets) // shrink a grown wheel
		}
		minAt := all[0].at
		for i := 1; i < len(all); i++ {
			if all[i].at < minAt {
				minAt = all[i].at
			}
		}
		if !(c.width > 0) {
			c.width = 1
		}
		c.wheelStart = float64(minAt)
		c.setHorizon()
		for i := range all {
			c.place(all[i], float64(all[i].at))
		}
		return
	}

	sort.Slice(all, func(i, j int) bool { return less(&all[i], &all[j]) })
	nb := calMinBuckets
	for nb < len(all) && nb < calMaxBuckets {
		nb <<= 1
	}
	// Width from the middle half of the instants: a handful of far-future
	// stragglers must not stretch the windows until everything piles into
	// bucket 0.
	q1 := float64(all[len(all)/4].at)
	q3 := float64(all[3*len(all)/4].at)
	width := (q3 - q1) / float64(len(all)/2+1) * 3
	if !(width > 0) || width != width { // zero spread, or not finite
		width = 1
	}
	if nb != len(c.buckets) {
		c.buckets = make([]calBucket, nb)
	}
	c.width = width
	c.wheelStart = float64(all[0].at)
	c.setHorizon()
	for i := range all {
		// Sorted input, so place's insert always takes its append fast path.
		c.place(all[i], float64(all[i].at))
	}
}
