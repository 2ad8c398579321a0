package sim

import (
	"fmt"

	"abenet/internal/simtime"
)

// Scheduler is the pending-event set behind a Kernel: everything between
// "schedule this event at that instant" and "hand me the earliest event".
// Two implementations ship with the package — a sorted run in front of an
// intrusive 4-ary heap (SchedulerHeap, the default) and a calendar queue
// (SchedulerCalendar) — selectable per run via NewNamed or the runner's
// Env.Scheduler field.
// Nothing is ever withdrawn: an entry leaves the set only through Pop. A
// scheduler only orders; the Kernel counts what is pending itself.
//
// Every implementation MUST pop events in exactly (at, seq) order: at is the
// virtual instant, seq the kernel-assigned insertion sequence, and the pair
// is a total order. The golden-seed pins and the cross-scheduler
// differential suite depend on every scheduler producing byte-identical
// executions, so an implementation that reorders equal-instant events —
// however plausibly — is wrong, not merely different.
//
// The interface traffics in the package-private event type, so it is sealed:
// outside packages select implementations by name but cannot add their own.
// That is deliberate — the determinism contract above is enforced by this
// package's differential tests, which can only cover schedulers they know
// about.
type Scheduler interface {
	// Schedule inserts ev.
	Schedule(ev event)
	// PeekTime returns the instant of the earliest event, or ok=false when
	// the set is empty.
	PeekTime() (simtime.Time, bool)
	// Pop removes and returns the earliest event, or ok=false when the set
	// is empty.
	Pop() (event, bool)
	// Reserve is a sizing hint: about n events will be pending at once at
	// non-decreasing instants (a timer per node). It never changes the pop
	// order; an implementation may ignore it.
	Reserve(n int)
}

// Registry names for the shipped schedulers. The empty string selects the
// default (heap) everywhere a name is accepted.
const (
	SchedulerHeap     = "heap"
	SchedulerCalendar = "calendar"
)

// SchedulerNames lists the valid scheduler names in presentation order.
func SchedulerNames() []string {
	return []string{SchedulerHeap, SchedulerCalendar}
}

// ValidScheduler reports whether name selects a known scheduler. The empty
// string is valid and means the default.
func ValidScheduler(name string) bool {
	switch name {
	case "", SchedulerHeap, SchedulerCalendar:
		return true
	}
	return false
}

// NewScheduler constructs the named scheduler. The empty string selects the
// default 4-ary heap.
func NewScheduler(name string) (Scheduler, error) {
	switch name {
	case "", SchedulerHeap:
		return newHeapScheduler(), nil
	case SchedulerCalendar:
		return newCalendarScheduler(), nil
	}
	return nil, fmt.Errorf("sim: unknown scheduler %q (valid: %v)", name, SchedulerNames())
}
