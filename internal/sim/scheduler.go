package sim

import (
	"fmt"

	"abenet/internal/simtime"
)

// Scheduler is the pending-event set behind a Kernel: everything between
// "schedule this event at that instant" and "hand me the earliest event".
// SchedulerHeap (the default) and SchedulerCalendar are selectable per run
// via NewNamed or the runner's Env.Scheduler field. Nothing is ever
// withdrawn: an entry leaves the set only through Next.
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
	// Next removes and returns the earliest event if it is not after
	// horizon, or ok=false when the set is empty or its earliest event lies
	// past horizon. The kernel makes one Next call per event it executes.
	Next(horizon simtime.Time) (event, bool)
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
