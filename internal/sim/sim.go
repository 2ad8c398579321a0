// Package sim is a deterministic discrete-event simulation kernel.
//
// All network executions in this repository — ABE, ABD, fully asynchronous
// and synchronous — run on this kernel. Events are closures scheduled at
// virtual instants; the kernel executes them in time order with a
// deterministic tie-break (insertion sequence), so a run is a pure function
// of the initial schedule and the random seed. That determinism is what
// makes the paper's expected-complexity claims measurable: every data point
// is reproducible from (parameters, seed).
//
// # Scheduling internals
//
// The pending-event set lives behind the Scheduler interface. Two
// implementations ship with the package, selectable per run:
//
//   - "heap" (default) — a sorted run in front of an intrusive 4-ary
//     min-heap. The run is a FIFO ring that takes an event whenever its
//     instant is not below the run's newest one; insertion sequences only
//     grow, so the ring is in (instant, sequence) order without ever moving
//     an entry. Everything else goes to the heap, and the earliest event is
//     the smaller of the run's oldest and the heap's root. Tick timers
//     re-armed in order on perfect clocks — the paper's election has every
//     node do that forever — never sift; the heap holds only what is
//     actually out of order, typically the messages in flight. Both lanes
//     are plain value slices that double as the event pool, so steady-state
//     scheduling allocates nothing.
//   - "calendar" — a calendar queue (Brown 1988, as in ns-3): a wheel of
//     time-windowed buckets with amortized O(1) enqueue/dequeue. The repo
//     benchmark and the E16 ladder have it ahead of the heap on no
//     committed workload; it stays as the independent implementation the
//     differential suite checks the heap against.
//
// Both pop events in exactly (instant, sequence) order, so executions are
// byte-identical across schedulers — the differential suite and the order
// oracle (FuzzSchedulerOrder) pin that.
//
// # Scheduling API
//
// AtFunc, AfterFunc and AtArg are the whole scheduling surface; none of them
// allocates per event. The kernel schedules, it does not cancel: every
// scheduled event runs (unless the run ends first). A protocol that loses
// interest in a timer bumps a generation counter it owns and has the handler
// compare the value it captured at scheduling time, returning early on a
// mismatch — exactly how the network layer's crash epochs retire the timers
// of a crashed node.
package sim

import (
	"errors"
	"fmt"

	"abenet/internal/simtime"
)

// ErrStopped is returned by Run when the simulation was halted by Stop
// before reaching its horizon or draining its schedule.
var ErrStopped = errors.New("sim: stopped")

// ErrMaxEvents is returned (wrapped, with the budget and the virtual time
// it was hit at) by Run when more than maxEvents events execute. It is the
// kernel's livelock guard; match it with errors.Is to distinguish a
// runaway protocol from other run failures.
var ErrMaxEvents = errors.New("sim: event budget exceeded (possible livelock)")

// Handler is a scheduled piece of work. It runs at its scheduled virtual
// instant and may schedule further events.
type Handler func()

// ArgHandler is a scheduled piece of work that receives a small argument at
// execution time. It exists so hot paths can reuse one long-lived func value
// (typically a method value) across many events instead of allocating a
// fresh closure per event — see Kernel.AtArg.
type ArgHandler func(arg uint32)

// event is one entry in the pending-event set. Events are stored by value
// inside the scheduler's slices; they are never heap-allocated
// individually.
type event struct {
	at  simtime.Time
	seq uint64 // tie-break: events at equal instants run in schedule order
	fn  Handler
	afn ArgHandler // alternative to fn: runs as afn(arg); see AtArg
	arg uint32
}

// less orders events by (at, seq). seq is unique per kernel, so the order
// is total and every correct scheduler pops the exact same sequence — the
// golden-seed pins depend on that.
func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Kernel is a discrete-event scheduler. The zero value is not usable; create
// one with New or NewNamed. Kernel is not safe for concurrent use:
// simulations are single-threaded by design, and cross-run parallelism is
// achieved by running independent Kernels on separate goroutines.
type Kernel struct {
	now       simtime.Time
	sched     Scheduler
	seq       uint64
	executed  uint64
	stopped   bool
	running   bool
	stopCause string
	observer  func() // post-event hook; see SetObserver
}

// New returns an empty kernel at virtual time zero, backed by the default
// 4-ary heap scheduler.
func New() *Kernel {
	return &Kernel{sched: newHeapScheduler()}
}

// NewNamed returns an empty kernel backed by the named scheduler (see
// NewScheduler). The empty name selects the default heap.
func NewNamed(name string) (*Kernel, error) {
	s, err := NewScheduler(name)
	if err != nil {
		return nil, err
	}
	return &Kernel{sched: s}, nil
}

// Now returns the current virtual time.
func (k *Kernel) Now() simtime.Time { return k.now }

// Executed returns the number of events that have run so far. It is a cheap
// progress measure and a guard against runaway protocols in tests.
func (k *Kernel) Executed() uint64 { return k.executed }

// ScheduleSeq returns the insertion sequence number the next scheduled
// event will be assigned. Together with an instant it lets hot paths detect
// "nothing has been scheduled since": the channel layer uses it to merge
// same-instant deliveries into one batched event without perturbing the
// (at, seq) execution order.
func (k *Kernel) ScheduleSeq() uint64 { return k.seq }

// Pending returns the number of scheduled, not yet executed events in O(1).
func (k *Kernel) Pending() int { return k.sched.Pending() }

// Reserve tells the scheduler that about n events will be pending at once,
// so it can size its storage in one step instead of growing into it. A
// builder that knows the population (one timer per node, say) calls it
// before the first event is scheduled. It is a hint: execution order and
// every counter are unaffected. The heap scheduler gives half of n to its
// sorted run and half to its heap, so n/2 events scheduled at non-decreasing
// instants plus n/2 in any order allocate nothing; the calendar ignores it.
func (k *Kernel) Reserve(n int) { k.sched.Reserve(n) }

// schedule validates and enqueues one event.
func (k *Kernel) schedule(at simtime.Time, fn Handler, afn ArgHandler, arg uint32) {
	if fn == nil && afn == nil {
		panic("sim: scheduling a nil handler")
	}
	if !at.IsFinite() {
		panic(fmt.Sprintf("sim: scheduling at non-finite time %v", at))
	}
	if at.Before(k.now) {
		panic(fmt.Sprintf("sim: scheduling into the past: now %v, requested %v", k.now, at))
	}
	k.sched.Schedule(event{at: at, seq: k.seq, fn: fn, afn: afn, arg: arg})
	k.seq++
}

// AtFunc schedules fn to run at instant at. Scheduling strictly in the past
// is a programming error and panics; scheduling at the current instant is
// allowed and runs after all previously scheduled events for that instant.
// There is no per-event allocation.
func (k *Kernel) AtFunc(at simtime.Time, fn Handler) {
	k.schedule(at, fn, nil, 0)
}

// AtArg schedules fn(arg) to run at instant at. Unlike AtFunc, the handler
// is parameterised, so one long-lived func value (typically a method value)
// serves arbitrarily many events — no closure allocation per event even
// when each event needs distinct state. The channel layer's pooled delivery
// path is the intended caller: arg indexes into its struct-of-arrays payload
// pool.
func (k *Kernel) AtArg(at simtime.Time, fn ArgHandler, arg uint32) {
	k.schedule(at, nil, fn, arg)
}

// AfterFunc schedules fn to run d time units from now. It panics if d is
// negative or non-finite.
func (k *Kernel) AfterFunc(d simtime.Duration, fn Handler) {
	if !d.Valid() {
		panic(fmt.Sprintf("sim: AfterFunc called with invalid duration %v", d))
	}
	k.AtFunc(k.now.Add(d), fn)
}

// Stop halts the simulation after the currently executing event completes.
// The cause is reported by StopCause. Calling Stop outside Run simply marks
// the kernel so the next Run returns immediately.
func (k *Kernel) Stop(cause string) {
	k.stopped = true
	k.stopCause = cause
}

// SetObserver installs fn to run immediately after every executed event's
// handler returns, with the kernel's time and counters already advanced.
// Observers exist for measurement (time-series probes): they must only
// read state — scheduling or stopping from an observer would make an
// observed run diverge from an unobserved one, defeating the byte-identity
// guarantee the probes depend on. A nil fn removes the hook.
func (k *Kernel) SetObserver(fn func()) { k.observer = fn }

// StopCause returns the cause passed to the most recent Stop, or "".
func (k *Kernel) StopCause() string { return k.stopCause }

// Stopped reports whether Stop has been called.
func (k *Kernel) Stopped() bool { return k.stopped }

// Run executes events in virtual-time order until one of:
//   - the schedule drains (returns nil),
//   - virtual time would exceed horizon (returns nil; the event at a time
//     past the horizon remains scheduled and time stops at the horizon),
//   - Stop is called (returns ErrStopped),
//   - more than maxEvents events execute, if maxEvents > 0 (returns an
//     error matching ErrMaxEvents; this guards against non-terminating
//     protocols in tests).
func (k *Kernel) Run(horizon simtime.Time, maxEvents uint64) error {
	if k.running {
		return errors.New("sim: Run called reentrantly")
	}
	k.running = true
	defer func() { k.running = false }()

	start := k.executed
	for {
		if k.stopped {
			return ErrStopped
		}
		at, ok := k.sched.PeekTime()
		if !ok {
			return nil // drained
		}
		if at.After(horizon) {
			// Leave the event scheduled and halt at the horizon. The clock
			// only ever moves forward: a horizon already in the past (a
			// resumed kernel driven with a smaller bound) must not rewind.
			if horizon.After(k.now) {
				k.now = horizon
			}
			return nil
		}
		if maxEvents > 0 && k.executed-start >= maxEvents {
			return fmt.Errorf("%w: exceeded %d events at %v", ErrMaxEvents, maxEvents, k.now)
		}
		k.execute()
	}
}

// Step executes exactly one pending event (the earliest) and returns true,
// or returns false if the schedule is empty or the kernel has been stopped
// — Step honours Stop exactly like Run does (a stopped kernel makes no
// progress until the stop is observed by the driver). Step ignores any
// horizon; use StepWithin to bound it. Useful for fine-grained tests and
// bounded model-checking drivers.
func (k *Kernel) Step() bool {
	return k.StepWithin(simtime.Forever)
}

// StepWithin is Step with a horizon guard, mirroring Run: if the earliest
// pending event lies strictly beyond horizon, no event runs, virtual time
// advances to the horizon, and StepWithin returns false with the event
// still scheduled.
func (k *Kernel) StepWithin(horizon simtime.Time) bool {
	if k.stopped {
		return false
	}
	at, ok := k.sched.PeekTime()
	if !ok {
		return false
	}
	if at.After(horizon) {
		if horizon.After(k.now) {
			k.now = horizon
		}
		return false
	}
	k.execute()
	return true
}

// execute pops the earliest event (which must exist) and runs it.
func (k *Kernel) execute() {
	ev, ok := k.sched.Pop()
	if !ok {
		panic("sim: execute with an empty schedule")
	}
	k.now = ev.at
	k.executed++
	if ev.afn != nil {
		ev.afn(ev.arg)
	} else {
		ev.fn()
	}
	if k.observer != nil {
		k.observer()
	}
}
