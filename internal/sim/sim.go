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
// A pending event is 24 bytes and holds no pointer: its instant, its
// insertion sequence, a HandlerID and a uint32 argument. What runs is looked
// up when the event fires — in the kernel's table of registered handlers, or,
// for a closure, in a slot table the argument indexes — so the queue's
// storage is a noscan slab: no write barrier on any copy a sift makes and
// nothing for the collector to scan, however many events are pending.
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
//     scheduling allocates nothing. Reserve sizes the run alone — a timer
//     per node — and the heap grows by append to what is out of order.
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
// The heap pops bottom-up: the hole the root leaves walks down to a leaf
// along the smallest of each group of four siblings, never comparing against
// the displaced last entry, and that entry then sifts up from the leaf (it
// came from the bottom level, so it rarely rises a step). The walk picks the
// smallest sibling without a data-dependent branch: "a before b" is the
// borrow out of the 128-bit subtraction (a.at, a.seq) − (b.at, b.seq), the
// instants taken as their IEEE-754 bit patterns. That is sound because a
// scheduled instant is finite and not below the clock, which starts at zero:
// non-negative floats order exactly as their bit patterns do as unsigned
// integers. The one value that breaks it is −0 — equal to +0, so it passes
// the "not in the past" check at time zero, but with the largest bit pattern
// of all — and schedule stores it as +0.
//
// # Scheduling API
//
// AtFunc, AfterFunc and AtArg are the whole scheduling surface; none of them
// allocates per event. AtFunc and AfterFunc take a closure, which waits in a
// kernel-owned slot (reused through a free list) until its event fires; the
// slot is cleared and freed before the closure runs, so its captures are
// released on time and it may schedule into the slot it just left. AtArg
// takes the HandlerID of a long-lived handler, passed to Register once, and a
// uint32 for it: the path for code that schedules millions of events onto
// one function — message deliveries, tick timers.
//
// The kernel schedules, it does not cancel: every scheduled event runs
// (unless the run ends first). A protocol that loses interest in a timer
// bumps a generation counter it owns and has the handler compare the value
// it captured at scheduling time, returning early on a mismatch. Code that
// only needs "was this scheduled before that happened" captures nothing:
// it records ScheduleSeq when that happens and compares EventSeq against
// it when the event runs — how the network layer retires the timers and
// queued work of a crashed node.
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
// fresh closure per event — see Kernel.Register and Kernel.AtArg.
type ArgHandler func(arg uint32)

// HandlerID names an ArgHandler registered with one kernel. The zero value
// names nothing: events carry it to mean "arg is a closure slot".
type HandlerID uint32

// event is one entry in the pending-event set. Events are stored by value
// inside the scheduler's slices; they are never heap-allocated
// individually, and they hold no pointer (see "Scheduling internals").
type event struct {
	at  simtime.Time
	seq uint64    // tie-break: events at equal instants run in schedule order
	h   HandlerID // registered handler to run as handlers[h](arg); 0: closure
	arg uint32    // the handler's argument, or the closure's slot when h == 0
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
	eventSeq  uint64 // insertion sequence of the event executing (or last executed)
	executed  uint64
	stopped   bool
	running   bool
	stopCause string
	observer  func() // post-event hook; see SetObserver

	handlers []ArgHandler // by HandlerID; handlers[0] is never called
	closures []Handler    // AtFunc/AfterFunc closures awaiting their events, by slot
	freeSlot []uint32     // vacated closure slots
}

// New returns an empty kernel at virtual time zero, backed by the default
// 4-ary heap scheduler.
func New() *Kernel {
	return newKernel(newHeapScheduler())
}

func newKernel(s Scheduler) *Kernel {
	return &Kernel{sched: s, handlers: make([]ArgHandler, 1)}
}

// NewNamed returns an empty kernel backed by the named scheduler (see
// NewScheduler). The empty name selects the default heap.
func NewNamed(name string) (*Kernel, error) {
	s, err := NewScheduler(name)
	if err != nil {
		return nil, err
	}
	return newKernel(s), nil
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

// EventSeq returns the insertion sequence number of the event being executed
// (after Run or Step returns, of the last one executed). Sequence numbers
// grow with every scheduling call, so an event whose EventSeq is below a
// ScheduleSeq value recorded earlier was scheduled before that recording:
// a handler can tell that something happened while its event waited without
// the event carrying anything.
func (k *Kernel) EventSeq() uint64 { return k.eventSeq }

// Pending returns the number of scheduled, not yet executed events in O(1).
// The kernel never withdraws an event, so every one it has scheduled has
// either executed or is still pending.
func (k *Kernel) Pending() int { return int(k.seq - k.executed) }

// Reserve tells the scheduler that about n events will be pending at once at
// non-decreasing instants — one timer per node, say — so it can size its
// storage for them in one step instead of growing into it. A builder that
// knows the population calls it before the first event is scheduled. It is a
// hint: execution order and every counter are unaffected. The heap scheduler
// gives all n slots to its sorted run, so n events scheduled at non-decreasing
// instants allocate nothing; its heap, which takes what arrives out of order,
// grows by append like any slice. The calendar ignores the hint. The
// reservation is the queue's alone: the closure table behind AtFunc grows with
// the closures actually pending.
func (k *Kernel) Reserve(n int) { k.sched.Reserve(n) }

// checkInstant panics unless at is an instant an event may be scheduled at.
func (k *Kernel) checkInstant(at simtime.Time) {
	if !at.IsFinite() {
		panic(fmt.Sprintf("sim: scheduling at non-finite time %v", at))
	}
	if at.Before(k.now) {
		panic(fmt.Sprintf("sim: scheduling into the past: now %v, requested %v", k.now, at))
	}
}

// enqueue hands one event, its instant already checked, to the scheduler.
func (k *Kernel) enqueue(at simtime.Time, h HandlerID, arg uint32) {
	at += 0 // −0 + 0 = +0: −0 passes checkInstant at time zero, and the heap orders instants by bit pattern
	k.sched.Schedule(event{at: at, seq: k.seq, h: h, arg: arg})
	k.seq++
}

// Register adds fn to the kernel's handler table and returns the id AtArg
// schedules it by. Call it once per long-lived handler, not per event: the
// table only grows.
func (k *Kernel) Register(fn ArgHandler) HandlerID {
	if fn == nil {
		panic("sim: registering a nil handler")
	}
	k.handlers = append(k.handlers, fn)
	return HandlerID(len(k.handlers) - 1)
}

// AtFunc schedules fn to run at instant at. Scheduling strictly in the past
// is a programming error and panics; scheduling at the current instant is
// allowed and runs after all previously scheduled events for that instant.
// There is no per-event allocation: fn waits in a reused slot.
func (k *Kernel) AtFunc(at simtime.Time, fn Handler) {
	if fn == nil {
		panic("sim: scheduling a nil handler")
	}
	k.checkInstant(at) // before a slot is taken: a refused event must not leak one
	var slot uint32
	if n := len(k.freeSlot); n > 0 {
		slot = k.freeSlot[n-1]
		k.freeSlot = k.freeSlot[:n-1]
		k.closures[slot] = fn
	} else {
		slot = uint32(len(k.closures))
		k.closures = append(k.closures, fn)
	}
	k.enqueue(at, 0, slot)
}

// AtArg schedules the handler registered as id to run as fn(arg) at instant
// at. Unlike AtFunc, the handler is parameterised, so one long-lived func
// value (typically a method value) serves arbitrarily many events even when
// each event needs distinct state, and the event names it without holding a
// pointer. The channel layer's pooled delivery path is the intended caller:
// arg indexes into its payload pool.
func (k *Kernel) AtArg(at simtime.Time, id HandlerID, arg uint32) {
	if id == 0 || int(id) >= len(k.handlers) {
		panic(fmt.Sprintf("sim: AtArg with unregistered handler id %d", id))
	}
	k.checkInstant(at)
	k.enqueue(at, id, arg)
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
	k.eventSeq = ev.seq
	k.executed++
	if ev.h != 0 {
		k.handlers[ev.h](ev.arg)
	} else {
		// Vacate the slot first: fn's captures are dropped when it returns,
		// and what it schedules may take the slot over.
		fn := k.closures[ev.arg]
		k.closures[ev.arg] = nil
		k.freeSlot = append(k.freeSlot, ev.arg)
		fn()
	}
	if k.observer != nil {
		k.observer()
	}
}
