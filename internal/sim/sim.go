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
// Two schedulers hold the pending events, selectable per run: "heap", the
// default (see heapScheduler) — a sorted run that takes events arriving in
// order, such as the tick timers every node of the paper's election re-arms
// forever, in front of a 4-ary heap for the rest — and "calendar", a
// calendar queue (Brown 1988, as in ns-3), kept as the independent
// implementation the differential suite checks the heap against. The Kernel
// holds the heap's lanes by value and the calendar behind a pointer, nil
// unless selected; a selected calendar takes every event. Both pop in exactly
// (instant, sequence) order, so executions are byte-identical across
// schedulers — the differential suite and FuzzSchedulerOrder pin that.
//
// The heap is sized by the burst it starts from. Until the kernel executes
// its first event, what the heap would take is staged in schedule order —
// every node's opening broadcast, say — and the first pop, whichever call
// makes it, loads the staged events into one slice of their count plus a
// quarter and heapifies it bottom-up; a burst of up to 256 events is
// heapified where it was staged. From then on the heap is one contiguous
// array that pushes sift into and grows by append.
//
// A kernel owns its run lane, its heap and its staging arrays until Recycle
// hands them to the next kernel in the process (package reuse). Reserve
// takes the run lane, staging its slice and pages, and the load and the
// heap's growth the heap's array, from what earlier kernels recycled when
// one is long enough, and allocate as above when none is; an event is
// written before it is read, so none is cleared. The arrays a load copies
// out stay with the kernel, retired, until Recycle — not at the load, when
// the run that staged them may still fail. The network layer recycles a
// kernel with the rest of a network, after a run that returned normally.
//
// # The run loop
//
// On the heap an event costs one call inside this package or none: the loop
// pops the run's oldest event and calls a registered handler itself, and
// AtArg inlines into its caller, which calls enqueue, where both pushes are
// written out. Nothing else runs between two events; there is no per-event
// hook. A caller that looks at a run as it goes runs it in segments:
// RunSegment returns right after the event that reaches its Pause, and the
// next call resumes the run (the probe collector samples this way; see
// network.Network.Run).
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
	"math"

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
	lanes     heapScheduler      // the default scheduler, worked inline by the loop and enqueue
	cal       *calendarScheduler // nil unless the calendar is selected; then it takes every event
	seq       uint64
	eventSeq  uint64 // insertion sequence of the event executing (or last executed)
	executed  uint64
	stopped   bool
	running   bool
	stopCause string

	handlers []ArgHandler // by HandlerID; handlers[0] is never called
	closures []Handler    // AtFunc/AfterFunc closures awaiting their events, by slot
	freeSlot []uint32     // vacated closure slots
}

// New returns an empty kernel at virtual time zero, backed by the default
// heap scheduler.
func New() *Kernel { return &Kernel{handlers: make([]ArgHandler, 1)} }

// NewNamed returns an empty kernel backed by the named scheduler (see
// SchedulerNames). The empty name selects the default heap.
func NewNamed(name string) (*Kernel, error) {
	switch name {
	case "", SchedulerHeap:
		return New(), nil
	case SchedulerCalendar:
		k := New()
		k.cal = newCalendarScheduler()
		return k, nil
	}
	return nil, fmt.Errorf("sim: unknown scheduler %q (valid: %v)", name, SchedulerNames())
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

// Reserve tells the scheduler that about n events will be pending at once at
// non-decreasing instants — one timer per node, say — so the heap's run takes
// them without growing (see heapScheduler.Reserve; the calendar sizes
// itself). Whoever knows the population, such as network.New, calls it before
// the first event. It is a hint: execution order and every counter are
// unaffected, and the closure table behind AtFunc is not reserved. Nothing
// reserves the heap: the burst scheduled before the first event sizes it.
func (k *Kernel) Reserve(n int) {
	if k.cal == nil {
		k.lanes.Reserve(n)
	}
}

// Recycle hands the heap's run lane and heap to the next kernel built in this
// process (see package reuse) and empties both: what was pending is dropped.
// Call it only once the kernel's last run is over and nothing will schedule
// on it again. A selected calendar keeps its own storage.
func (k *Kernel) Recycle() { k.lanes.recycle() }

// refusal says what is wrong with an event at at for handler h: an instant
// must be finite and not before now, a handler registered.
func (k *Kernel) refusal(at simtime.Time, h HandlerID) string {
	switch {
	case int(h) >= len(k.handlers):
		return fmt.Sprintf("sim: AtArg with unregistered handler id %d", h)
	case !at.IsFinite():
		return fmt.Sprintf("sim: scheduling at non-finite time %v", at)
	}
	return fmt.Sprintf("sim: scheduling into the past: now %v, requested %v", k.now, at)
}

// enqueue checks one event (one two-sided compare, which NaN fails too) and
// files it: onto the run if the run takes it (see heapScheduler), else with
// the calendar when it is selected, else into the heap — staged while the
// kernel has executed nothing, which a handler never sees, since the loop
// counts an event before it runs it. The run has no slot under the calendar,
// so its push comes first, with no value spilled for the calls below; the
// event is built where it is stored, not in a stack local.
func (k *Kernel) enqueue(at simtime.Time, h HandlerID, arg uint32) {
	if !(at >= k.now && at < simtime.Forever) || int(h) >= len(k.handlers) {
		panic(k.refusal(at, h))
	}
	at += 0 // −0 + 0 = +0: −0 passes the check at time zero, and the heap orders instants by bit pattern
	seq := k.seq
	k.seq++
	q := &k.lanes
	inOrder := q.n == 0 || at >= q.tail
	if inOrder && q.n < len(q.run) {
		i := q.head + q.n
		if i >= len(q.run) {
			i -= len(q.run)
		}
		q.run[i] = event{at: at, seq: seq, h: h, arg: arg}
		q.n++
		q.tail = at
		return
	}
	switch {
	case k.cal != nil:
		k.cal.Schedule(event{at: at, seq: seq, h: h, arg: arg})
	case inOrder && !q.reserved: // a full run that may double
		q.resizeRun(max(2*len(q.run), 16))
		q.run[q.n] = event{at: at, seq: seq, h: h, arg: arg}
		q.n++
		q.tail = at
	case k.executed == 0: // before the first pop: staged, and loaded by it
		q.stage(event{at: at, seq: seq, h: h, arg: arg})
	default:
		// Sift up from a new leaf. seq is above every pending event's, so an
		// entry at the same instant stays above it: the instant decides.
		i := len(q.heap)
		if i == cap(q.heap) {
			q.grow()
		}
		q.heap = q.heap[:i+1]
		for i > 0 {
			p := (i - 1) / 4
			if at >= q.heap[p].at {
				break
			}
			q.heap[i] = q.heap[p]
			i = p
		}
		q.heap[i] = event{at: at, seq: seq, h: h, arg: arg}
	}
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
	if !(at >= k.now && at < simtime.Forever) { // before a slot is taken: a refused event must not leak one
		panic(k.refusal(at, 0))
	}
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
// arg indexes into its payload pool. It inlines; enqueue checks the rest.
func (k *Kernel) AtArg(at simtime.Time, id HandlerID, arg uint32) {
	if id == 0 {
		panic("sim: AtArg with handler id 0, which names no handler")
	}
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

// StopCause returns the cause passed to the most recent Stop, or "".
func (k *Kernel) StopCause() string { return k.stopCause }

// Stopped reports whether Stop has been called.
func (k *Kernel) Stopped() bool { return k.stopped }

// Run executes events in virtual-time order until one of, checked in this
// order before each event:
//   - Stop is called (returns ErrStopped),
//   - the schedule drains (returns nil),
//   - virtual time would exceed horizon (returns nil; the event at a time
//     past the horizon remains scheduled and time stops at the horizon),
//   - more than maxEvents events execute, if maxEvents > 0 (returns an
//     error matching ErrMaxEvents; this guards against non-terminating
//     protocols in tests).
func (k *Kernel) Run(horizon simtime.Time, maxEvents uint64) error {
	_, err := k.RunSegment(horizon, maxEvents, k.executed, noPause)
	return err
}

// Pause is where RunSegment returns early: right after the event that brings
// Executed to Events, or after the first event executed at or after At,
// whichever comes first.
type Pause struct {
	Events uint64
	At     simtime.Time
}

// noPause never comes: no event is at or after Forever.
var noPause = Pause{Events: math.MaxUint64, At: simtime.Forever}

// RunSegment is Run's loop with a pause: right after the event that reaches
// pause (which must lie past Executed), it returns paused = true, the clock
// on that event, and the next call resumes the run. maxEvents counts from
// the Executed value from, so a run in segments keeps one budget. Stop ends a
// segment first; a pause comes before the drain, horizon or budget that
// would end the run at the same event, which the next call then reports.
func (k *Kernel) RunSegment(horizon simtime.Time, maxEvents, from uint64, pause Pause) (paused bool, err error) {
	if k.running {
		return false, errors.New("sim: Run called reentrantly")
	}
	k.running = true
	defer func() { k.running = false }()

	budget := uint64(math.MaxUint64) // the Executed value at which the budget is spent
	if maxEvents > 0 && maxEvents <= math.MaxUint64-from {
		budget = from + maxEvents
	}
	// Up to pause.At the loop pops only what lies strictly before it; the
	// first event at or after it is the segment's last.
	bound := horizon
	if pause.At <= horizon {
		bound = simtime.Time(math.Nextafter(float64(pause.At), math.Inf(-1)))
	}
	limit := min(budget, pause.Events)
	q := &k.lanes
	if q.staged {
		q.load()
	}
	for {
		if k.stopped {
			return false, ErrStopped
		}
		if k.executed >= limit {
			if k.executed >= pause.Events {
				return true, nil
			}
			if at, ok := k.peekTime(); ok && at <= horizon {
				return false, fmt.Errorf("%w: exceeded %d events at %v", ErrMaxEvents, maxEvents, k.now)
			}
			k.halt(horizon) // drained, or nothing left by the horizon: the budget was enough
			return false, nil
		}
		// Pop the earliest event if it is not past bound: the run's oldest
		// here, anything else by one call.
		var ev event
		ok := q.runFirst() && q.run[q.head].at <= bound
		if ok {
			ev = q.run[q.head]
			q.n--
			if q.head++; q.head == len(q.run) {
				q.head = 0
			}
		} else {
			ev, ok = k.next(bound)
		}
		if !ok {
			if bound < horizon { // nothing is left before pause.At
				bound = horizon
				pause.Events = min(pause.Events, k.executed+1)
				limit = min(budget, pause.Events)
				continue
			}
			k.halt(horizon)
			return false, nil
		}
		k.now = ev.at
		k.eventSeq = ev.seq
		k.executed++
		if ev.h != 0 {
			k.handlers[ev.h](ev.arg)
		} else {
			k.takeClosure(ev.arg)()
		}
	}
}

// next removes and returns the earliest pending event if it is not past
// bound; its callers load a staged burst first. The heap pops bottom-up:
// the root's hole sinks to a leaf and the displaced last entry, a leaf
// itself that rarely belongs higher, sifts up from there — one compare per
// level fewer than sifting it down from the root, the one that nearly
// always says "keep going".
func (k *Kernel) next(bound simtime.Time) (ev event, ok bool) {
	switch q := &k.lanes; {
	case q.runFirst():
		if ev = q.run[q.head]; ev.at > bound {
			return event{}, false
		}
		q.n--
		if q.head++; q.head == len(q.run) {
			q.head = 0
		}
		return ev, true
	case len(q.heap) > 0:
		if ev = q.heap[0]; ev.at > bound {
			return event{}, false
		}
		n := len(q.heap) - 1
		last := q.heap[n]
		q.heap = q.heap[:n]
		if n > 0 {
			i := q.sinkHole()
			q.heap[i] = last
			q.siftUp(i)
		}
		return ev, true
	case k.cal != nil:
		return k.cal.Next(bound)
	}
	return event{}, false
}

// peekTime returns the instant of the earliest pending event, or ok=false
// when nothing is pending.
func (k *Kernel) peekTime() (simtime.Time, bool) {
	if k.lanes.staged {
		k.lanes.load()
	}
	switch q := &k.lanes; {
	case k.cal != nil:
		return k.cal.PeekTime()
	case q.runFirst():
		return q.run[q.head].at, true
	case len(q.heap) > 0:
		return q.heap[0].at, true
	}
	return 0, false
}

// halt ends a run with nothing left by horizon: the clock moves forward to
// the horizon if anything is pending past it, and never backward.
func (k *Kernel) halt(horizon simtime.Time) {
	if _, ok := k.peekTime(); ok && horizon.After(k.now) {
		k.now = horizon
	}
}

// Step executes the earliest pending event and returns true, or returns false
// if the schedule is empty or the kernel has been stopped: Step honours Stop
// exactly like Run does. It ignores any horizon; StepWithin bounds it.
func (k *Kernel) Step() bool { return k.StepWithin(simtime.Forever) }

// StepWithin is Step bounded like Run: if the earliest pending event lies
// past horizon, it runs nothing, moves the clock forward to the horizon and
// returns false. It pops and dispatches as RunSegment does, without a run's
// set-up, which cost a BenchmarkHold step 33 ns against 21 ns.
func (k *Kernel) StepWithin(horizon simtime.Time) bool {
	if k.stopped {
		return false
	}
	if k.lanes.staged {
		k.lanes.load()
	}
	ev, ok := k.next(horizon)
	if !ok {
		k.halt(horizon)
		return false
	}
	k.now = ev.at
	k.eventSeq = ev.seq
	k.executed++
	if ev.h != 0 {
		k.handlers[ev.h](ev.arg)
	} else {
		k.takeClosure(ev.arg)()
	}
	return true
}

// takeClosure vacates a closure's slot and returns it to run: its captures
// are dropped when it returns, and what it schedules may take the slot over.
func (k *Kernel) takeClosure(slot uint32) Handler {
	fn := k.closures[slot]
	k.closures[slot] = nil
	k.freeSlot = append(k.freeSlot, slot)
	return fn
}
