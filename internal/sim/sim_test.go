package sim

import (
	"errors"
	"math"
	"math/bits"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"

	"abenet/internal/rng"
	"abenet/internal/simtime"
)

func TestRunsInTimeOrder(t *testing.T) {
	k := New()
	var order []simtime.Time
	times := []simtime.Time{5, 1, 3, 2, 4}
	for _, at := range times {
		at := at
		k.AtFunc(at, func() { order = append(order, at) })
	}
	if err := k.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(order, func(i, j int) bool { return order[i] < order[j] }) {
		t.Fatalf("events ran out of order: %v", order)
	}
	if len(order) != len(times) {
		t.Fatalf("ran %d events, want %d", len(order), len(times))
	}
	if k.Now() != 5 {
		t.Fatalf("final time %v, want 5", k.Now())
	}
}

func TestTieBreakIsScheduleOrder(t *testing.T) {
	k := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.AtFunc(1, func() { order = append(order, i) })
	}
	if err := k.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break violated: %v", order)
		}
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	k := New()
	var hits []simtime.Time
	k.AtFunc(1, func() {
		hits = append(hits, k.Now())
		k.AfterFunc(2, func() { hits = append(hits, k.Now()) })
	})
	if err := k.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 || hits[0] != 1 || hits[1] != 3 {
		t.Fatalf("hits = %v, want [1 3]", hits)
	}
}

func TestSameInstantSchedulingRunsAfterCurrent(t *testing.T) {
	k := New()
	var order []string
	k.AtFunc(1, func() {
		order = append(order, "a")
		k.AfterFunc(0, func() { order = append(order, "c") })
	})
	k.AtFunc(1, func() { order = append(order, "b") })
	if err := k.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestHorizonStopsTime(t *testing.T) {
	k := New()
	ran := false
	k.AtFunc(10, func() { ran = true })
	if err := k.Run(5, 0); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("event past horizon ran")
	}
	if k.Now() != 5 {
		t.Fatalf("time = %v, want horizon 5", k.Now())
	}
	if pending(k) != 1 {
		t.Fatalf("pending = %d, want 1", pending(k))
	}
	// A later Run can pick the event up.
	if err := k.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("event did not run after extending horizon")
	}
}

func TestStopInsideEvent(t *testing.T) {
	k := New()
	ran2 := false
	k.AtFunc(1, func() { k.Stop("test cause") })
	k.AtFunc(2, func() { ran2 = true })
	err := k.Run(simtime.Forever, 0)
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if ran2 {
		t.Fatal("event after Stop ran")
	}
	if k.StopCause() != "test cause" {
		t.Fatalf("cause = %q", k.StopCause())
	}
	if !k.Stopped() {
		t.Fatal("Stopped() = false")
	}
}

func TestMaxEventsGuard(t *testing.T) {
	k := New()
	var tick func()
	tick = func() { k.AfterFunc(1, tick) } // immortal self-rescheduling event
	k.AtFunc(0, tick)
	err := k.Run(simtime.Forever, 100)
	if err == nil || errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v, want livelock guard error", err)
	}
	if k.Executed() != 100 {
		t.Fatalf("executed = %d, want 100", k.Executed())
	}
}

func TestPanicsOnPastScheduling(t *testing.T) {
	k := New()
	k.AtFunc(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling into the past did not panic")
			}
		}()
		k.AtFunc(1, func() {})
	})
	if err := k.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
}

func TestPanicsOnNilHandler(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil handler did not panic")
		}
	}()
	New().AtFunc(1, nil)
}

// TestRefusedSchedulingLeavesNoTrace: every call the kernel refuses panics
// before it has taken anything — no event, no sequence number, no handler id
// and, for a closure, no slot in the closure table.
func TestRefusedSchedulingLeavesNoTrace(t *testing.T) {
	k := New()
	id := k.Register(func(uint32) {})
	fn := func() {}
	k.AtFunc(5, fn)
	k.Step()        // the clock stands at 5, with one vacated closure slot
	k.AtFunc(6, fn) // which this takes again
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"AtArg with id 0", func() { k.AtArg(6, 0, 0) }},
		{"AtArg with an unregistered id", func() { k.AtArg(6, id+1, 0) }},
		{"Register(nil)", func() { k.Register(nil) }},
		{"AtFunc(nil)", func() { k.AtFunc(6, nil) }},
		{"AtFunc into the past", func() { k.AtFunc(4, fn) }},
		{"AtArg into the past", func() { k.AtArg(4, id, 0) }},
		{"AtFunc at NaN", func() { k.AtFunc(simtime.Time(math.NaN()), fn) }},
		{"AtFunc at +Inf", func() { k.AtFunc(simtime.Time(math.Inf(1)), fn) }},
		{"AtArg at Forever", func() { k.AtArg(simtime.Forever, id, 0) }},
		{"AfterFunc with a negative duration", func() { k.AfterFunc(-1, fn) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", tc.name)
				}
			}()
			tc.call()
		}()
		if pending(k) != 1 || k.ScheduleSeq() != 2 || len(k.handlers) != int(id)+1 ||
			len(k.closures) != 1 || len(k.freeSlot) != 0 {
			t.Fatalf("%s left a trace: %d pending, seq %d, %d handlers, %d closure slots with %d free",
				tc.name, pending(k), k.ScheduleSeq(), len(k.handlers), len(k.closures), len(k.freeSlot))
		}
	}
}

func TestPanicsOnInvalidDuration(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative AfterFunc did not panic")
		}
	}()
	New().AfterFunc(-1, func() {})
}

func TestStep(t *testing.T) {
	k := New()
	count := 0
	k.AtFunc(1, func() { count++ })
	k.AtFunc(2, func() { count++ })
	if !k.Step() {
		t.Fatal("Step should run the first event")
	}
	if count != 1 || k.Now() != 1 {
		t.Fatalf("after one step: count=%d now=%v", count, k.Now())
	}
	if !k.Step() {
		t.Fatal("Step should run the second event")
	}
	if k.Step() {
		t.Fatal("Step on empty schedule should return false")
	}
	if count != 2 {
		t.Fatalf("count = %d", count)
	}
}

func TestReentrantRunRejected(t *testing.T) {
	k := New()
	var innerErr error
	k.AtFunc(1, func() {
		innerErr = k.Run(simtime.Forever, 0)
	})
	if err := k.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	if innerErr == nil {
		t.Fatal("reentrant Run should error")
	}
}

func TestManyRandomEventsStayOrdered(t *testing.T) {
	// Property: for arbitrary seeds, execution order is non-decreasing in
	// time even with events scheduled from within events.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		k := New()
		var last simtime.Time
		ok := true
		var spawn func(depth int)
		spawn = func(depth int) {
			if k.Now() < last {
				ok = false
			}
			last = k.Now()
			if depth <= 0 {
				return
			}
			n := r.Intn(3)
			for i := 0; i < n; i++ {
				d := simtime.Duration(r.Float64() * 10)
				k.AfterFunc(d, func() { spawn(depth - 1) })
			}
		}
		for i := 0; i < 10; i++ {
			at := simtime.Time(r.Float64() * 10)
			k.AtFunc(at, func() { spawn(3) })
		}
		if err := k.Run(simtime.Forever, 100000); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func(seed uint64) []simtime.Time {
		r := rng.New(seed)
		k := New()
		var log []simtime.Time
		var tick func()
		remaining := 200
		tick = func() {
			log = append(log, k.Now())
			remaining--
			if remaining > 0 {
				k.AfterFunc(simtime.Duration(r.ExpFloat64()), tick)
			}
		}
		k.AtFunc(0, tick)
		if err := k.Run(simtime.Forever, 0); err != nil {
			t.Fatal(err)
		}
		return log
	}
	a, b := run(77), run(77)
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestStepRespectsStop(t *testing.T) {
	// Regression: Step used to execute events even after Stop, unlike Run.
	k := New()
	ran := false
	k.AtFunc(1, func() { ran = true })
	k.Stop("halt")
	if k.Step() {
		t.Fatal("Step made progress on a stopped kernel")
	}
	if ran {
		t.Fatal("Step executed an event on a stopped kernel")
	}
	if pending(k) != 1 {
		t.Fatalf("pending = %d, want the event still scheduled", pending(k))
	}
}

func TestStepWithinHorizon(t *testing.T) {
	k := New()
	count := 0
	k.AtFunc(1, func() { count++ })
	k.AtFunc(10, func() { count++ })
	if !k.StepWithin(5) {
		t.Fatal("StepWithin should run the event at t=1")
	}
	if k.StepWithin(5) {
		t.Fatal("StepWithin ran an event past the horizon")
	}
	if count != 1 {
		t.Fatalf("count = %d, want 1", count)
	}
	if k.Now() != 5 {
		t.Fatalf("time = %v, want the horizon 5 (mirroring Run)", k.Now())
	}
	if pending(k) != 1 {
		t.Fatalf("pending = %d, want the t=10 event still scheduled", pending(k))
	}
	// A later step with a wider horizon picks the event up.
	if !k.StepWithin(simtime.Forever) {
		t.Fatal("StepWithin(Forever) should run the remaining event")
	}
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
}

// TestSchedulingAllocations pins the allocation contract of the scheduling
// API: nothing is allocated per event once the heap slice is warm.
func TestSchedulingAllocations(t *testing.T) {
	k := New()
	fn := func() {}
	// Warm the heap slice so append never grows inside the measurement.
	for i := 0; i < 128; i++ {
		k.AtFunc(0, fn)
	}
	if err := k.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}

	if avg := testing.AllocsPerRun(1000, func() {
		k.AtFunc(k.Now(), fn)
		if err := k.Run(simtime.Forever, 0); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("AtFunc+Run allocates %g objects per event, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		k.AfterFunc(1, fn)
		if err := k.Run(simtime.Forever, 0); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("AfterFunc+Run allocates %g objects per event, want 0", avg)
	}
	id := k.Register(func(uint32) {})
	if avg := testing.AllocsPerRun(1000, func() {
		k.AtArg(k.Now(), id, 7)
		if err := k.Run(simtime.Forever, 0); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("AtArg+Run allocates %g objects per event, want 0", avg)
	}
}

// TestEventIsPointerFree pins the hot struct: both schedulers copy events by
// value on every sift and bucket shift, so a field added here is paid per
// move, and a pointer in one would put a write barrier on each of those
// copies and the whole queue slab on the collector's scan list.
func TestEventIsPointerFree(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 24 {
		t.Errorf("unsafe.Sizeof(event{}) = %d, want 24", got)
	}
	typ := reflect.TypeOf(event{})
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Float64, reflect.Uint64, reflect.Uint32:
		default:
			t.Errorf("event.%s has kind %v: only scalar fields keep the queue noscan", f.Name, f.Type.Kind())
		}
	}
}

func TestStepWithinPastHorizonDoesNotRewind(t *testing.T) {
	// Regression (review finding): a horizon earlier than the current
	// virtual time must not move the clock backwards.
	k := New()
	k.AtFunc(10, func() {})
	k.AtFunc(12, func() {})
	if !k.StepWithin(simtime.Forever) {
		t.Fatal("first step should run the t=10 event")
	}
	if k.StepWithin(5) {
		t.Fatal("no event lies within the past horizon")
	}
	if k.Now() != 10 {
		t.Fatalf("clock rewound to %v, want it held at 10", k.Now())
	}
	// Run must hold the same invariant.
	if err := k.Run(5, 0); err != nil {
		t.Fatal(err)
	}
	if k.Now() != 10 {
		t.Fatalf("Run rewound the clock to %v, want 10", k.Now())
	}
}

// TestReserveSizesTheQueueOnce: Reserve(n) sizes the sorted run for n events
// at non-decreasing instants — a timer per node — so scheduling them grows
// nothing. The heap lane is not reserved: n events out of order grow it by
// append, in O(log n) allocations, and a drained heap keeps what it grew to.
// The hint changes neither the pop order nor any counter — on either
// scheduler.
//
// The reservation is the queue's alone. An event scheduled through AtArg
// lives in the queue and nowhere else. One scheduled through AtFunc also
// parks its closure in the kernel's slot table, which Reserve does not size
// (it would add a pointer-carrying 12 bytes per slot to every reservation for
// the few callers that schedule closures in bulk): the table grows by
// doubling the first time that many closures are pending at once — O(log n)
// allocations, none of them the queue's — and never again.
func TestReserveSizesTheQueueOnce(t *testing.T) {
	const n = 5000
	// append doubles up to 256 entries and grows by a quarter or more after.
	growth := uint64(2 * bits.Len(n))
	inOrder := func(k *Kernel, schedule func(at simtime.Time)) {
		next := k.Now() + simtime.Time(n)
		for i := 0; i < n; i++ {
			schedule(next) // non-decreasing, in pairs on one instant: the run's
			next += simtime.Time(i % 2)
		}
	}
	outOfOrder := func(k *Kernel, schedule func(at simtime.Time)) {
		for i := 0; i < n; i++ {
			schedule(k.Now() + simtime.Time(n-i)) // descending: all but the first are the heap's
		}
	}
	drain := func(k *Kernel) {
		if err := k.Run(simtime.Forever, 0); err != nil {
			t.Fatal(err)
		}
	}

	k := New()
	k.Reserve(n)
	h := k.sched.(*heapScheduler)
	arg := k.Register(func(uint32) {})
	atArg := func(at simtime.Time) { k.AtArg(at, arg, 0) }
	if got := mallocs(func() { inOrder(k, atArg) }); got != 0 {
		t.Errorf("%d events in order into Reserve(%d) allocated %d times, want 0", n, n, got)
	}
	if pending(k) != n || h.n != n || len(h.heap) != 0 {
		t.Fatalf("Pending() = %d (run %d, heap %d), want all %d in the run", pending(k), h.n, len(h.heap), n)
	}
	drain(k)
	if got := mallocs(func() { outOfOrder(k, atArg) }); got == 0 || got > growth {
		t.Errorf("%d events out of order into Reserve(%d) allocated %d times, want the heap's growth: 1 to %d", n, n, got, growth)
	}
	if h.n != 1 || len(h.heap) != n-1 {
		t.Fatalf("run %d, heap %d: want the descending events in the heap", h.n, len(h.heap))
	}
	drain(k)
	if got := mallocs(func() { outOfOrder(k, atArg) }); got != 0 {
		t.Errorf("refilling a drained heap allocated %d times, want 0", got)
	}

	// The in-order program through AtFunc: the first fill pays for the
	// closure table's growth and nothing else, a drained kernel refills for
	// free.
	fn := func() {}
	k = New()
	k.Reserve(n)
	atFunc := func(at simtime.Time) { k.AtFunc(at, fn) }
	if got := mallocs(func() { inOrder(k, atFunc) }); got > growth {
		t.Errorf("the first %d closures into a reserved queue allocated %d times, want at most %d (closure table growth only)", n, got, growth)
	}
	if pending(k) != n {
		t.Fatalf("Pending() = %d, want %d", pending(k), n)
	}
	drain(k)
	if got := mallocs(func() { inOrder(k, atFunc) }); got != 0 {
		t.Errorf("draining and refilling a reserved queue with closures allocated %d times, want 0", got)
	}

	for _, name := range SchedulerNames() {
		run := func(reserve bool) (order []int, executed uint64) {
			k, err := NewNamed(name)
			if err != nil {
				t.Fatal(err)
			}
			if reserve {
				k.Reserve(n)
			}
			r := rng.New(3)
			for i := 0; i < n; i++ {
				i := i
				k.AtFunc(simtime.Time(r.Intn(50)), func() { order = append(order, i) })
			}
			if err := k.Run(simtime.Forever, 0); err != nil {
				t.Fatal(err)
			}
			return order, k.Executed()
		}
		plain, plainN := run(false)
		reserved, reservedN := run(true)
		if plainN != reservedN || len(plain) != len(reserved) {
			t.Fatalf("%s: Reserve changed the event count: %d vs %d", name, plainN, reservedN)
		}
		for i := range plain {
			if plain[i] != reserved[i] {
				t.Fatalf("%s: Reserve changed the pop order at %d: %d vs %d", name, i, plain[i], reserved[i])
			}
		}
	}
}

// mallocs returns the heap objects f allocates.
func mallocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// pending is the number of scheduled, not yet executed events: the kernel
// never withdraws one, so every event it has scheduled has either run or is
// still pending.
func pending(k *Kernel) int { return int(k.ScheduleSeq() - k.Executed()) }

// TestRunLoopPrecedence pins what ends a run, on every scheduler: Stop, then
// a drained schedule, then the horizon (the clock moves forward to it only
// while something is still pending), then the event budget — which, spent
// when nothing is left to run by the horizon, is no error. StepWithin ends
// the same way, without a budget.
func TestRunLoopPrecedence(t *testing.T) {
	type outcome struct {
		err      error // nil, ErrStopped or ErrMaxEvents
		stepped  bool  // StepWithin's result
		executed uint64
		now      simtime.Time
		pending  int
	}
	cases := []struct {
		name string
		// at are the instants scheduled up front; stopAt, if positive, is
		// the one whose handler calls Stop.
		at     []simtime.Time
		stopAt simtime.Time
		// run drives the kernel: a Run, or a StepWithin when step is set.
		horizon   simtime.Time
		maxEvents uint64
		step      bool
		// before runs first: a stop outside the run, or an earlier run.
		before func(k *Kernel)
		want   outcome
	}{
		{name: "stopped before the run", at: []simtime.Time{1, 2}, horizon: 5,
			before: func(k *Kernel) { k.Stop("early") },
			want:   outcome{err: ErrStopped, now: 0, pending: 2}},
		{name: "stop beats a spent budget and the horizon", at: []simtime.Time{1, 10}, stopAt: 1, horizon: 5, maxEvents: 1,
			want: outcome{err: ErrStopped, executed: 1, now: 1, pending: 1}},
		{name: "drained: the clock stays on the last event", at: []simtime.Time{1, 2}, horizon: 5,
			want: outcome{executed: 2, now: 2}},
		{name: "horizon: the clock moves to it", at: []simtime.Time{1, 10}, horizon: 5,
			want: outcome{executed: 1, now: 5, pending: 1}},
		{name: "horizon on an event runs it", at: []simtime.Time{1, 5, 5}, horizon: 5,
			want: outcome{executed: 3, now: 5}},
		{name: "a horizon in the past does not rewind", at: []simtime.Time{1, 10}, horizon: 3,
			before: func(k *Kernel) { k.Run(6, 0) },
			want:   outcome{executed: 1, now: 6, pending: 1}},
		{name: "budget spent at drain", at: []simtime.Time{1, 2}, horizon: simtime.Forever, maxEvents: 2,
			want: outcome{executed: 2, now: 2}},
		{name: "budget spent, the rest past the horizon", at: []simtime.Time{1, 10}, horizon: 5, maxEvents: 1,
			want: outcome{executed: 1, now: 5, pending: 1}},
		{name: "budget spent with an eligible event", at: []simtime.Time{1, 2, 3}, horizon: 5, maxEvents: 1,
			want: outcome{err: ErrMaxEvents, executed: 1, now: 1, pending: 2}},
		{name: "budget counts from the call", at: []simtime.Time{1, 2, 3, 4}, horizon: 5, maxEvents: 2,
			before: func(k *Kernel) { k.Run(1, 0) },
			want:   outcome{err: ErrMaxEvents, executed: 3, now: 3, pending: 1}},
		{name: "budget larger than what is left", at: []simtime.Time{1, 2}, horizon: 5, maxEvents: 3,
			want: outcome{executed: 2, now: 2}},
		{name: "StepWithin runs the earliest", at: []simtime.Time{1, 2}, horizon: 1, step: true,
			want: outcome{stepped: true, executed: 1, now: 1, pending: 1}},
		{name: "StepWithin on an empty schedule", horizon: 5, step: true,
			want: outcome{now: 0}},
		{name: "StepWithin past the horizon moves the clock", at: []simtime.Time{10}, horizon: 5, step: true,
			want: outcome{now: 5, pending: 1}},
		{name: "StepWithin honours Stop", at: []simtime.Time{1}, horizon: 5, step: true,
			before: func(k *Kernel) { k.Stop("early") },
			want:   outcome{now: 0, pending: 1}},
	}
	for _, name := range SchedulerNames() {
		for _, tc := range cases {
			t.Run(name+"/"+tc.name, func(t *testing.T) {
				k, err := NewNamed(name)
				if err != nil {
					t.Fatal(err)
				}
				for _, at := range tc.at {
					if at == tc.stopAt {
						k.AtFunc(at, func() { k.Stop("in a handler") })
					} else {
						k.AtFunc(at, func() {})
					}
				}
				if tc.before != nil {
					tc.before(k)
				}
				var got outcome
				start := k.Executed()
				if tc.step {
					got.stepped = k.StepWithin(tc.horizon)
				} else {
					got.err = k.Run(tc.horizon, tc.maxEvents)
				}
				got.executed, got.now, got.pending = k.Executed(), k.Now(), pending(k)
				if !errors.Is(got.err, tc.want.err) || (got.err == nil) != (tc.want.err == nil) {
					t.Fatalf("err = %v, want %v", got.err, tc.want.err)
				}
				got.err = tc.want.err
				if got != tc.want {
					t.Fatalf("got %+v (from %d executed), want %+v", got, start, tc.want)
				}
			})
		}
	}
}
