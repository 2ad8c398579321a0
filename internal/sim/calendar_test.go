package sim

import (
	"errors"
	"math"
	"testing"

	"abenet/internal/rng"
	"abenet/internal/simtime"
)

func newCalendarKernel(t *testing.T) *Kernel {
	t.Helper()
	k, err := NewNamed(SchedulerCalendar)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestSchedulerRegistry pins the registry surface: the shipped names
// resolve, the empty name means the default heap, and unknown names fail
// loudly enough to catch a typo in a spec file.
func TestSchedulerRegistry(t *testing.T) {
	for _, name := range SchedulerNames() {
		if !ValidScheduler(name) {
			t.Errorf("ValidScheduler(%q) = false for a registered name", name)
		}
		k, err := NewNamed(name)
		if err != nil {
			t.Fatalf("NewNamed(%q): %v", name, err)
		}
		var ok bool
		switch name {
		case SchedulerHeap:
			_, ok = k.sched.(*heapScheduler)
		case SchedulerCalendar:
			_, ok = k.sched.(*calendarScheduler)
		}
		if !ok {
			t.Errorf("NewNamed(%q) is backed by %T", name, k.sched)
		}
	}
	if !ValidScheduler("") {
		t.Error("ValidScheduler(\"\") = false, want true (default)")
	}
	if _, ok := New().sched.(*heapScheduler); !ok {
		t.Errorf("New() scheduler is a %T, want the heap default", New().sched)
	}
	if k, err := NewNamed(""); err != nil {
		t.Errorf("NewNamed(\"\"): %v", err)
	} else if _, ok := k.sched.(*heapScheduler); !ok {
		t.Errorf("NewNamed(\"\") scheduler is a %T, want the heap default", k.sched)
	}
	if ValidScheduler("ladder") {
		t.Error("ValidScheduler(\"ladder\") = true for an unknown name")
	}
	if _, err := NewNamed("ladder"); err == nil {
		t.Error("NewNamed(\"ladder\") succeeded, want an error")
	}
}

// TestCalendarMatchesHeapPopOrder is the scheduler determinism contract at
// kernel level: a pseudo-random workload of schedules, same-instant bursts
// and interleaved partial runs must execute in the identical sequence on
// both schedulers.
func TestCalendarMatchesHeapPopOrder(t *testing.T) {
	type step struct {
		at  simtime.Time
		id  int
		now simtime.Time
	}
	drive := func(name string) []step {
		k, err := NewNamed(name)
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(4242)
		var got []step
		id := 0
		scheduleBurst := func(n int) {
			for i := 0; i < n; i++ {
				// A mix of clustered instants (forcing same-bucket,
				// same-instant collisions), spread instants, and far-future
				// outliers (forcing the calendar's overflow area).
				var at simtime.Time
				switch r.Intn(10) {
				case 0:
					at = k.Now() // same-instant burst
				case 1:
					at = k.Now().Add(simtime.Duration(1000 + r.Float64()*1e6)) // far future
				case 2:
					at = k.Now().Add(simtime.Duration(float64(r.Intn(20)))) // integer collisions
				default:
					at = k.Now().Add(simtime.Duration(r.Float64() * 50))
				}
				myID := id
				id++
				k.AtFunc(at, func() { got = append(got, step{at, myID, k.Now()}) })
			}
		}
		scheduleBurst(500)
		for phase := 0; phase < 20; phase++ {
			// Run a bounded slice of the schedule, then add to it again, so
			// rebuilds trigger at varied points.
			for i := 0; i < 100 && k.Step(); i++ {
			}
			scheduleBurst(200)
		}
		if err := k.Run(simtime.Forever, 0); err != nil {
			t.Fatal(err)
		}
		return got
	}

	heapSeq := drive(SchedulerHeap)
	calSeq := drive(SchedulerCalendar)
	if len(heapSeq) != len(calSeq) {
		t.Fatalf("heap ran %d events, calendar %d", len(heapSeq), len(calSeq))
	}
	for i := range heapSeq {
		if heapSeq[i] != calSeq[i] {
			t.Fatalf("execution diverged at event %d: heap %+v, calendar %+v", i, heapSeq[i], calSeq[i])
		}
	}
}

// TestCalendarSimtimeExtremes rotates the wheel across wildly mixed
// magnitudes — sub-width gaps, instants far beyond any sane wheel horizon,
// and the largest finite times float64 can hold — and checks exact
// ordering survives. This is where naive year/bucket arithmetic overflows
// or collapses to NaN.
func TestCalendarSimtimeExtremes(t *testing.T) {
	times := []simtime.Time{
		0, 1e-12, 1e-9, 0.5, 1, 2, 63, 64, 65, 1000,
		1e6, 1e6 + 1e-6, 1e9, 1e15, 1e18, 1e30, 1e100,
		1e300, math.MaxFloat64 / 8, math.MaxFloat64 / 4,
	}
	k := newCalendarKernel(t)
	var got []simtime.Time
	// Schedule in a fixed scrambled order so insertion is non-monotone.
	perm := []int{7, 0, 19, 3, 11, 15, 1, 18, 5, 9, 13, 2, 17, 4, 10, 6, 16, 8, 12, 14}
	for _, i := range perm {
		at := times[i]
		k.AtFunc(at, func() { got = append(got, at) })
	}
	if err := k.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(times) {
		t.Fatalf("ran %d events, want %d", len(got), len(times))
	}
	for i := range times {
		if got[i] != times[i] {
			t.Fatalf("order diverged at %d: got %v, want %v", i, got[i], times[i])
		}
	}
	if k.Now() != math.MaxFloat64/4 {
		t.Fatalf("final time = %v, want MaxFloat64/4", k.Now())
	}
	// The wheel must keep rotating after the far jump: a fresh near-term
	// schedule relative to the new now still works.
	fired := false
	k.AtFunc(k.Now(), func() { fired = true })
	if err := k.Run(simtime.Forever, 0); err != nil || !fired {
		t.Fatalf("post-extreme scheduling broken: err=%v fired=%v", err, fired)
	}
}

// TestCalendarMarchingTimerAllocations pins the small-rebuild path: a lone
// self-rescheduling timer walking far past the wheel horizon (the tick-loop
// shape that dominates large runs) must not allocate per event, even
// though every firing exhausts the wheel and forces a re-anchor.
func TestCalendarMarchingTimerAllocations(t *testing.T) {
	k := newCalendarKernel(t)
	fn := func() {}
	for i := 0; i < 128; i++ { // warm slices
		k.AfterFunc(1000, fn)
	}
	if err := k.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		k.AfterFunc(1000, fn) // 1000 ≫ width·buckets: always beyond the horizon
		if err := k.Run(simtime.Forever, 0); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("marching AfterFunc+Run allocates %g objects per event, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		k.AtFunc(k.Now(), fn)
		if err := k.Run(simtime.Forever, 0); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("same-instant AtFunc+Run allocates %g objects per event, want 0", avg)
	}
}

// TestCalendarSameInstantFIFO pins the sorted-bucket fast path: a large
// burst of events at one instant (synchronized tick timers) must run in
// schedule order, and a second burst scheduled from inside the first must
// run after it, exactly as on the heap.
func TestCalendarSameInstantFIFO(t *testing.T) {
	for _, name := range SchedulerNames() {
		k, err := NewNamed(name)
		if err != nil {
			t.Fatal(err)
		}
		const n = 20_000
		var got []int
		at := simtime.Time(7)
		for i := 0; i < n; i++ {
			i := i
			k.AtFunc(at, func() {
				got = append(got, i)
				if i < 100 {
					k.AtFunc(at, func() { got = append(got, n+i) }) // reentrant same-instant
				}
			})
		}
		if err := k.Run(simtime.Forever, 0); err != nil {
			t.Fatal(err)
		}
		if len(got) != n+100 {
			t.Fatalf("%s: ran %d events, want %d", name, len(got), n+100)
		}
		for i := 0; i < n; i++ {
			if got[i] != i {
				t.Fatalf("%s: position %d ran event %d, want FIFO order", name, i, got[i])
			}
		}
		for i := 0; i < 100; i++ {
			if got[n+i] != n+i {
				t.Fatalf("%s: reentrant event order broken at %d: got %d", name, i, got[n+i])
			}
		}
	}
}

// TestCalendarPendingQueueLenInvariants walks a mixed workload — wheel and
// overflow placements, rebuilds — and checks after every operation that the
// wheel and the overflow together hold exactly the events still pending.
func TestCalendarPendingQueueLenInvariants(t *testing.T) {
	k := newCalendarKernel(t)
	r := rng.New(7)
	c := k.sched.(*calendarScheduler)
	want := 0
	check := func(ctx string) {
		t.Helper()
		if got := c.pending(); got != want || pending(k) != want {
			t.Fatalf("%s: the calendar holds %d, the kernel counts %d pending, want %d", ctx, got, pending(k), want)
		}
	}
	for i := 0; i < 3000; i++ {
		if r.Bool(0.6) { // net growth, so the wheel resizes along the way
			want++
			k.AtFunc(k.Now().Add(simtime.Duration(r.Float64()*300)), func() { want-- })
		} else {
			k.Step()
		}
		check("op")
	}
	if err := k.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	check("drained")
}

// TestErrMaxEventsTyped pins the livelock guard's error identity on both
// schedulers: the wrapped error matches ErrMaxEvents via errors.Is, carries
// the budget in its text, and is distinct from ErrStopped.
func TestErrMaxEventsTyped(t *testing.T) {
	for _, name := range SchedulerNames() {
		k, err := NewNamed(name)
		if err != nil {
			t.Fatal(err)
		}
		var tick func()
		tick = func() { k.AtFunc(k.Now(), tick) } // classic livelock: no time progress
		k.AtFunc(0, tick)
		err = k.Run(simtime.Forever, 100)
		if !errors.Is(err, ErrMaxEvents) {
			t.Fatalf("%s: Run = %v, want errors.Is(_, ErrMaxEvents)", name, err)
		}
		if errors.Is(err, ErrStopped) {
			t.Fatalf("%s: livelock error also matches ErrStopped", name)
		}
		if k.Executed() != 100 {
			t.Fatalf("%s: executed %d events before tripping, want exactly the budget", name, k.Executed())
		}
	}
}
