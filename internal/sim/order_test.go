package sim

import (
	"bytes"
	"cmp"
	"errors"
	"math"
	"slices"
	"testing"

	"abenet/internal/rng"
	"abenet/internal/simtime"
)

// The order oracle: a byte program of schedule and run operations executes
// on a kernel while a reference list, kept sorted by (at, seq), predicts
// which event must run next and how many are pending. It knows nothing of
// heaps, runs or buckets, so it holds every scheduler to the one contract
// the golden pins rest on. FuzzSchedulerOrder explores programs; the table
// below is its seed corpus and runs under plain `go test`.

// Program layout: byte 0 is the opening reservation (odd: Reserve(b>>1 % 24),
// the heap scheduler's run slots, small so the run fills and spills; even:
// none), then (op, arg) byte pairs.
const (
	opEqual      = iota // schedule on the last scheduled instant
	opAscend            // schedule arg%8 half-units above the last scheduled instant
	opDescend           // schedule 1+arg%8 half-units below it (not before now)
	opRandom            // schedule arg quarter-units from now
	opSpawner           // schedule an event arg%16 half-units from now whose handler schedules arg>>4%4 events at Now() and one a unit later
	opStep              // Step
	opStepWithin        // StepWithin(now + arg%8 half-units)
	opRun               // Run to now + arg%16 half-units: may leave events pending, later ops resume
	opReserve           // Reserve(arg%32) mid-flight, with events pending
	opArg               // schedule arg quarter-units from now on the registered handler (AtArg)
	opSelf              // schedule a closure arg%16 half-units from now that, the first time it runs, reschedules itself half a unit later and schedules 1+arg>>4%4 others at Now(), AtArg and AtFunc alternating
	opNegZero           // schedule at −0 while the clock stands at zero (at now once it has moved)
	opSegment           // RunSegment to now + arg%16 half-units with a budget of arg>>6 events (0: none), pausing after 1+arg>>4%4 events or after the first event at or after now + arg>>2%8 half-units
	opCount
)

const maxOrderProgram = 1024 // bytes of a program that are executed

// refEvent is the reference's view of a scheduled event; seq, the kernel's
// insertion sequence, doubles as its identity.
type refEvent struct {
	at  simtime.Time
	seq uint64
}

func refCompare(a, b refEvent) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// runOrderProgram executes prog on the named scheduler, failing t at the
// first event that runs out of (at, seq) order, the first wrong pending count,
// and the first horizon that is overrun or undershot. It returns the events'
// seqs in execution order.
func runOrderProgram(t *testing.T, name string, prog []byte) []uint64 {
	t.Helper()
	k, err := NewNamed(name)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog) > maxOrderProgram {
		prog = prog[:maxOrderProgram]
	}
	var (
		ref   []refEvent // pending events, sorted by (at, seq)
		most  int        // the most events ever pending at once
		order []uint64
		times []simtime.Time // the instants of order's events
		last  simtime.Time   // last instant scheduled from the program
	)
	checkPending := func(when string) {
		t.Helper()
		if pending(k) != len(ref) {
			t.Fatalf("%s: %s: pending = %d, reference holds %d", name, when, pending(k), len(ref))
		}
	}
	// note files the event the next kernel call is about to schedule; ran
	// is what every handler does first.
	note := func(at simtime.Time) refEvent {
		ev := refEvent{at: at, seq: k.ScheduleSeq()}
		i, _ := slices.BinarySearchFunc(ref, ev, refCompare)
		ref = slices.Insert(ref, i, ev)
		most = max(most, len(ref))
		return ev
	}
	ran := func(ev refEvent) {
		if len(ref) == 0 || ref[0] != ev {
			t.Fatalf("%s: %+v ran after %d events, reference expects %+v", name, ev, len(order), ref)
		}
		if k.Now() != ev.at || k.EventSeq() != ev.seq {
			t.Fatalf("%s: %+v ran at %v as event %d", name, ev, k.Now(), k.EventSeq())
		}
		ref = ref[1:]
		order = append(order, ev.seq)
		times = append(times, ev.at)
		checkPending("inside a handler")
	}
	var schedule func(at simtime.Time, spawn int)
	schedule = func(at simtime.Time, spawn int) {
		ev := note(at)
		k.AtFunc(at, func() {
			ran(ev)
			for c := 0; c < spawn; c++ {
				schedule(k.Now(), 0)
			}
			if spawn > 0 {
				schedule(k.Now().Add(1), 0)
			}
		})
		checkPending("after a schedule")
	}
	var byArg []refEvent // events on the registered handler, by their argument
	handler := k.Register(func(arg uint32) { ran(byArg[arg]) })
	scheduleArg := func(at simtime.Time) {
		byArg = append(byArg, note(at))
		k.AtArg(at, handler, uint32(len(byArg)-1))
		checkPending("after a schedule")
	}
	scheduleSelf := func(at simtime.Time, others int) {
		ev, again := note(at), true
		var self Handler
		self = func() {
			ran(ev)
			if !again {
				return
			}
			again = false
			ev = note(k.Now().Add(0.5))
			k.AtFunc(ev.at, self) // into the slot it ran from
			for c := 0; c < others; c++ {
				if c%2 == 0 {
					scheduleArg(k.Now())
				} else {
					schedule(k.Now(), 0)
				}
			}
		}
		k.AtFunc(at, self)
		checkPending("after a schedule")
	}
	half := func(b byte) simtime.Duration { return simtime.Duration(b) / 2 }
	// halted checks a drive that stopped at a horizon (never in the past
	// here): nothing at or below it is left, and the clock stands on it if
	// anything is left at all.
	halted := func(what string, horizon simtime.Time) {
		t.Helper()
		if len(ref) > 0 && (!ref[0].at.After(horizon) || k.Now() != horizon) {
			t.Fatalf("%s: %s to %v stopped at %v with %+v pending", name, what, horizon, k.Now(), ref[0])
		}
		if k.Now().After(horizon) {
			t.Fatalf("%s: %s to %v ran the clock to %v", name, what, horizon, k.Now())
		}
	}

	if len(prog) > 0 && prog[0]&1 == 1 {
		k.Reserve(int(prog[0]>>1) % 24)
	}
	for i := 1; i+1 < len(prog); i += 2 {
		arg := prog[i+1]
		now := k.Now()
		if last.Before(now) {
			last = now
		}
		switch prog[i] % opCount {
		case opEqual:
			schedule(last, 0)
		case opAscend:
			last = last.Add(half(arg % 8))
			schedule(last, 0)
		case opDescend:
			last = last.Add(-half(1 + arg%8))
			if last.Before(now) {
				last = now
			}
			schedule(last, 0)
		case opRandom:
			last = now.Add(simtime.Duration(arg) / 4)
			schedule(last, 0)
		case opSpawner:
			last = now.Add(half(arg % 16))
			schedule(last, 1+int(arg>>4)%4)
		case opStep:
			ran, want := len(order), btoi(len(ref) > 0)
			if btoi(k.Step()) != want || len(order)-ran != want {
				t.Fatalf("%s: Step ran %d events, want %d", name, len(order)-ran, want)
			}
		case opStepWithin:
			horizon, ran := now.Add(half(arg%8)), len(order)
			want := btoi(len(ref) > 0 && !ref[0].at.After(horizon))
			if btoi(k.StepWithin(horizon)) != want || len(order)-ran != want {
				t.Fatalf("%s: StepWithin(%v) ran %d events, want %d", name, horizon, len(order)-ran, want)
			}
			if want == 0 {
				halted("StepWithin", horizon)
			}
		case opRun:
			horizon := now.Add(half(arg % 16))
			if err := k.Run(horizon, 0); err != nil {
				t.Fatal(err)
			}
			halted("Run", horizon)
		case opSegment:
			horizon, budget, from := now.Add(half(arg%16)), uint64(arg>>6), k.Executed()
			pause := Pause{Events: from + 1 + uint64(arg>>4%4), At: now.Add(half(arg >> 2 % 8))}
			start := len(order)
			paused, err := k.RunSegment(horizon, budget, from, pause)
			// due says whether the i-th event of the program reached the pause.
			due := func(i int) bool { return from+uint64(i-start)+1 == pause.Events || !times[i].Before(pause.At) }
			for i := start; i+1 < len(order); i++ {
				if due(i) {
					t.Fatalf("%s: RunSegment(%v, %d, %+v) went on past event %d at %v", name, horizon, budget, pause, i-start+1, times[i])
				}
			}
			ran := len(order) - start
			switch {
			case paused:
				if err != nil || ran == 0 || !due(len(order)-1) {
					t.Fatalf("%s: RunSegment(%v, %d, %+v) paused after %d events with %v", name, horizon, budget, pause, ran, err)
				}
			case ran > 0 && due(len(order)-1):
				t.Fatalf("%s: RunSegment(%v, %d, %+v) ran into its pause and did not pause", name, horizon, budget, pause)
			case errors.Is(err, ErrMaxEvents):
				if uint64(ran) != budget || len(ref) == 0 || ref[0].at.After(horizon) {
					t.Fatalf("%s: RunSegment(%v, %d, %+v) ran %d events and failed: %v", name, horizon, budget, pause, ran, err)
				}
			case err != nil:
				t.Fatal(err)
			default:
				if budget > 0 && uint64(ran) > budget {
					t.Fatalf("%s: RunSegment(%v, %d, %+v) ran %d events", name, horizon, budget, pause, ran)
				}
				halted("RunSegment", horizon)
			}
		case opReserve:
			k.Reserve(int(arg) % 32)
		case opArg:
			last = now.Add(simtime.Duration(arg) / 4)
			scheduleArg(last)
		case opSelf:
			last = now.Add(half(arg % 16))
			scheduleSelf(last, 1+int(arg>>4)%4)
		case opNegZero:
			if last = now; now == 0 {
				last = simtime.Time(math.Copysign(0, -1))
			}
			schedule(last, 0)
		}
		checkPending("after an op")
	}
	if err := k.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	if len(ref) != 0 || pending(k) != 0 {
		t.Fatalf("%s: drained with %d in the reference and %d pending", name, len(ref), pending(k))
	}
	if uint64(len(order)) != k.Executed() || uint64(len(order)) != k.ScheduleSeq() {
		t.Fatalf("%s: %d events ran, Executed() = %d, %d scheduled", name, len(order), k.Executed(), k.ScheduleSeq())
	}
	// Every closure slot is vacant and on the free list again, and slots were
	// reused: there are no more of them than events were ever pending at once.
	if len(k.freeSlot) != len(k.closures) || len(k.closures) > most {
		t.Fatalf("%s: drained with %d closure slots, %d of them free; at most %d events were pending",
			name, len(k.closures), len(k.freeSlot), most)
	}
	for slot, fn := range k.closures {
		if fn != nil {
			t.Fatalf("%s: closure slot %d still holds its closure after the drain", name, slot)
		}
	}
	return order
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// checkOrderProgram runs prog on every scheduler and requires the same
// execution order from all of them.
func checkOrderProgram(t *testing.T, prog []byte) {
	t.Helper()
	var first []uint64
	for i, name := range SchedulerNames() {
		order := runOrderProgram(t, name, prog)
		if i == 0 {
			first = order
		} else if !slices.Equal(order, first) {
			t.Fatalf("%s and %s disagree:\n%v\n%v", SchedulerNames()[0], name, first, order)
		}
	}
}

// reserve is byte 0 of a program that opens with Reserve(n), n < 24.
func reserve(n int) byte { return byte(n<<1 | 1) }

// orderPrograms is the seed corpus. Reserve(n) gives the heap scheduler a run
// of n slots and leaves its heap to grow by append; Reserve(0) sends every
// event to the heap.
var orderPrograms = []struct {
	name string
	prog []byte
}{
	{"empty", nil},
	{"one instant, unreserved", []byte{0, opEqual, 0, opEqual, 0, opEqual, 0, opEqual, 0, opStep, 0, opEqual, 0}},
	{"ascending then descending", []byte{0, opAscend, 1, opAscend, 2, opAscend, 0, opDescend, 0, opDescend, 3, opStep, 0, opAscend, 1}},
	// Run slot 1: A@7 takes it, B@7 spills into the heap with the lower
	// seq of the two that will share the instant; A pops; C@7 enters the
	// empty run. B (heap, seq 1) must run before C (run, seq 2).
	{"same instant, heap seq lower", []byte{reserve(1), opRandom, 28, opEqual, 0, opStep, 0, opEqual, 0}},
	// A@5, B@9 in the run; C@7 is below the run's newest instant while the
	// run is non-empty and takes the heap; order A, C, B.
	{"below the tail of a non-empty run", []byte{0, opRandom, 20, opRandom, 36, opRandom, 28, opRandom, 28}},
	{"run fills and spills", []byte{reserve(3), opAscend, 1, opAscend, 1, opAscend, 1, opAscend, 1, opAscend, 0, opEqual, 0, opStep, 0, opStep, 0, opAscend, 1, opEqual, 0}},
	{"no run slots at all", []byte{reserve(0), opAscend, 1, opAscend, 1, opEqual, 0, opDescend, 1}},
	{"horizon leaves events in both lanes, then resumes", []byte{reserve(4), opRandom, 8, opRandom, 40, opRandom, 24, opRandom, 60, opRandom, 12, opRun, 7, opRandom, 4, opAscend, 2, opRun, 3, opStepWithin, 1, opStepWithin, 7}},
	{"handlers schedule at Now()", []byte{0, opSpawner, 0x32, opSpawner, 0x10, opEqual, 0, opRandom, 3, opSpawner, 0x21, opRun, 2, opSpawner, 0x30}},
	{"reserve over a wrapped ring", []byte{reserve(4), opAscend, 1, opAscend, 1, opAscend, 1, opStep, 0, opStep, 0, opAscend, 1, opAscend, 1, opAscend, 1, opReserve, 10, opAscend, 1, opDescend, 2, opReserve, 1, opAscend, 1}},
	// The unreserved run starts at 16 slots: two in, one out moves its head
	// off slot 0, twenty more wrap it, fill it and double it.
	{"unreserved run grows while wrapped", slices.Concat([]byte{0, opAscend, 1, opAscend, 1, opStep, 0}, bytes.Repeat([]byte{opAscend, 1}, 20))},
	// Reserve(0) leaves the run no slot, so from here on everything is in
	// the heap. An early root over five events on one later instant; popping
	// the root moves the fifth (highest seq) in front of its former uncles,
	// and the next pop's sibling tournament is between four entries on one
	// instant whose seqs are not in index order.
	{"four siblings on one instant", slices.Concat([]byte{reserve(0), opRandom, 4, opRandom, 32}, bytes.Repeat([]byte{opEqual, 0}, 4), []byte{opStep, 0, opEqual, 0})},
	// −0 equals +0 but has the largest bit pattern of any instant: +0 and −0
	// alternating around a full sibling group run in schedule order only if
	// the kernel stores one zero.
	{"negative zero at time zero", slices.Concat([]byte{reserve(0)}, bytes.Repeat([]byte{opRandom, 0, opNegZero, 0}, 4), []byte{opStep, 0, opNegZero, 0, opRandom, 6, opNegZero, 0})},
	{"closures reschedule themselves among handler events", slices.Concat([]byte{0}, selfRescheduling)},
	{"closures reschedule themselves, heap only", slices.Concat([]byte{reserve(0)}, selfRescheduling)},
	// Events at 1, 2, …, 8, run in segments: paused by the instant (after
	// two events, the first at or after 1.5), stopped by a spent budget with
	// the next event due, halted at a horizon before the pause, paused by
	// the event count; then handlers schedule into a segment.
	{"run in segments", slices.Concat([]byte{0}, bytes.Repeat([]byte{opAscend, 2}, 8),
		[]byte{opSegment, 0x2f, opSegment, 0x7f, opSegment, 0x33, opSegment, 0x0f, opSpawner, 0x31, opSegment, 0x3f})},
}

// selfRescheduling is the body of a program in which closures that reschedule
// themselves (and one to four others) from inside their own handlers
// interleave with events on the registered handler.
var selfRescheduling = []byte{opSelf, 0x32, opArg, 3, opSelf, 0x01, opArg, 0, opRandom, 2, opSelf, 0x13, opRun, 3, opArg, 1, opSelf, 0x22, opStep, 0, opSelf, 0x30, opArg, 2}

// heapSizePrograms fill the heap lane alone to each size that gives the pop
// a different last sibling group — none, one to three children of the root,
// a full group, one to four grandchildren, the first great-grandchildren —
// half by closure and half by handler, drain half of it, push two more and
// leave the rest to the final run, so every size below is popped from too.
func heapSizePrograms() [][]byte {
	var out [][]byte
	for _, size := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 21, 22, 25} {
		prog := []byte{reserve(0)}
		for i := 0; i < size; i++ {
			switch at := byte(i*7%11*4 + 4); i % 3 {
			case 0:
				prog = append(prog, opRandom, at)
			case 1:
				prog = append(prog, opArg, at)
			default:
				prog = append(prog, opEqual, 0)
			}
		}
		prog = append(prog, bytes.Repeat([]byte{opStep, 0}, size/2)...)
		out = append(out, append(prog, opRandom, 9, opArg, 1))
	}
	return out
}

// generatedOrderPrograms is the part of the seed corpus that is computed.
func generatedOrderPrograms() [][]byte {
	return slices.Concat(randomOrderPrograms(), heapSizePrograms())
}

// randomOrderPrograms are longer pseudo-random programs, one opening with a
// reservation and one without, for each of a few seeds.
func randomOrderPrograms() [][]byte {
	var out [][]byte
	for seed := uint64(1); seed <= 4; seed++ {
		r := rng.New(seed)
		for _, open := range []byte{0, reserve(int(seed) * 2)} {
			prog := []byte{open}
			for i := 0; i < 300; i++ {
				prog = append(prog, byte(r.Intn(opCount)), byte(r.Intn(256)))
			}
			out = append(out, prog)
		}
	}
	return out
}

// TestSchedulerOrderCorpus runs the seed corpus deterministically.
func TestSchedulerOrderCorpus(t *testing.T) {
	for _, p := range orderPrograms {
		t.Run(p.name, func(t *testing.T) { checkOrderProgram(t, p.prog) })
	}
	for _, prog := range generatedOrderPrograms() {
		checkOrderProgram(t, prog)
	}
}

// TestRunAndHeapShareAnInstant pins the lane structure behind the two corpus
// cases that matter most, so they keep testing what they say they test.
func TestRunAndHeapShareAnInstant(t *testing.T) {
	k := New()
	h := k.sched.(*heapScheduler)
	var got []int
	at := func(at simtime.Time, id int) { k.AtFunc(at, func() { got = append(got, id) }) }

	k.Reserve(1) // one run slot
	at(7, 0)     // run
	at(7, 1)     // run full: heap
	k.Step()
	at(7, 2) // run again, behind the heap's event on the same instant
	if h.n != 1 || len(h.heap) != 1 || h.run[h.head].seq <= h.heap[0].seq || h.run[h.head].at != h.heap[0].at {
		t.Fatalf("want one event per lane on one instant with the heap's seq lower; run %d, heap %d", h.n, len(h.heap))
	}
	if err := k.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}

	k = New()
	h = k.sched.(*heapScheduler)
	at(15, 3)
	at(19, 4)
	at(17, 5) // below the run's newest instant, run non-empty: heap
	if h.n != 2 || len(h.heap) != 1 {
		t.Fatalf("want two events in the run and one in the heap; run %d, heap %d", h.n, len(h.heap))
	}
	if err := k.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2, 3, 5, 4}; !slices.Equal(got, want) {
		t.Fatalf("executed %v, want %v", got, want)
	}
}

// FuzzSchedulerOrder: any program executes in reference (at, seq) order with
// a correct pending count throughout, identically on every scheduler.
func FuzzSchedulerOrder(f *testing.F) {
	for _, p := range orderPrograms {
		f.Add(p.prog)
	}
	for _, prog := range generatedOrderPrograms() {
		f.Add(prog)
	}
	f.Fuzz(checkOrderProgram)
}
