package sim

import (
	"testing"

	"abenet/internal/rng"
	"abenet/internal/simtime"
)

// The kernel's microbenchmark suite: schedule/run mixes. Run with
// -benchmem — scheduling allocates nothing per event (see the alloc pins in
// TestSchedulingAllocations for the hard contract).

// BenchmarkScheduleRun is a self-rescheduling tick chain via
// AfterFunc, the shape of every tick loop and message delivery in the
// repository.
func BenchmarkScheduleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := New()
		r := rng.New(uint64(i))
		var tick func()
		remaining := 1000
		tick = func() {
			remaining--
			if remaining > 0 {
				k.AfterFunc(simtime.Duration(r.ExpFloat64()), tick)
			}
		}
		k.AtFunc(0, tick)
		if err := k.Run(simtime.Forever, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduleBurstDrain schedules 1000 events up front (the network
// wiring / fault-timeline shape) and drains them.
func BenchmarkScheduleBurstDrain(b *testing.B) {
	fn := func() {}
	for i := 0; i < b.N; i++ {
		k := New()
		r := rng.New(uint64(i))
		for j := 0; j < 1000; j++ {
			k.AtFunc(simtime.Time(r.Float64()*1000), fn)
		}
		if err := k.Run(simtime.Forever, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHold is the classic hold model on the three pending-set shapes
// of the repo benchmark's simulator workloads (benchmark/workloads.go), on
// both schedulers, reserved the way network.New reserves (one run slot per
// node, the heap left to grow): prefill, then each op pops the earliest event and pushes it back
// one increment later. ns/op is nanoseconds per pop+push — the same
// quantity as the benchmark's sim.hold_ns.* probes, readable without its
// traced pass. Those probes schedule closures (AtFunc); a delivered message
// is an AtArg event on a registered handler and never touches the closure
// table, so the all-message shape is also run through that door.
func BenchmarkHold(b *testing.B) {
	shapes := []struct {
		name    string
		nodes   int     // what network.New would reserve for: Reserve(nodes)
		pending int     // events held
		period  float64 // fixed increment, all starting on one instant; 0 = exponential(1)
		atArg   bool    // schedule by handler id instead of by closure
	}{
		{"dense-1024-period-1", 1024, 1024, 1, false},
		{"benor-4032-exponential", 64, 4032, 0, false},
		{"benor-4032-exponential-atarg", 64, 4032, 0, true},
		{"sparse-100000-period-n", 100_000, 100_000, 100_000, false},
	}
	for _, s := range shapes {
		for _, name := range SchedulerNames() {
			b.Run(s.name+"/"+name, func(b *testing.B) {
				k, err := NewNamed(name)
				if err != nil {
					b.Fatal(err)
				}
				k.Reserve(s.nodes)
				r := rng.New(1)
				inc := func() simtime.Duration {
					if s.period == 0 {
						return simtime.Duration(r.ExpFloat64())
					}
					return simtime.Duration(s.period)
				}
				// hold(at) schedules one event that reschedules itself one
				// increment later whenever it runs.
				var hold func(at simtime.Time)
				if s.atArg {
					var id HandlerID
					id = k.Register(func(uint32) { k.AtArg(k.Now().Add(inc()), id, 0) })
					hold = func(at simtime.Time) { k.AtArg(at, id, 0) }
				} else {
					var again Handler
					again = func() { k.AfterFunc(inc(), again) }
					hold = func(at simtime.Time) { k.AtFunc(at, again) }
				}
				for i := 0; i < s.pending; i++ {
					hold(simtime.Time(inc()))
				}
				for i := 0; i < 2*s.pending; i++ { // reach the steady shape
					k.Step()
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					k.Step()
				}
			})
		}
	}
}
