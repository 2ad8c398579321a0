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

// BenchmarkPending measures the O(1) pending counter against a large
// schedule.
func BenchmarkPending(b *testing.B) {
	k := New()
	fn := func() {}
	for j := 0; j < 10000; j++ {
		k.AtFunc(simtime.Time(1+j), fn)
	}
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		n += k.Pending()
	}
	if n == 0 {
		b.Fatal("pending count vanished")
	}
}
