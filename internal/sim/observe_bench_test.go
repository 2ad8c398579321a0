package sim

import (
	"testing"

	"abenet/internal/rng"
	"abenet/internal/simtime"
)

// The observer-overhead pair: the same self-rescheduling tick chain as
// BenchmarkScheduleRun, run with the post-event hook detached and attached. CI compares the two ns/op numbers and fails the build if
// the attached run costs more than a few percent — the hook is one nil
// check per event when detached and one indirect call plus a handful of
// counter reads when attached, so any real gap is a regression in the
// kernel hot path.

// observeWorkload is the shared workload; the observer (nil to detach)
// mimics a probe read: it touches the kernel's public counters and stores
// into a preallocated buffer, like probe.Collector's gauge sweep.
func observeWorkload(b *testing.B, attach bool) {
	var sink [4]float64
	for i := 0; i < b.N; i++ {
		k := New()
		if attach {
			k.SetObserver(func() {
				sink[0] = float64(k.Executed())
				sink[1] = float64(k.Now())
				sink[2] = float64(k.Pending())
				sink[3]++
			})
		}
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
	if attach && sink[3] == 0 {
		b.Fatal("observer never fired")
	}
}

// BenchmarkObserverDetached is the baseline leg of the pair.
func BenchmarkObserverDetached(b *testing.B) { observeWorkload(b, false) }

// BenchmarkObserverAttached is the observed leg of the pair.
func BenchmarkObserverAttached(b *testing.B) { observeWorkload(b, true) }
