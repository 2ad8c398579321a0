package runner

import (
	"math"
	"runtime/debug"
	"testing"

	"abenet/internal/allocbudget"
	"abenet/internal/probe"
)

// Observation benchmarks, in two pairs:
//
//   - ProbeDetached / ProbeAttached is the gated pair, shaped like the
//     tracer pair: the election on a 1,024-node ring kept running to a fixed
//     horizon — the paper's tick-timer workload, where an event costs least
//     and anything charged per event shows most — unobserved, and sampled
//     every 1,000 events. The kernel has no per-event hook: an observed run
//     goes in segments that pause where a sample is due, so the attached leg
//     pays per sample, and CI fails the build if it costs more than a few
//     percent over the detached one.
//
//   - ElectionUnobserved / ElectionObserved is the published pair: a small
//     election sampled after every single event, the most aggressive cadence
//     the probe supports — the whole collection path (a segment per event,
//     the gauge sweep, the sample append) amortised over real protocol work.
//     It shows the price of that cadence and is not gated.

// probeBenchEnv is the gated pair's run: seed i on a 1,024-node ring to
// horizon 512, about 5·10⁵ events.
func probeBenchEnv(i int) (Env, Election) {
	return Env{N: 1024, Seed: uint64(i), Horizon: 512}, Election{KeepRunning: true}
}

func benchProbe(b *testing.B, obs *probe.Config) {
	var samples int
	for i := 0; i < b.N; i++ {
		env, p := probeBenchEnv(i)
		env.Observe = obs
		rep, err := Run(env, p)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Leaders > 1 {
			b.Fatalf("leaders = %d", rep.Leaders)
		}
		if obs != nil {
			samples += len(rep.Series.Samples)
		}
	}
	if obs != nil && samples == 0 {
		b.Fatal("observed runs produced no samples")
	}
}

// BenchmarkProbeDetached is the baseline leg of the gated pair.
func BenchmarkProbeDetached(b *testing.B) { benchProbe(b, nil) }

// BenchmarkProbeAttached samples the same runs every 1,000 events.
func BenchmarkProbeAttached(b *testing.B) { benchProbe(b, &probe.Config{EveryEvents: 1000}) }

// TestProbeHookAllocations is the gated pair's signal that a loaded machine
// still resolves: heap objects per run, which do not depend on the clock. An
// observed run may cost the collector and its gauges — a constant — and the
// growth of its two sample slices, which double: O(log samples). Nothing per
// event or per sample: ten times the samples cost about 2·log₂ 10 ≈ 7 more
// growth steps, not thousands of objects.
func TestProbeHookAllocations(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run := func(obs *probe.Config) (objects float64, samples int) {
		seed := 0 // every leg averages over the same runs
		objects = testing.AllocsPerRun(3, func() {
			env, p := probeBenchEnv(seed)
			seed++
			env.Observe = obs
			rep, err := Run(env, p)
			if err != nil {
				t.Fatal(err)
			}
			if obs != nil {
				samples = len(rep.Series.Samples)
			}
		})
		return objects, samples
	}
	// growth is the most steps two doubling slices take to grow by a factor of x.
	growth := func(x float64) float64 { return 2 * math.Ceil(math.Log2(x)) }
	detached, _ := run(nil)
	sparse, few := run(&probe.Config{EveryEvents: 1000})
	dense, many := run(&probe.Config{EveryEvents: 100})
	t.Logf("objects per run: %.0f detached, %.0f with %d samples, %.0f with %d", detached, sparse, few, dense, many)
	fixed := 32.0 // the collector, its gauges and their tables
	if allocbudget.Race {
		fixed = 48
	}
	if budget := fixed + growth(float64(few)); sparse-detached > budget {
		t.Errorf("sampling %d times costs %.0f objects over %.0f detached, budget %.0f", few, sparse-detached, detached, budget)
	}
	if budget := 4 + growth(float64(many)/float64(few)); dense-sparse > budget {
		t.Errorf("%d samples cost %.0f objects more than %d, budget %.0f: something is allocated per sample", many, dense-sparse, few, budget)
	}
}

func benchElection(b *testing.B, obs bool) {
	var samples int
	for i := 0; i < b.N; i++ {
		env := Env{N: 32, Seed: uint64(i), Horizon: 1e6}
		if obs {
			env.Observe = &probe.Config{EveryEvents: 1}
		}
		rep, err := Run(env, Election{})
		if err != nil {
			b.Fatal(err)
		}
		if obs {
			samples += len(rep.Series.Samples)
		}
	}
	if obs && samples == 0 {
		b.Fatal("observed runs produced no samples")
	}
}

// BenchmarkElectionUnobserved is the baseline leg of the published pair.
func BenchmarkElectionUnobserved(b *testing.B) { benchElection(b, false) }

// BenchmarkElectionObserved samples every event — the worst case the
// probe layer supports.
func BenchmarkElectionObserved(b *testing.B) { benchElection(b, true) }
