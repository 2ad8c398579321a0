package runner

import (
	"testing"

	"abenet/internal/probe"
)

// The engine-level observed-vs-unobserved pair: a full election run with
// and without a per-event probe at the most aggressive cadence. Unlike the
// kernel pair in internal/sim (which isolates the hook itself), this
// measures the whole collection path — cadence check, gauge sweep,
// sample append — amortised over real protocol work.

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

// BenchmarkElectionUnobserved is the baseline leg.
func BenchmarkElectionUnobserved(b *testing.B) { benchElection(b, false) }

// BenchmarkElectionObserved samples every event — the worst case the
// probe layer supports.
func BenchmarkElectionObserved(b *testing.B) { benchElection(b, true) }
