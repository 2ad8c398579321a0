package core_test

import (
	"testing"
	"testing/quick"

	"abenet/internal/clock"
	"abenet/internal/core"
	"abenet/internal/dist"
	"abenet/internal/runner"
)

// TestConfigFuzz drives the election across a randomised corner of the
// configuration space — extreme A0, heavy tails, strong drift, slow
// processing — and requires the safety invariants to hold everywhere.
func TestConfigFuzz(t *testing.T) {
	delays := []func(mean float64) dist.Dist{
		func(m float64) dist.Dist { return dist.NewDeterministic(m) },
		func(m float64) dist.Dist { return dist.NewExponential(m) },
		func(m float64) dist.Dist { return dist.ParetoWithMean(m, 1.05) }, // near-infinite-mean tail
		func(m float64) dist.Dist { return dist.NewRetransmission(0.1, m/10) },
	}
	clocks := []clock.Model{
		nil,
		clock.NewUniformFixedModel(0.1, 10),
		clock.NewWanderingModel(0.01, 3, 0.2),
	}
	f := func(seed uint64, nRaw, a0Raw, dRaw, cRaw, gRaw uint8) bool {
		n := 2 + int(nRaw)%10
		mean := 0.05 + float64(dRaw)/32
		// Explore aggressiveness c in [0.1, 8] around the principled
		// A0 = c/(n²·δ) scaling. Arbitrary constant A0 with large δ·n²
		// makes the *expected* election time astronomically large (every
		// traversal is interfered with almost surely) — still safe and
		// terminating w.p. 1, but no finite event budget covers it.
		c := 0.1 + 7.9*float64(a0Raw)/255
		a0 := core.A0ForRing(n, mean, 1, c)
		var proc dist.Dist
		if gRaw%3 == 0 {
			proc = dist.NewExponential(0.2)
		}
		res, err := runElection(runner.Env{
			N:          n,
			Delay:      delays[int(dRaw)%len(delays)](mean),
			Clocks:     clocks[int(cRaw)%len(clocks)],
			Processing: proc,
			Seed:       seed,
			MaxEvents:  5_000_000,
		}, runner.Election{A0: a0})
		if err != nil {
			t.Logf("n=%d a0=%v: %v", n, a0, err)
			return false
		}
		return res.Leaders == 1 && len(res.Violations) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestTickIntervalScaling checks that halving the tick interval (with A0
// rescaled per A0ForRing) preserves correctness and roughly preserves the
// real-time behaviour — the tick grid is a simulation knob, not part of
// the model.
func TestTickIntervalScaling(t *testing.T) {
	const n = 32
	coarse := sampled(t, n, runner.Election{A0: core.A0ForRing(n, 1, 1, 1), TickInterval: 1}, 40)
	fine := sampled(t, n, runner.Election{A0: core.A0ForRing(n, 1, 0.5, 1), TickInterval: 0.5}, 40)
	if fine < coarse/2 || fine > coarse*2 {
		t.Fatalf("tick rescaling moved mean time from %v to %v", coarse, fine)
	}
}

// sampled runs p on a ring of size n over `runs` seeds and returns the mean
// election time.
func sampled(t *testing.T, n int, p runner.Election, runs int) float64 {
	t.Helper()
	total := 0.0
	for seed := 0; seed < runs; seed++ {
		res, err := runElection(runner.Env{N: n, Seed: uint64(seed)*104729 + 7}, p)
		if err != nil {
			t.Fatal(err)
		}
		if res.Leaders != 1 {
			t.Fatalf("seed %d: leaders = %d", seed, res.Leaders)
		}
		total += res.Time
	}
	return total / float64(runs)
}
