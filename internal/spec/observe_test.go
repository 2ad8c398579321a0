package spec

import (
	"testing"

	"abenet/internal/probe"
	"abenet/internal/runner"
)

// TestRoundTripObserve: the codec identity holds for an observed spec, the
// decoded spec builds the probe config the JSON describes, and — the cache
// soundness pin — the observe block never changes the scenario hash.
func TestRoundTripObserve(t *testing.T) {
	s := &Spec{
		Version: Version,
		Env: EnvSpec{
			N:       8,
			Seed:    1,
			Observe: &probe.Config{EveryEvents: 5, Interval: 0.5, MaxSamples: 1000},
		},
		Protocol: protoSpec(t, runner.Election{}),
	}
	roundTrip(t, s)

	env, err := s.BuildEnv()
	if err != nil {
		t.Fatal(err)
	}
	if env.Observe == nil || env.Observe.EveryEvents != 5 || env.Observe.Interval != 0.5 || env.Observe.MaxSamples != 1000 {
		t.Fatalf("built observe config = %+v", env.Observe)
	}
	// The env gets a copy: the service hangs a live Sink on it, and a spec
	// is shared (cache key, dedup) — the sink must never reach it.
	env.Observe.Sink = func([]string, probe.Sample) {}
	if s.Env.Observe.Sink != nil {
		t.Fatal("a Sink set on the built env landed on the spec")
	}

	// Observation is excluded from scenario identity: an observed spec
	// hashes identically to the same spec without the block. (The serving
	// layer keys cached payloads on (hash, seed, observe fingerprint), so
	// this exclusion is safe there too — see service.observeKey.)
	plain := *s
	plain.Env.Observe = nil
	h1, _ := s.Hash()
	h2, _ := plain.Hash()
	if h1 != h2 {
		t.Fatalf("observe block changed the hash: %q vs %q", h1, h2)
	}
	x1, _ := s.ExecutionHash()
	x2, _ := plain.ExecutionHash()
	if x1 != x2 {
		t.Fatalf("observe block changed the execution hash: %q vs %q", x1, x2)
	}
}

// TestObserveValidation pins the decode-time rejections — a cadence-less
// block and observe+sweep — and that an observe block on itai-rodeh-sync
// validates: every registered protocol runs on the kernel and samples.
func TestObserveValidation(t *testing.T) {
	noCadence := &Spec{
		Version:  Version,
		Env:      EnvSpec{N: 8, Observe: &probe.Config{MaxSamples: 10}},
		Protocol: protoSpec(t, runner.Election{}),
	}
	if err := noCadence.Validate(); err == nil {
		t.Fatal("cadence-less observe block accepted")
	}

	lockStep := &Spec{
		Version:  Version,
		Env:      EnvSpec{N: 8, Observe: &probe.Config{EveryEvents: 1}},
		Protocol: protoSpec(t, runner.ItaiRodehSync{}),
	}
	if err := lockStep.Validate(); err != nil {
		t.Fatalf("observe on itai-rodeh-sync: Validate = %v", err)
	}

	withSweep := &Spec{
		Version:  Version,
		Env:      EnvSpec{Seed: 1, Observe: &probe.Config{EveryEvents: 1}},
		Protocol: protoSpec(t, runner.Election{}),
		Sweep:    &SweepSpec{Xs: []float64{8, 16}, Repetitions: 2},
	}
	if err := withSweep.Validate(); err == nil {
		t.Fatal("observe+sweep accepted")
	}
}

// TestObservedSpecRunCarriesSeries: the spec door returns the sampled
// series on the report, like the engine door does.
func TestObservedSpecRunCarriesSeries(t *testing.T) {
	s := &Spec{
		Version:  Version,
		Env:      EnvSpec{N: 6, Seed: 3, Observe: &probe.Config{EveryEvents: 2}},
		Protocol: protoSpec(t, runner.Election{}),
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Series == nil || len(rep.Series.Samples) == 0 {
		t.Fatal("observed spec run returned no series")
	}
	if len(rep.Series.Names) == 0 || rep.Series.Names[0] != "in_flight" {
		t.Fatalf("series names = %v", rep.Series.Names)
	}
}
