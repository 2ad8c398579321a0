package spec

import (
	"errors"
	"testing"

	"abenet/internal/runner"
)

// TestRoundTripTrace: the codec identity holds for a traced spec, the
// decoded spec builds the trace config the JSON describes, and — the cache
// soundness pin — the trace block never changes the scenario hash.
func TestRoundTripTrace(t *testing.T) {
	s := &Spec{
		Version: Version,
		Env: EnvSpec{
			N:     8,
			Seed:  1,
			Trace: &TraceSpec{MaxEvents: 5000},
		},
		Protocol: protoSpec(t, runner.Election{}),
	}
	roundTrip(t, s)

	env, err := s.BuildEnv()
	if err != nil {
		t.Fatal(err)
	}
	if env.Trace == nil || env.Trace.MaxEvents != 5000 {
		t.Fatalf("built trace config = %+v", env.Trace)
	}

	// Tracing is excluded from scenario identity: a traced spec hashes
	// identically to the same spec without the block. (The serving layer
	// keys cached payloads on (hash, seed, trace fingerprint), so the
	// exclusion is safe there too — see service.traceKey.)
	plain := *s
	plain.Env.Trace = nil
	h1, _ := s.Hash()
	h2, _ := plain.Hash()
	if h1 != h2 {
		t.Fatalf("trace block changed the hash: %q vs %q", h1, h2)
	}
	x1, _ := s.ExecutionHash()
	x2, _ := plain.ExecutionHash()
	if x1 != x2 {
		t.Fatalf("trace block changed the execution hash: %q vs %q", x1, x2)
	}
}

// TestTraceValidation pins the decode-time rejections: a negative cap, a
// trace block on a protocol without a kernel event stream (the runner's
// typed rejection), and trace+sweep.
func TestTraceValidation(t *testing.T) {
	negative := &Spec{
		Version:  Version,
		Env:      EnvSpec{N: 8, Trace: &TraceSpec{MaxEvents: -1}},
		Protocol: protoSpec(t, runner.Election{}),
	}
	if err := negative.Validate(); err == nil {
		t.Fatal("negative trace cap accepted")
	}

	wrongProto := &Spec{
		Version:  Version,
		Env:      EnvSpec{N: 8, Trace: &TraceSpec{}},
		Protocol: protoSpec(t, runner.ItaiRodehSync{}),
	}
	if err := wrongProto.Validate(); !errors.Is(err, runner.ErrTraceUnsupported) {
		t.Fatalf("trace on a round-engine protocol: Validate = %v, want ErrTraceUnsupported", err)
	}

	withSweep := &Spec{
		Version:  Version,
		Env:      EnvSpec{Seed: 1, Trace: &TraceSpec{}},
		Protocol: protoSpec(t, runner.Election{}),
		Sweep:    &SweepSpec{Xs: []float64{8, 16}, Repetitions: 2},
	}
	if err := withSweep.Validate(); err == nil {
		t.Fatal("trace+sweep accepted")
	}
}

// TestTracedSpecRunCarriesTrace: the spec door returns the exported trace
// on the report, causally chained down to the decision event.
func TestTracedSpecRunCarriesTrace(t *testing.T) {
	s := &Spec{
		Version:  Version,
		Env:      EnvSpec{N: 6, Seed: 3, Trace: &TraceSpec{}},
		Protocol: protoSpec(t, runner.Election{}),
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trace == nil || len(rep.Trace.Events) == 0 {
		t.Fatal("traced spec run returned no trace")
	}
	if rep.Trace.Decision == 0 {
		t.Fatal("election trace has no decision event")
	}
}
