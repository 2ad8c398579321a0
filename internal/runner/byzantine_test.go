package runner

import (
	"errors"
	"testing"

	"abenet/internal/byzantine"
	"abenet/internal/channel"
	"abenet/internal/dist"
	"abenet/internal/faults"
	"abenet/internal/simtime"
)

// TestByzantineMetadataMatchesEngines runs every registered protocol under
// an adversary plan and under the local-broadcast medium: each must either
// honour the environment (metadata says capable) or reject it with the
// matching typed sentinel — never silently report honest point-to-point
// numbers as adversarial measurements.
func TestByzantineMetadataMatchesEngines(t *testing.T) {
	for _, name := range Protocols() {
		info, _ := ProtocolInfo(name)

		p, _ := NewInstance(name)
		env := Env{N: 4, Seed: 1, Horizon: 2000, Byzantine: &byzantine.Plan{
			Roles: []byzantine.Role{{Node: 0, Behavior: byzantine.Mute, Prob: 0.5}},
		}}
		_, err := Run(env, p)
		switch {
		case info.SupportsByzantine && err != nil:
			t.Errorf("%s: metadata says byzantine supported, Run failed: %v", name, err)
		case !info.SupportsByzantine && !errors.Is(err, ErrByzantineUnsupported):
			t.Errorf("%s: metadata says no byzantine support, Run = %v, want ErrByzantineUnsupported", name, err)
		}

		p, _ = NewInstance(name)
		_, err = Run(Env{N: 4, Seed: 1, Horizon: 2000, LocalBroadcast: true}, p)
		switch {
		case info.SupportsBroadcast && err != nil:
			t.Errorf("%s: metadata says broadcast supported, Run failed: %v", name, err)
		case !info.SupportsBroadcast && !errors.Is(err, ErrBroadcastUnsupported):
			t.Errorf("%s: metadata says no broadcast support, Run = %v, want ErrBroadcastUnsupported", name, err)
		}
	}
}

// TestBenOrThroughRegistry drives the consensus protocol exactly as the
// serving layer would: by name, with decoded options, on an adversarial
// environment — and checks the consensus verdict surfaces in Extra and
// Metrics.
func TestBenOrThroughRegistry(t *testing.T) {
	rep, err := Run(Env{
		N:              8,
		Seed:           3,
		Horizon:        simtime.Time(10_000),
		Byzantine:      byzantine.Equivocators(1),
		LocalBroadcast: true,
	}, BenOr{F: 1, Init: "half", Coin: "common"})
	if err != nil {
		t.Fatal(err)
	}
	x, ok := rep.Extra.(ConsensusExtra)
	if !ok {
		t.Fatalf("Extra = %T, want ConsensusExtra", rep.Extra)
	}
	if !x.Agreement || !x.Validity || !x.Termination {
		t.Fatalf("consensus failed under one equivocator: %+v (violations %v)", x, rep.Violations)
	}
	if x.Honest != 7 || x.Decided != 7 {
		t.Fatalf("honest/decided = %d/%d, want 7/7", x.Honest, x.Decided)
	}
	if rep.Faults == nil || rep.Faults.Byzantine == nil {
		t.Fatal("report carries no byzantine telemetry")
	}
	// The broadcast medium defeats equivocation: only corruptions remain.
	if rep.Faults.Byzantine.Equivocations != 0 || rep.Faults.Byzantine.Corruptions == 0 {
		t.Fatalf("broadcast telemetry = %+v, want corruptions only", rep.Faults.Byzantine)
	}
	m := rep.Metrics()
	for _, key := range []string{"agreement", "validity", "termination", "decided",
		"coin_flips", "byz_corruptions", "byz_equivocations"} {
		if _, ok := m[key]; !ok {
			t.Errorf("metrics missing %q: %v", key, m)
		}
	}
	if m["agreement"] != 1 || m["termination"] != 1 {
		t.Fatalf("metric verdicts = agreement %g, termination %g, want 1/1", m["agreement"], m["termination"])
	}
}

// TestBenOrOptionErrors pins the vocabulary errors.
func TestBenOrOptionErrors(t *testing.T) {
	if _, err := Run(Env{N: 4, Seed: 1}, BenOr{Init: "fives"}); err == nil {
		t.Fatal("unknown Init accepted")
	}
	if _, err := Run(Env{N: 4, Seed: 1}, BenOr{Coin: "weighted"}); err == nil {
		t.Fatal("unknown Coin accepted")
	}
	if _, err := Run(Env{N: 10, Seed: 1}, BenOr{F: 4}); err == nil {
		t.Fatal("f beyond n/3 accepted")
	}
}

// TestEnvValidateByzantine pins the environment-level typed errors.
func TestEnvValidateByzantine(t *testing.T) {
	bad := Env{N: 4, Byzantine: &byzantine.Plan{
		Roles: []byzantine.Role{{Node: 9, Behavior: byzantine.Mute}},
	}}
	if err := Check(bad, BenOr{}); !errors.Is(err, ErrEnvByzantine) {
		t.Fatalf("out-of-range role: Check = %v, want ErrEnvByzantine", err)
	}
	conflict := Env{N: 4, LocalBroadcast: true,
		Links: channel.RandomDelayFactory(dist.NewExponential(1))}
	if err := Check(conflict, BenOr{}); !errors.Is(err, ErrEnvBroadcast) {
		t.Fatalf("LocalBroadcast+Links: Check = %v, want ErrEnvBroadcast", err)
	}
	lossy := Env{N: 4, LocalBroadcast: true, Faults: &faults.Plan{Loss: 0.1}}
	if err := Check(lossy, BenOr{}); !errors.Is(err, ErrEnvBroadcast) {
		t.Fatalf("LocalBroadcast+link faults: Check = %v, want ErrEnvBroadcast", err)
	}
	if err := Check(Env{N: 4, Byzantine: byzantine.Equivocators(1), LocalBroadcast: true}, BenOr{}); err != nil {
		t.Fatalf("valid adversarial env rejected: %v", err)
	}
}
