package runner

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"abenet/internal/channel"
	"abenet/internal/core"
	"abenet/internal/dist"
	"abenet/internal/topology"
)

// TestElectionsOnNonRingTopologies smoke-tests the ring protocols on every
// topology family that embeds a Hamiltonian cycle — the environments the
// old config structs could not even express.
func TestElectionsOnNonRingTopologies(t *testing.T) {
	graphs := map[string]*topology.Graph{
		"biring":    topology.BiRing(8),
		"complete":  topology.Complete(8),
		"hypercube": topology.Hypercube(3),
	}
	protocols := []Protocol{
		Election{},
		ItaiRodehSync{},
		ItaiRodehAsync{},
		ChangRoberts{},
		Peterson{},
		SynchronizedElection{},
	}
	for name, g := range graphs {
		for _, p := range protocols {
			p := p
			t.Run(fmt.Sprintf("%s/%s", p.Name(), name), func(t *testing.T) {
				rep, err := Run(Env{Graph: g, Seed: 11}, p)
				if err != nil {
					t.Fatal(err)
				}
				if err := RequireElected(rep); err != nil {
					t.Fatal(err)
				}
				if rep.Messages == 0 {
					t.Fatal("no messages recorded")
				}
			})
		}
	}
	// A topology without a Hamiltonian cycle must be rejected, not
	// silently mis-run.
	if _, err := Run(Env{Graph: topology.Star(6), Seed: 1}, Election{}); err == nil {
		t.Fatal("star topology must be rejected for ring protocols")
	}
}

// TestRegistry checks that every registered protocol runs by name on a
// plain default environment — the property that lets Sweep and the CLIs
// drive any (protocol × env) pair with zero adapter code.
func TestRegistry(t *testing.T) {
	names := Protocols()
	want := []string{
		"ben-or", "chang-roberts", "clock-sync", "election", "itai-rodeh-async",
		"itai-rodeh-sync", "peterson", "synchronized-election",
	}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("registry = %v, want %v", names, want)
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			p, ok := ProtocolByName(name)
			if !ok {
				t.Fatalf("ProtocolByName(%q) missing", name)
			}
			if p.Name() != name {
				t.Fatalf("registered under %q but Name() = %q", name, p.Name())
			}
			rep, err := Run(Env{N: 6, Seed: 42}, p)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Protocol != name {
				t.Fatalf("report protocol = %q, want %q", rep.Protocol, name)
			}
			if rep.Messages == 0 {
				t.Fatalf("%s: no messages recorded", name)
			}
			m := rep.Metrics()
			if _, ok := m["messages"]; !ok {
				t.Fatalf("%s: metrics missing 'messages': %v", name, m)
			}
		})
	}
	if _, ok := ProtocolByName("no-such-protocol"); ok {
		t.Fatal("unknown name must not resolve")
	}
}

// TestClockSyncThroughEnv reproduces the ABD-vs-ABE contrast through the
// unified API: bounded delays keep rounds intact, ABE delays break them.
func TestClockSyncThroughEnv(t *testing.T) {
	abd, err := Run(Env{N: 6, Delay: dist.NewUniform(0, 1), Seed: 4},
		ClockSync{Period: 1.1, Rounds: 100})
	if err != nil {
		t.Fatal(err)
	}
	if x := abd.Extra.(ClockSyncExtra); x.RoundViolations != 0 {
		t.Fatalf("ABD run violated rounds: %+v", x)
	}
	abe, err := Run(Env{N: 6, Delay: dist.NewExponential(0.5), Seed: 4},
		ClockSync{Period: 1.1, Rounds: 100})
	if err != nil {
		t.Fatal(err)
	}
	if x := abe.Extra.(ClockSyncExtra); x.RoundViolations == 0 {
		t.Fatal("ABE run produced no violations")
	}
}

// TestSynchronizedRequiresMakeNode pins the one unregistrable protocol's
// error path.
func TestSynchronizedRequiresMakeNode(t *testing.T) {
	if _, err := Run(Env{N: 4, Seed: 1}, Synchronized{}); err == nil {
		t.Fatal("Synchronized without MakeNode must error")
	}
}

// TestEnvValidation covers the size/graph consistency rules.
func TestEnvValidation(t *testing.T) {
	if _, err := Run(Env{}, Election{}); err == nil {
		t.Fatal("empty env must error")
	}
	if _, err := Run(Env{N: 1}, Election{}); err == nil {
		t.Fatal("N = 1 must error")
	}
	if _, err := Run(Env{N: 5, Graph: topology.Ring(6)}, Election{}); err == nil {
		t.Fatal("N/graph size disagreement must error")
	}
	if _, err := Run(Env{N: 6, Seed: 1}, nil); err == nil {
		t.Fatal("nil protocol must error")
	}
}

// TestElectionDefaultA0RejectsZeroMeanDelay pins that an underivable
// default A0 is an error, not a panic (Deterministic(0) is a legal
// distribution).
func TestElectionDefaultA0RejectsZeroMeanDelay(t *testing.T) {
	if _, err := Run(Env{N: 8, Delay: dist.NewDeterministic(0)}, Election{}); err == nil {
		t.Fatal("zero-mean delay with defaulted A0 must error")
	}
	// An explicit A0 keeps the environment usable.
	rep, err := Run(Env{N: 8, Delay: dist.NewDeterministic(0)}, Election{A0: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if err := RequireElected(rep); err != nil {
		t.Fatal(err)
	}
}

// TestEnvDeltaDrivesDefaults pins that a declared δ parameterises the
// balanced defaults when a link factory hides the delay mean.
func TestEnvDeltaDrivesDefaults(t *testing.T) {
	// ARQ with p = 0.2, slot 1 has true mean 5; declaring Delta = 5 must
	// give the same default A0 as an explicit A0ForRing(n, 5, 1, 1).
	declared, err := Run(
		Env{N: 16, Links: channel.ARQFactory(0.2, 1), Delta: 5, Seed: 9},
		Election{},
	)
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := Run(
		Env{N: 16, Links: channel.ARQFactory(0.2, 1), Seed: 9},
		Election{A0: core.A0ForRing(16, 5, 1, 1)},
	)
	if err != nil {
		t.Fatal(err)
	}
	if declared.Messages != explicit.Messages || declared.Time != explicit.Time {
		t.Fatalf("Delta-derived default diverged from explicit A0:\n declared: %+v\n explicit: %+v", declared, explicit)
	}
}

// TestClockSyncHonoursMaxRounds pins that the environment's round budget
// caps the clock-sync workload like every other round-based protocol.
func TestClockSyncHonoursMaxRounds(t *testing.T) {
	rep, err := Run(Env{N: 4, MaxRounds: 7, Seed: 2}, ClockSync{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rounds != 7 {
		t.Fatalf("rounds = %d, want the MaxRounds cap 7", rep.Rounds)
	}
}

// TestNegativeMaxRoundsIsRefused: a negative round budget is refused with
// ErrEnvMaxRounds by every registered protocol, the ones that read no round
// budget included.
func TestNegativeMaxRoundsIsRefused(t *testing.T) {
	for _, name := range Protocols() {
		if err := Check(Env{N: 8, MaxRounds: -1}, registry[name]); !errors.Is(err, ErrEnvMaxRounds) {
			t.Errorf("%s: Check = %v, want ErrEnvMaxRounds", name, err)
		}
	}
}
