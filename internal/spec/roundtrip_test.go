package spec

import (
	"bytes"
	"errors"
	"testing"

	"abenet/internal/runner"
)

// roundTrip asserts encode→decode→encode is the identity on the canonical
// bytes and that the hash survives the trip.
func roundTrip(t *testing.T, s *Spec) {
	t.Helper()
	c1, err := s.Canonical()
	if err != nil {
		t.Fatalf("canonical: %v", err)
	}
	s2, err := DecodeBytes(c1)
	if err != nil {
		t.Fatalf("decode of canonical form %s: %v", c1, err)
	}
	c2, err := s2.Canonical()
	if err != nil {
		t.Fatalf("re-canonical: %v", err)
	}
	if !bytes.Equal(c1, c2) {
		t.Fatalf("encode→decode→encode is not the identity:\n1: %s\n2: %s", c1, c2)
	}
	h1, _ := s.Hash()
	h2, _ := s2.Hash()
	if h1 == "" || h1 != h2 {
		t.Fatalf("hash broke across the round trip: %q vs %q", h1, h2)
	}
}

// protoSpec wraps a registry instance, failing the test on error.
func protoSpec(t *testing.T, p runner.Protocol) ProtocolSpec {
	t.Helper()
	ps, err := ForProtocol(p)
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// TestRoundTripEveryProtocol: the identity holds for every registered
// protocol with default options.
func TestRoundTripEveryProtocol(t *testing.T) {
	for _, name := range runner.Protocols() {
		t.Run(name, func(t *testing.T) {
			inst, ok := runner.NewInstance(name)
			if !ok {
				t.Fatalf("no instance for %q", name)
			}
			roundTrip(t, &Spec{
				Version:  Version,
				Env:      EnvSpec{N: 8, Seed: 1},
				Protocol: protoSpec(t, inst),
			})
		})
	}
}

// TestRoundTripEveryDistFamily: the identity holds with each delay family
// in the delay, processing and links positions where applicable.
func TestRoundTripEveryDistFamily(t *testing.T) {
	dists := map[string]*DistSpec{
		"deterministic":  Deterministic(1),
		"uniform":        Uniform(0.5, 1.5),
		"exponential":    Exponential(2),
		"erlang":         Erlang(3, 1),
		"pareto":         Pareto(1, 1.5),
		"retransmission": Retransmission(0.5, 0.5),
		"bimodal":        Bimodal(Exponential(0.5), Deterministic(10), 0.05),
	}
	// The table must cover every registered family name.
	for name := range distFamily.entries {
		if _, ok := dists[name]; !ok {
			t.Fatalf("round-trip table misses dist family %q", name)
		}
	}
	for name, d := range dists {
		t.Run(name, func(t *testing.T) {
			roundTrip(t, &Spec{
				Version:  Version,
				Env:      EnvSpec{N: 8, Delay: d, Processing: Exponential(0.01), Seed: 1},
				Protocol: protoSpec(t, runner.Election{}),
			})
		})
	}
}

// TestRoundTripEveryTopologyClockAndLinks: the identity holds for every
// topology, clock model and link factory name.
func TestRoundTripEveryTopologyClockAndLinks(t *testing.T) {
	topos := map[string]*TopologySpec{
		"ring":      RingTopology(8),
		"biring":    BiRingTopology(8),
		"line":      LineTopology(8),
		"star":      StarTopology(8),
		"complete":  CompleteTopology(8),
		"hypercube": HypercubeTopology(3),
		"torus":     TorusTopology(3, 3),
	}
	for name := range topologyFamily.entries {
		if _, ok := topos[name]; !ok {
			t.Fatalf("round-trip table misses topology %q", name)
		}
	}
	for name, topo := range topos {
		t.Run("topology/"+name, func(t *testing.T) {
			// clock-sync runs on arbitrary graphs; ring protocols would
			// reject line/star (no Hamiltonian cycle) at run time, but the
			// codec is protocol-independent.
			roundTrip(t, &Spec{
				Version:  Version,
				Env:      EnvSpec{Topology: topo, Seed: 1},
				Protocol: protoSpec(t, runner.ClockSync{}),
			})
		})
	}

	clocks := map[string]*ClockSpec{
		"perfect":   PerfectClocks(),
		"uniform":   UniformClocks(1, 2),
		"wandering": WanderingClocks(1, 1.5, 5),
	}
	for name := range clockFamily.entries {
		if _, ok := clocks[name]; !ok {
			t.Fatalf("round-trip table misses clock model %q", name)
		}
	}
	for name, c := range clocks {
		t.Run("clocks/"+name, func(t *testing.T) {
			roundTrip(t, &Spec{
				Version:  Version,
				Env:      EnvSpec{N: 8, Clocks: c, Seed: 1},
				Protocol: protoSpec(t, runner.Election{}),
			})
		})
	}

	links := map[string]*LinksSpec{
		"arq":          ARQLinks(0.5, 0.5),
		"fifo":         FIFOLinks(Exponential(1)),
		"random-delay": RandomDelayLinks(Uniform(0, 2)),
	}
	for name := range linksFamily.entries {
		if _, ok := links[name]; !ok {
			t.Fatalf("round-trip table misses link factory %q", name)
		}
	}
	for name, l := range links {
		t.Run("links/"+name, func(t *testing.T) {
			roundTrip(t, &Spec{
				Version:  Version,
				Env:      EnvSpec{N: 8, Links: l, Delta: 1, Seed: 1},
				Protocol: protoSpec(t, runner.Election{}),
			})
		})
	}
}

// TestRoundTripFaultsAndSweep: the identity holds for a spec exercising the
// full fault vocabulary and the sweep block.
func TestRoundTripFaultsAndSweep(t *testing.T) {
	roundTrip(t, &Spec{
		Version: Version,
		Env: EnvSpec{
			N:       8,
			Seed:    1,
			Horizon: 2000,
			Faults: &FaultsSpec{
				Loss:         0.05,
				Duplicate:    0.01,
				Reorder:      0.02,
				ReorderDelay: Exponential(2),
				CrashRate:    0.001,
				RecoverRate:  0.01,
				Events: []EventSpec{
					{At: 10, Kind: "crash", Node: 3},
					{At: 20, Kind: "recover", Node: 3},
					{At: 30, Kind: "link-down", From: 1, To: 2},
					{At: 40, Kind: "link-up", From: 1, To: 2},
					{At: 50, Kind: "partition", Group: []int{0, 1}},
					{At: 60, Kind: "heal", Group: []int{0, 1}},
				},
			},
		},
		Protocol: protoSpec(t, runner.Election{}),
	})

	roundTrip(t, &Spec{
		Version:  Version,
		Env:      EnvSpec{Seed: 7, Delay: Exponential(1)},
		Protocol: protoSpec(t, runner.ChangRoberts{}),
		Sweep: &SweepSpec{
			Xs:          []float64{8, 16},
			Repetitions: 3,
			Workers:     2,
			Metrics:     []string{"messages", "time"},
		},
	})
}

// TestRoundTripByzantineAndBroadcast: the identity holds for a spec
// exercising the full adversary vocabulary and the local-broadcast medium,
// and the decoded spec builds the plan the JSON describes.
func TestRoundTripByzantineAndBroadcast(t *testing.T) {
	s := &Spec{
		Version: Version,
		Env: EnvSpec{
			Topology: CompleteTopology(8),
			Seed:     1,
			Horizon:  5000,
			Byzantine: &ByzantineSpec{Roles: []ByzantineRoleSpec{
				{Node: 0, Behavior: "equivocate"},
				{Node: 1, Behavior: "mute", Prob: 0.5},
				{Node: 2, Behavior: "stall", StallDelay: Exponential(3)},
			}},
			LocalBroadcast: true,
		},
		Protocol: protoSpec(t, runner.BenOr{F: 2, Init: "half", Coin: "common"}),
	}
	roundTrip(t, s)

	env, err := s.BuildEnv()
	if err != nil {
		t.Fatal(err)
	}
	if !env.LocalBroadcast {
		t.Fatal("local_broadcast did not reach the env")
	}
	if env.Byzantine.Count() != 3 || !env.Byzantine.IsAdversary(2) {
		t.Fatalf("built plan = %+v", env.Byzantine)
	}

	// An adversary plan on a protocol that rejects plans must fail at
	// decode time with the runner's typed error — same for the medium.
	for _, tc := range []struct {
		env  EnvSpec
		want error
	}{
		{EnvSpec{N: 8, Byzantine: &ByzantineSpec{Roles: []ByzantineRoleSpec{{Node: 0, Behavior: "mute"}}}}, runner.ErrByzantineUnsupported},
		{EnvSpec{N: 8, LocalBroadcast: true}, runner.ErrBroadcastUnsupported},
	} {
		bad := &Spec{Version: Version, Env: tc.env, Protocol: protoSpec(t, runner.Election{})}
		if err := bad.Validate(); !errors.Is(err, tc.want) {
			t.Fatalf("election on adversarial env %+v: Validate = %v, want %v", tc.env, err, tc.want)
		}
	}

	// Unknown behaviour names fail with the vocabulary listed.
	unk := &Spec{
		Version: Version,
		Env: EnvSpec{N: 8, Byzantine: &ByzantineSpec{
			Roles: []ByzantineRoleSpec{{Node: 0, Behavior: "gossip"}}}},
		Protocol: protoSpec(t, runner.BenOr{}),
	}
	if err := unk.Validate(); err == nil {
		t.Fatal("unknown behavior accepted")
	}
}
