package abenet_test

import (
	"fmt"
	"testing"

	"abenet"
	"abenet/internal/golden"
)

// TestCrossPackageDeterminism verifies the simulator's foundational
// reproducibility contract through the public facade: the same (Env,
// Protocol) must render a byte-identical Report run after run and
// concurrently — the concurrent runs share the Env and its plans, as sweep
// workers do, which the race detector checks. It covers every
// delay-distribution family and the golden fault and Byzantine runs. The
// property spans the whole stack — rng stream derivation, dist sampling, the
// event kernel, links, clocks, the fault and adversary layers and the
// protocol itself — so any package that sneaks in map-iteration order, shared
// mutable state or time.Now breaks it here.
func TestCrossPackageDeterminism(t *testing.T) {
	type scenario struct {
		env   abenet.Env
		proto abenet.Protocol
		elect bool // a fault-free election: exactly one leader
	}
	scenarios := map[string]scenario{}
	for name, d := range map[string]abenet.DelayDist{
		"deterministic":  abenet.Deterministic(1),
		"uniform":        abenet.Uniform(0, 2),
		"exponential":    abenet.Exponential(1),
		"erlang":         abenet.Erlang(4, 1),
		"pareto":         abenet.ParetoWithMean(1, 1.5),
		"retransmission": abenet.Retransmission(0.5, 0.5),
		"bimodal":        abenet.Bimodal(abenet.Deterministic(0.5), abenet.Deterministic(5.5), 0.1),
	} {
		scenarios[name] = scenario{abenet.Env{N: 12, Delay: d, Seed: 99}, abenet.Election{A0: abenet.DefaultA0(12)}, true}
	}
	env, proto := goldenFaultEnv()
	scenarios["faults"] = scenario{env: env, proto: proto}
	env, proto = goldenByzantineEnv()
	scenarios["byzantine"] = scenario{env: env, proto: proto}

	for name, s := range scenarios {
		t.Run(name, func(t *testing.T) {
			golden.Replay(t, func() (string, error) {
				rep, err := abenet.Run(s.env, s.proto)
				if err != nil {
					return "", err
				}
				if s.elect && rep.Leaders != 1 {
					return "", fmt.Errorf("leaders = %d", rep.Leaders)
				}
				return renderReport(rep), nil
			})
		})
	}
}

// renderReport is every field of rep, float bit patterns included, with both
// telemetry levels dereferenced: a pointer would render as its address.
func renderReport(rep abenet.Report) string {
	flat := rep
	flat.Faults = nil
	out := fmt.Sprintf("%#v", flat)
	if rep.Faults != nil {
		tel := *rep.Faults
		tel.Byzantine = nil
		out += fmt.Sprintf("|%#v", tel)
		if rep.Faults.Byzantine != nil {
			out += fmt.Sprintf("|%#v", *rep.Faults.Byzantine)
		}
	}
	return out
}
