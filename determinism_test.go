package abenet_test

import (
	"fmt"
	"reflect"
	"testing"

	"abenet"
)

// TestCrossPackageDeterminism verifies the simulator's foundational
// reproducibility contract through the public facade: the same
// (Env, Election, seed) must produce a byte-identical Report on repeated
// runs, for every delay-distribution family. The property spans
// the whole stack — rng stream derivation, dist sampling, the event
// kernel, links, clocks and the protocol itself — so any package that
// sneaks in map-iteration order, shared mutable state or time.Now breaks
// it here.
func TestCrossPackageDeterminism(t *testing.T) {
	families := map[string]abenet.DelayDist{
		"deterministic":  abenet.Deterministic(1),
		"uniform":        abenet.Uniform(0, 2),
		"exponential":    abenet.Exponential(1),
		"erlang":         abenet.Erlang(4, 1),
		"pareto":         abenet.ParetoWithMean(1, 1.5),
		"retransmission": abenet.Retransmission(0.5, 0.5),
		"bimodal":        abenet.Bimodal(abenet.Deterministic(0.5), abenet.Deterministic(5.5), 0.1),
	}
	for name, d := range families {
		name, d := name, d
		t.Run(name, func(t *testing.T) {
			env := abenet.Env{N: 12, Delay: d, Seed: 99}
			proto := abenet.Election{A0: abenet.DefaultA0(12)}
			first, err := abenet.Run(env, proto)
			if err != nil {
				t.Fatal(err)
			}
			second, err := abenet.Run(env, proto)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(first, second) {
				t.Fatalf("results diverged:\n  run 1: %+v\n  run 2: %+v", first, second)
			}
			// Belt and braces: the rendered representation (every field,
			// including float bit patterns via %#v) must match byte for
			// byte, catching any future field DeepEqual treats loosely.
			if a, b := fmt.Sprintf("%#v", first), fmt.Sprintf("%#v", second); a != b {
				t.Fatalf("rendered results diverged:\n  run 1: %s\n  run 2: %s", a, b)
			}
			if first.Leaders != 1 {
				t.Fatalf("leaders = %d", first.Leaders)
			}
		})
	}
}
