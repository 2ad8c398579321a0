package core_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"abenet/internal/core"
	"abenet/internal/dist"
	"abenet/internal/golden"
	"abenet/internal/runner"
)

// TestGoldenSeeds pins the full trajectory of the election at seed 42 on
// small rings (n = 4, 8, 16) and across every delay family at n = 8, plus one
// run off the default A0 (seed 12345, A0 = 0.05). The pins are deliberately
// brittle: a change to the event kernel's tie-breaking, the RNG stream
// layout, the protocol rules or any distribution's sampling algorithm
// (number or order of variates consumed per Sample) shifts at least one of
// these trajectories. Intentional changes regenerate testdata/golden_seeds.golden
// with -update and justify the diff in the commit message.
//
// Time is pinned as a %.9g string rather than a raw float64 so the lines
// stay readable while still catching any drift above rounding noise.
func TestGoldenSeeds(t *testing.T) {
	rows := []struct {
		name string
		env  runner.Env
		a0   float64
	}{
		{"exp/n=4", runner.Env{N: 4, Seed: 42}, core.DefaultA0(4)}, // nil delay: Exponential(1)
		{"exp/n=8", runner.Env{N: 8, Seed: 42}, core.DefaultA0(8)},
		{"exp/n=16", runner.Env{N: 16, Seed: 42}, core.DefaultA0(16)},
		{"det/n=8", runner.Env{N: 8, Delay: dist.NewDeterministic(1), Seed: 42}, core.DefaultA0(8)},
		{"uniform/n=8", runner.Env{N: 8, Delay: dist.NewUniform(0, 2), Seed: 42}, core.DefaultA0(8)},
		{"pareto/n=8", runner.Env{N: 8, Delay: dist.ParetoWithMean(1, 1.5), Seed: 42}, core.DefaultA0(8)},
		{"retx/n=8", runner.Env{N: 8, Delay: dist.NewRetransmission(0.5, 0.5), Seed: 42}, core.DefaultA0(8)},
		{"erlang/n=8", runner.Env{N: 8, Delay: dist.NewErlang(4, 1), Seed: 42}, core.DefaultA0(8)},
		{"exp/n=8/seed=12345/a0=0.05", runner.Env{N: 8, Seed: 12345}, 0.05},
	}
	lines := make([]string, len(rows))
	for i, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			res, err := runElection(r.env, runner.Election{A0: r.a0})
			if err != nil {
				t.Fatal(err)
			}
			if res.Leaders != 1 || len(res.Violations) != 0 {
				t.Fatalf("leaders=%d violations=%v", res.Leaders, res.Violations)
			}
			lines[i] = fmt.Sprintf("%s leader=%d messages=%d activations=%d knockouts=%d time=%.9g\n",
				r.name, res.LeaderIndex, res.Messages, res.Activations, res.Knockouts, res.Time)
		})
	}
	// A failed row, or a -run filter that picked some rows, leaves its line
	// empty; the file pins them all.
	if !slices.Contains(lines, "") {
		golden.Check(t, "golden_seeds.golden", strings.Join(lines, ""))
	}
}
