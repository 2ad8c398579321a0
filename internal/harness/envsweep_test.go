package harness

import (
	"reflect"
	"testing"

	"abenet/internal/channel"
	"abenet/internal/core"
	"abenet/internal/dist"
	"abenet/internal/runner"
)

// TestRunEnvMatchesHandRolledAdapter proves the Env-aware runner is a
// drop-in for the historical func(x, seed) adapters: identical sweep
// names derive identical seeds, so the aggregated means must agree
// exactly.
func TestRunEnvMatchesHandRolledAdapter(t *testing.T) {
	xs := []float64{6, 10}
	sweep := Sweep{Name: "envsweep", Repetitions: 10, Seed: 21}

	byHand, err := sweep.Run(xs, func(x float64, seed uint64) (Metrics, error) {
		n := int(x)
		res, err := runner.Run(runner.Env{N: n, Seed: seed}, runner.Election{A0: core.DefaultA0(n)})
		if err != nil {
			return nil, err
		}
		return Metrics{"messages": float64(res.Messages), "time": res.Time}, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	byEnv, err := sweep.RunEnv(xs, func(x float64) (runner.Env, runner.Protocol, error) {
		return runner.Env{N: int(x)}, runner.Election{A0: core.DefaultA0(int(x))}, nil
	}, runner.RequireElected)
	if err != nil {
		t.Fatal(err)
	}

	for i := range xs {
		for _, metric := range []string{"messages", "time"} {
			if a, b := byHand[i].Mean(metric), byEnv[i].Mean(metric); a != b {
				t.Fatalf("x=%g %s: hand-rolled %v vs env-aware %v", xs[i], metric, a, b)
			}
		}
	}
}

// TestRunProtocolByName is the acceptance check for the registry path:
// a protocol runs by name with no adapter at all.
func TestRunProtocolByName(t *testing.T) {
	sweep := Sweep{Name: "byname", Repetitions: 5, Seed: 3}
	points, err := sweep.RunProtocol("chang-roberts", runner.Env{}, []float64{6, 8}, runner.RequireElected)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d, want 2", len(points))
	}
	for _, p := range points {
		if p.Mean("messages") <= 0 {
			t.Fatalf("x=%g: no messages", p.X)
		}
		if p.Mean("leaders") != 1 {
			t.Fatalf("x=%g: leaders mean %v", p.X, p.Mean("leaders"))
		}
	}

	if _, err := sweep.RunProtocol("no-such", runner.Env{}, []float64{6}, nil); err == nil {
		t.Fatal("unknown protocol must error")
	}
	if _, err := sweep.RunProtocol("election", runner.Env{N: 9}, []float64{6}, nil); err == nil {
		t.Fatal("base env with N set must error")
	}
}

// TestHeterogeneousLinksAreReusableAcrossRuns: one Env holding one
// HeterogeneousFactory value is run repeatedly and from several workers at
// once (examples/adhoc does exactly that). The factory picks by edge index
// and keeps no counter, so every run wires the same distribution to the same
// edge — n = 20 is not a multiple of the three link classes, which is what
// made a run-to-run counter drift — and nothing is shared between workers.
func TestHeterogeneousLinksAreReusableAcrossRuns(t *testing.T) {
	const n = 20
	means := []float64{0.3, 0.76, 1.2}
	env := runner.Env{
		N:     n,
		Delta: 1.2,
		Seed:  7,
		Links: channel.HeterogeneousFactory(func(edge int) dist.Dist {
			return dist.NewExponential(1 / means[edge%len(means)])
		}),
	}
	proto := runner.Election{A0: core.A0ForRing(n, 1.2, 1, 1)}

	first, err := runner.Run(env, proto)
	if err != nil {
		t.Fatal(err)
	}
	second, err := runner.Run(env, proto)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("the same Env gave two reports:\n%+v\n%+v", first, second)
	}

	sweep := func(workers int) []Point {
		points, err := Sweep{Name: "hetero", Repetitions: 24, Seed: 99, Workers: workers}.RunEnv(
			[]float64{n},
			func(float64) (runner.Env, runner.Protocol, error) { return env, proto, nil },
			runner.RequireElected)
		if err != nil {
			t.Fatal(err)
		}
		return points
	}
	if one, four := sweep(1), sweep(4); !reflect.DeepEqual(one, four) {
		t.Fatalf("sweep differs across worker counts:\n%+v\n%+v", one, four)
	}
}
