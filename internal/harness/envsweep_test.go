package harness

import (
	"testing"

	"abenet/internal/core"
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
