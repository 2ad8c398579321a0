package harness

import (
	"reflect"
	"strings"
	"testing"

	"abenet/internal/channel"
	"abenet/internal/core"
	"abenet/internal/dist"
	"abenet/internal/faults"
	"abenet/internal/runner"
	"abenet/internal/simtime"
	"abenet/internal/topology"
)

// TestRunMatchesHandRolledAdapter proves Run is a drop-in for a hand-rolled
// func(x, seed) adapter on the aggregation core: identical sweep names
// derive identical seeds, so the aggregated means must agree exactly.
func TestRunMatchesHandRolledAdapter(t *testing.T) {
	xs := []float64{6, 10}
	sweep := Sweep{Name: "envsweep", Repetitions: 10, Seed: 21}

	byHand, err := sweep.run(xs, func(x float64, seed uint64) (map[string]float64, error) {
		n := int(x)
		res, err := runner.Run(runner.Env{N: n, Seed: seed}, runner.Election{A0: core.DefaultA0(n)})
		if err != nil {
			return nil, err
		}
		return map[string]float64{"messages": float64(res.Messages), "time": res.Time}, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	byEnv, err := sweep.Run(xs, func(x float64) (runner.Env, runner.Protocol, error) {
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

// TestRunProtocolByName: a registered protocol sweeps over sizes by name,
// with no adapter beyond Sizes.
func TestRunProtocolByName(t *testing.T) {
	proto, ok := runner.ProtocolByName("chang-roberts")
	if !ok {
		t.Fatal("chang-roberts is not registered")
	}
	sweep := Sweep{Name: "byname", Repetitions: 5, Seed: 3}
	points, err := sweep.Run([]float64{6, 8}, Sizes(runner.Env{}, proto), runner.RequireElected)
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
}

// TestSizesRefusesWhatIsNotASize: a fractional position is no network size,
// and a base that already fixes the network leaves nothing to sweep.
func TestSizesRefusesWhatIsNotASize(t *testing.T) {
	sweep := Sweep{Name: "sizes", Repetitions: 2, Seed: 1}
	if _, err := sweep.Run([]float64{6.5}, Sizes(runner.Env{}, runner.Election{}), nil); err == nil ||
		!strings.Contains(err.Error(), "not a network size") {
		t.Fatalf("x = 6.5 accepted: %v", err)
	}
	for _, base := range []runner.Env{{N: 9}, {Graph: topology.Ring(6)}} {
		if _, err := sweep.Run([]float64{6}, Sizes(base, runner.Election{}), nil); err == nil ||
			!strings.Contains(err.Error(), "leave base.N and base.Graph unset") {
			t.Fatalf("base %+v accepted: %v", base, err)
		}
	}
}

// TestRunFaultsLossAxis sweeps the election across a loss axis, the plan
// built per position, and checks the aggregated points carry both outcome
// and fault-telemetry metrics.
func TestRunFaultsLossAxis(t *testing.T) {
	sweep := Sweep{Name: "faultsweep", Repetitions: 20, Seed: 9}
	points, err := sweep.Run([]float64{0, 0.1}, func(x float64) (runner.Env, runner.Protocol, error) {
		env := runner.Env{N: 8, Horizon: simtime.Time(3000), Faults: &faults.Plan{Loss: x}}
		return env, runner.Election{}, nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d, want 2", len(points))
	}
	if rate := points[0].Mean("elected"); rate != 1 {
		t.Fatalf("loss-free termination rate = %g, want 1", rate)
	}
	if points[0].Mean("fault_dropped") != 0 {
		t.Fatal("loss-free position dropped messages")
	}
	if points[1].Mean("fault_dropped") == 0 {
		t.Fatal("lossy position dropped nothing")
	}
	// The telemetry keys exist at both positions (constant key set per
	// sweep), because both positions carried a plan.
	for _, p := range points {
		if _, ok := p.Samples["fault_crashes"]; !ok {
			t.Fatalf("x=%g missing fault telemetry keys: %v", p.X, MetricNames(points))
		}
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
		points, err := Sweep{Name: "hetero", Repetitions: 24, Seed: 99, Workers: workers}.Run(
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
