package harness

import (
	"errors"
	"fmt"

	"abenet/internal/runner"
)

// EnvBuildFunc returns the (environment, protocol) pair to run at sweep
// position x. The harness injects the per-repetition seed into the
// returned Env, so builders leave Env.Seed at zero.
type EnvBuildFunc func(x float64) (runner.Env, runner.Protocol, error)

// Run sweeps a (protocol × environment) family through runner.Run: at
// every position in xs it asks build for the pair, runs it Repetitions
// times with deterministically derived seeds, and aggregates
// runner.Report.Metrics() into one Point per position (in xs order).
//
// check, when non-nil, validates every repetition's report (use
// runner.RequireElected for election workloads); its error aborts the
// sweep. Sizes builds the common case, a sweep over network sizes:
//
//	points, err := harness.Sweep{Name: "demo"}.Run([]float64{8, 16, 32},
//	    harness.Sizes(runner.Env{}, runner.ChangRoberts{}), nil)
func (s Sweep) Run(xs []float64, build EnvBuildFunc, check func(runner.Report) error) ([]Point, error) {
	if build == nil {
		return nil, errors.New("harness: nil env build function")
	}
	return s.run(xs, func(x float64, seed uint64) (map[string]float64, error) {
		env, proto, err := build(x)
		if err != nil {
			return nil, err
		}
		env.Seed = seed
		rep, err := runner.Run(env, proto)
		if err != nil {
			return nil, err
		}
		if check != nil {
			if err := check(rep); err != nil {
				return nil, err
			}
		}
		return rep.Metrics(), nil
	})
}

// Sizes is the builder of a sweep over network sizes: at position x it runs
// p on base with N = x. It refuses an x that is not a whole number, and a
// base that already fixes the network (N or Graph set).
func Sizes(base runner.Env, p runner.Protocol) EnvBuildFunc {
	return func(x float64) (runner.Env, runner.Protocol, error) {
		if base.N != 0 || base.Graph != nil {
			return runner.Env{}, nil, errors.New("harness: a size sweep sets the network size; leave base.N and base.Graph unset")
		}
		env := base
		env.N = int(x)
		if float64(env.N) != x {
			return runner.Env{}, nil, fmt.Errorf("harness: sweep position %g is not a network size", x)
		}
		return env, p, nil
	}
}
