package consensus_test

import (
	"encoding/json"
	"testing"

	"abenet/internal/byzantine"
	"abenet/internal/faults"
	"abenet/internal/golden"
	"abenet/internal/runner"
	"abenet/internal/topology"
)

// The run-level tests of Ben-Or live in this external package: the nodes and
// the verdict are consensus's, but a run is Run(Env, BenOr) — the import
// direction (runner → consensus) puts the tests on this side.

// base is the complete-graph environment every run below starts from.
func base(n int) runner.Env {
	return runner.Env{Graph: topology.Complete(n), Seed: 1, Horizon: 10_000}
}

// run executes Ben-Or on env and returns the report with its verdict.
func run(t *testing.T, env runner.Env, p runner.BenOr) (runner.Report, runner.ConsensusExtra) {
	t.Helper()
	rep, err := runner.Run(env, p)
	if err != nil {
		t.Fatalf("%+v on n=%d: %v", p, env.Graph.N(), err)
	}
	return rep, rep.Extra.(runner.ConsensusExtra)
}

// TestHonestConsensus: with no adversary every configuration must reach a
// unanimous, valid decision — across media, coins and initial assignments.
func TestHonestConsensus(t *testing.T) {
	for _, n := range []int{4, 8} {
		for _, bcastMode := range []bool{false, true} {
			for _, coin := range []string{"local", "common"} {
				for _, init := range []string{"random", "zeros", "ones", "half"} {
					env := base(n)
					env.LocalBroadcast = bcastMode
					rep, res := run(t, env, runner.BenOr{Coin: coin, Init: init})
					if !res.Termination || !res.Agreement || !res.Validity {
						t.Fatalf("n=%d bcast=%v coin=%s init=%s: term=%v agree=%v valid=%v (violations %v)",
							n, bcastMode, coin, init, res.Termination, res.Agreement, res.Validity, rep.Violations)
					}
					if init == "zeros" && res.Decision != 0 {
						t.Fatalf("unanimous-0 start decided %d", res.Decision)
					}
					if init == "ones" && res.Decision != 1 {
						t.Fatalf("unanimous-1 start decided %d", res.Decision)
					}
					if res.Decided != n || res.Honest != n {
						t.Fatalf("decided %d/%d honest %d", res.Decided, n, res.Honest)
					}
				}
			}
		}
	}
}

// TestConsensusDeterminism: identical (Env, seed) must reproduce the whole
// Report, in sequence and concurrently.
func TestConsensusDeterminism(t *testing.T) {
	env := base(8)
	env.Byzantine = byzantine.Equivocators(2)
	golden.Replay(t, func() (string, error) {
		rep, err := runner.Run(env, runner.BenOr{Init: "half"})
		if err != nil {
			return "", err
		}
		raw, err := json.Marshal(rep) // every field, through the telemetry pointers
		return string(raw), err
	})
}

// TestConsensusToleratesEquivocatorsWithinBound: inside the classical
// Ben-Or guarantee region (n > 5f, here n=8 and f=1) one equivocator must
// not break safety, and under bounded expected delay the run terminates —
// on both media. (Pushing e to the f < n/3 edge is experiment E14's job:
// there point-to-point keeps safety but loses termination, which is the
// local-broadcast separation itself, not a unit-test invariant.)
func TestConsensusToleratesEquivocatorsWithinBound(t *testing.T) {
	for _, mode := range []bool{false, true} {
		env := base(8)
		env.LocalBroadcast = mode
		env.Byzantine = byzantine.Equivocators(1)
		rep, res := run(t, env, runner.BenOr{F: 1, Init: "half"})
		if !res.Agreement || !res.Validity || !res.Termination {
			t.Fatalf("bcast=%v: term=%v agree=%v valid=%v violations=%v",
				mode, res.Termination, res.Agreement, res.Validity, rep.Violations)
		}
		if res.Honest != 7 || res.Decided != 7 {
			t.Fatalf("bcast=%v: honest=%d decided=%d, want 7/7", mode, res.Honest, res.Decided)
		}
		tel := rep.Faults.Byzantine
		if tel == nil {
			t.Fatalf("bcast=%v: no byzantine telemetry", mode)
		}
		if mode {
			// The radio medium defeats equivocation: substitutions count
			// as consistent corruptions instead.
			if tel.Equivocations != 0 || tel.Corruptions == 0 {
				t.Fatalf("broadcast telemetry = %+v, want corruptions only", tel)
			}
		} else if tel.Equivocations == 0 {
			t.Fatalf("p2p telemetry = %+v, want equivocations", tel)
		}
	}
}

// TestConsensusSurvivesCrashes: f crashed-from-start nodes are within the
// wait budget, so the survivors still decide.
func TestConsensusSurvivesCrashes(t *testing.T) {
	env := base(8) // f = 2
	env.MaxRounds = 50
	env.Faults = &faults.Plan{Events: []faults.Event{faults.CrashAt(0, 0), faults.CrashAt(0, 1)}}
	rep, res := run(t, env, runner.BenOr{Init: "half"})
	// The crashed nodes are honest but can never decide: termination over
	// all honest nodes fails by definition, while every surviving node
	// must still decide safely.
	if res.Decided != 6 {
		t.Fatalf("decided = %d, want the 6 survivors (violations %v)", res.Decided, rep.Violations)
	}
	if !res.Agreement || !res.Validity {
		t.Fatalf("agreement=%v validity=%v violations=%v", res.Agreement, res.Validity, rep.Violations)
	}
	if res.Termination {
		t.Fatal("termination should be false with permanently crashed honest nodes")
	}
}
