package runner_test

import (
	"errors"
	"testing"

	"abenet/internal/byzantine"
	"abenet/internal/faults"
	"abenet/internal/probe"
	"abenet/internal/runner"
	"abenet/internal/spec"
	"abenet/internal/synchronizer"
	"abenet/internal/trace"
)

// idleSyncNode makes the unregistered Synchronized protocol constructible.
type idleSyncNode struct{}

func (idleSyncNode) Round(synchronizer.NodeContext, int, []synchronizer.Message) {}

// bareProtocol declares no capability and bypasses the run substrate: its
// Run returns an empty Report. No registered protocol does either, but the
// checks still guard implementations from outside the registry.
type bareProtocol struct{ reached *bool }

func (bareProtocol) Name() string { return "bare" }

func (p bareProtocol) Run(runner.Env) (runner.Report, error) {
	*p.reached = true
	return runner.Report{}, nil
}

// TestUndeclaredAxesAreRefused: every optional axis is refused, with its
// typed error, for a protocol that declares none and bypasses the
// substrate. The declared axes are refused before the protocol runs;
// observe and trace are the substrate's, so they are refused on the empty
// report the protocol returns.
func TestUndeclaredAxesAreRefused(t *testing.T) {
	base := runner.Env{N: 4, Seed: 1}
	for _, tc := range []struct {
		set     func(*runner.Env)
		want    error
		reached bool
	}{
		{func(e *runner.Env) { e.Faults = &faults.Plan{Loss: 0.1} }, runner.ErrFaultsUnsupported, false},
		{func(e *runner.Env) { e.Byzantine = byzantine.Equivocators(1) }, runner.ErrByzantineUnsupported, false},
		{func(e *runner.Env) { e.LocalBroadcast = true }, runner.ErrBroadcastUnsupported, false},
		{func(e *runner.Env) { e.Observe = &probe.Config{EveryEvents: 1} }, runner.ErrObserveUnsupported, true},
		{func(e *runner.Env) { e.Trace = &trace.Config{} }, runner.ErrTraceUnsupported, true},
	} {
		env := base
		tc.set(&env)
		var reached bool
		if _, err := runner.Run(env, bareProtocol{&reached}); !errors.Is(err, tc.want) {
			t.Errorf("Run = %v, want %v", err, tc.want)
		}
		if reached != tc.reached {
			t.Errorf("%v: protocol's Run reached = %v, want %v", tc.want, reached, tc.reached)
		}
	}
}

// TestCapabilityDoorsAgree is the one table over every declared capability
// axis × every registered protocol (plus the unregistered Synchronized):
// whether Run accepts the axis or rejects it with the axis's typed error,
// what the registry metadata's supports_* flag says, and what spec.Validate
// decides at decode time must all be the same answer — they are derived
// from the protocol's one capability declaration, and this test keeps it
// so. Observe and trace are no axes but the substrate's: both doors accept
// them for every protocol.
func TestCapabilityDoorsAgree(t *testing.T) {
	axes := []struct {
		name     string
		env      spec.EnvSpec
		rejected error
		supports func(runner.Info) bool
	}{
		{"faults", spec.EnvSpec{Faults: &spec.FaultsSpec{Loss: 0.01}},
			runner.ErrFaultsUnsupported, func(i runner.Info) bool { return i.SupportsFaults }},
		{"byzantine", spec.EnvSpec{Byzantine: &spec.ByzantineSpec{Roles: []spec.ByzantineRoleSpec{{Node: 0, Behavior: "equivocate"}}}},
			runner.ErrByzantineUnsupported, func(i runner.Info) bool { return i.SupportsByzantine }},
		{"local-broadcast", spec.EnvSpec{LocalBroadcast: true},
			runner.ErrBroadcastUnsupported, func(i runner.Info) bool { return i.SupportsBroadcast }},
		{"observe", spec.EnvSpec{Observe: &probe.Config{EveryEvents: 1}},
			runner.ErrObserveUnsupported, func(runner.Info) bool { return true }},
		{"trace", spec.EnvSpec{Trace: &trace.Config{}},
			runner.ErrTraceUnsupported, func(runner.Info) bool { return true }},
	}
	for _, axis := range axes {
		envSpec := axis.env
		envSpec.N, envSpec.Seed, envSpec.Horizon = 4, 1, 500

		for _, name := range runner.Protocols() {
			t.Run(axis.name+"/"+name, func(t *testing.T) {
				proto, _ := runner.NewInstance(name)
				ps, err := spec.ForProtocol(proto)
				if err != nil {
					t.Fatal(err)
				}
				s := &spec.Spec{Version: spec.Version, Env: envSpec, Protocol: ps}
				env, err := s.BuildEnv()
				if err != nil {
					t.Fatal(err)
				}
				info, _ := runner.ProtocolInfo(name)
				_, runErr := runner.Run(env, proto)
				validateErr := s.Validate()
				if axis.supports(info) {
					if runErr != nil || validateErr != nil {
						t.Fatalf("metadata reports support, but Run = %v and Validate = %v", runErr, validateErr)
					}
					return
				}
				if !errors.Is(runErr, axis.rejected) {
					t.Errorf("metadata reports no support, Run = %v, want %v", runErr, axis.rejected)
				}
				if !errors.Is(validateErr, axis.rejected) {
					t.Errorf("metadata reports no support, Validate = %v, want %v", validateErr, axis.rejected)
				}
			})
		}

		// Synchronized has no registry row and no spec; its declaration
		// (the one SynchronizedElection forwards) must be enforced all the
		// same.
		t.Run(axis.name+"/synchronized", func(t *testing.T) {
			s := &spec.Spec{Version: spec.Version, Env: envSpec}
			env, err := s.BuildEnv()
			if err != nil {
				t.Fatal(err)
			}
			proto := runner.Synchronized{MakeNode: func(int) synchronizer.Node { return idleSyncNode{} }}
			want := axis.rejected
			if info, _ := runner.ProtocolInfo("synchronized-election"); axis.supports(info) {
				want = nil
			}
			if _, err := runner.Run(env, proto); !errors.Is(err, want) {
				t.Fatalf("Run = %v, want %v", err, want)
			}
		})
	}
}
