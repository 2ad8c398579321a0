package runner_test

import (
	"errors"
	"testing"

	"abenet/internal/probe"
	"abenet/internal/runner"
	"abenet/internal/spec"
	"abenet/internal/syncnet"
	"abenet/internal/trace"
)

// idleSyncNode makes the unregistered Synchronized protocol constructible.
type idleSyncNode struct{}

func (idleSyncNode) Round(syncnet.NodeContext, int, []syncnet.Message) {}

// TestCapabilityDoorsAgree is the one table over every optional Env axis ×
// every registered protocol (plus the unregistered Synchronized): whether
// Run accepts the axis or rejects it with the axis's typed error, what the
// registry metadata's supports_* flag says, and what spec.Validate decides
// at decode time must all be the same answer — they are derived from the
// protocol's one capability declaration, and this test keeps it so.
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
			runner.ErrObserveUnsupported, func(i runner.Info) bool { return i.SupportsObserve }},
		{"trace", spec.EnvSpec{Trace: &trace.Config{}},
			runner.ErrTraceUnsupported, func(i runner.Info) bool { return i.SupportsTrace }},
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
			proto := runner.Synchronized{MakeNode: func(int) syncnet.Node { return idleSyncNode{} }}
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
