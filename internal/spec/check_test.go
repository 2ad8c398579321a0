package spec

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"abenet/internal/runner"
	"abenet/internal/sim"
	"abenet/internal/synchronizer"
)

// refusedDocs are single-field mutations of runnable scenarios that no run
// admits, each with the error the run gives (want). The protocol's option
// rules, or the ring embedding, refuse them — not the environment's rules,
// so only a decode door that makes the run's own check catches them.
var refusedDocs = []struct{ name, doc, want string }{
	{"ben-or/F", `{"version":1,"env":{"n":8},"protocol":{"name":"ben-or","options":{"F":5}}}`,
		"consensus: f = 5 must satisfy 0 <= 3f < n (n = 8)"},
	{"ben-or/Init", `{"version":1,"env":{"n":8},"protocol":{"name":"ben-or","options":{"Init":"bogus"}}}`,
		`runner: unknown ben-or Init "bogus"`},
	{"ben-or/Coin", `{"version":1,"env":{"n":8},"protocol":{"name":"ben-or","options":{"Coin":"bogus"}}}`,
		`runner: unknown ben-or Coin "bogus"`},
	{"ben-or/max_rounds", `{"version":1,"env":{"n":8,"max_rounds":-1},"protocol":{"name":"ben-or"}}`,
		"consensus: MaxRounds = -1 must be positive"},
	{"synchronized-election/max_rounds", `{"version":1,"env":{"n":8,"max_rounds":-1},"protocol":{"name":"synchronized-election"}}`,
		"synchronizer: round budget -1 must not be negative"},
	{"synchronized-election/Kind-alpha-one-way", `{"version":1,"env":{"n":6},"protocol":{"name":"synchronized-election","options":{"Kind":2}}}`,
		"synchronizer: alpha needs a bidirectional graph"},
	{"synchronized-election/Kind", `{"version":1,"env":{"n":8},"protocol":{"name":"synchronized-election","options":{"Kind":9}}}`,
		"synchronizer: unknown kind kind(9)"},
	{"itai-rodeh-sync/Q-above-1", `{"version":1,"env":{"n":8},"protocol":{"name":"itai-rodeh-sync","options":{"Q":2}}}`,
		"election: candidacy probability 2 outside (0, 1]"},
	{"itai-rodeh-sync/Q-negative", `{"version":1,"env":{"n":8},"protocol":{"name":"itai-rodeh-sync","options":{"Q":-1}}}`,
		"election: candidacy probability -1 outside (0, 1]"},
	{"election/A0", `{"version":1,"env":{"n":8},"protocol":{"name":"election","options":{"A0":2}}}`,
		"core: A0 = 2 must be in (0, 1)"},
	{"election/KeepRunning", `{"version":1,"env":{"n":8},"protocol":{"name":"election","options":{"KeepRunning":true}}}`,
		"runner: Election.KeepRunning requires a finite Env.Horizon"},
	{"election/TickInterval", `{"version":1,"env":{"n":8},"protocol":{"name":"election","options":{"TickInterval":-1}}}`,
		"core: tick interval -1 must be non-negative and finite"},
	{"election/star", `{"version":1,"env":{"topology":{"name":"star","params":{"n":6}}},"protocol":{"name":"election"}}`,
		"topology: graph on 6 nodes embeds no directed Hamiltonian cycle"},
	{"clock-sync/Period", `{"version":1,"env":{"n":8},"protocol":{"name":"clock-sync","options":{"Period":-1}}}`,
		"synchronizer: period -1 must be positive and finite"},
	{"clock-sync/Rounds", `{"version":1,"env":{"n":8},"protocol":{"name":"clock-sync","options":{"Rounds":-5}}}`,
		"synchronizer: round budget -5 must not be negative"},
	{"chang-roberts/Arrangement", `{"version":1,"env":{"n":8},"protocol":{"name":"chang-roberts","options":{"Arrangement":9}}}`,
		"election: unknown arrangement 9"},
}

// undecoded returns doc's scenario as it stands, without the decode door's
// check.
func undecoded(t *testing.T, doc string) (runner.Env, runner.Protocol) {
	t.Helper()
	var s Spec
	if err := strictUnmarshal([]byte(doc), &s); err != nil {
		t.Fatal(err)
	}
	env, p, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	return env, p
}

// TestDecodeRefusesWhatCannotRun: spec.Validate makes the check runner.Run
// makes, so DecodeBytes refuses each document with the error its run gives,
// and runner.Run gives that error instead of panicking.
func TestDecodeRefusesWhatCannotRun(t *testing.T) {
	for _, tc := range refusedDocs {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeBytes([]byte(tc.doc)); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("DecodeBytes = %v, want an error containing %q", err, tc.want)
			}
			if _, err := runner.Run(undecoded(t, tc.doc)); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("runner.Run = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// TestBareSizeNamesTheProtocolsGraph: a bare n is the graph the protocol
// runs on, at both doors. Ben-Or's complete graph has the edge 0->5, so a
// link-down on it decodes and runs; the election's ring has no such edge, so
// both doors refuse the same event.
func TestBareSizeNamesTheProtocolsGraph(t *testing.T) {
	doc := func(proto string) string {
		return fmt.Sprintf(`{"version":1,"env":{"n":8,"seed":1,"faults":{"events":[{"kind":"link-down","at":1,"from":0,"to":5}]}},"protocol":{"name":%q}}`, proto)
	}
	s, err := DecodeBytes([]byte(doc("ben-or")))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults.LinkDrops == 0 {
		t.Fatalf("the link-down on 0->5 dropped nothing: %+v", rep.Faults)
	}
	if _, err := DecodeBytes([]byte(doc("election"))); !errors.Is(err, runner.ErrEnvFaults) {
		t.Fatalf("election: DecodeBytes = %v, want ErrEnvFaults", err)
	}
	if _, err := runner.Run(undecoded(t, doc("election"))); !errors.Is(err, runner.ErrEnvFaults) {
		t.Fatalf("election: runner.Run = %v, want ErrEnvFaults", err)
	}
}

// mustRun runs a decoded single-run document of at most 64 nodes with its
// event budget capped at 20 000. A decoded spec is runnable, so the run may
// fail only by a budget running out: events, or a synchronizer's rounds.
func mustRun(t *testing.T, s *Spec) {
	t.Helper()
	if s.Sweep != nil {
		return
	}
	env, p, err := s.Build()
	if err != nil {
		t.Fatalf("a decoded spec does not build: %v", err)
	}
	if n := env.N; n > 64 || env.Graph != nil && env.Graph.N() > 64 {
		return
	}
	if env.MaxEvents == 0 || env.MaxEvents > 20_000 {
		env.MaxEvents = 20_000
	}
	if _, err := runner.Run(env, p); err != nil && !errors.Is(err, sim.ErrMaxEvents) && !errors.Is(err, synchronizer.ErrRoundBudget) {
		t.Fatalf("a decoded spec fails to run: %v", err)
	}
}
