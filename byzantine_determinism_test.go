package abenet_test

import (
	"fmt"
	"testing"

	"abenet"
	"abenet/internal/golden"
)

// goldenByzantineEnv is the pinned (Env, Plan, seed) triple for the
// adversary subsystem: Ben-Or at the f < n/3 edge on the local-broadcast
// medium, with every adversarial behaviour class active at once — an
// equivocator (which the medium degrades to consistent corruption), a
// probabilistic corruptor, and a staller with a non-default hold-back
// distribution.
func goldenByzantineEnv() (abenet.Env, abenet.Protocol) {
	plan := &abenet.ByzantinePlan{Roles: []abenet.ByzantineRole{
		{Node: 0, Behavior: abenet.Equivocate},
		{Node: 1, Behavior: abenet.Corrupt, Prob: 0.5},
		{Node: 2, Behavior: abenet.Stall, StallDelay: abenet.Exponential(2)},
	}}
	env := abenet.Env{
		Graph:          abenet.Complete(11),
		Seed:           4242,
		MaxRounds:      60,
		Byzantine:      plan,
		LocalBroadcast: true,
	}
	return env, abenet.BenOr{F: 3, Init: "half", Coin: "common"}
}

// TestGoldenByzantineRun pins the exact trajectory of the golden adversarial
// consensus run: an adversarial run is a pure function of (Env, Plan, seed),
// so its counters and end time in testdata/golden_byzantine_run.golden only
// change when the kernel, the RNG derivation tree, the broadcast medium or
// the adversary semantics change — which must be deliberate and explained in
// the same commit (the Byzantine analogue of TestGoldenFaultRun).
func TestGoldenByzantineRun(t *testing.T) {
	env, proto := goldenByzantineEnv()
	rep, err := abenet.Run(env, proto)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults == nil || rep.Faults.Byzantine == nil {
		t.Fatal("no adversary telemetry")
	}
	extra, ok := rep.Extra.(abenet.ConsensusExtra)
	if !ok {
		t.Fatalf("Extra is %T, want ConsensusExtra", rep.Extra)
	}
	byz := rep.Faults.Byzantine
	// The virtual-time trajectory, bit-exact, is the strongest indicator
	// that the broadcast and stall RNG derivation trees are unchanged.
	golden.Check(t, "golden_byzantine_run.golden", fmt.Sprintf(`messages %d
transmissions %d
rounds %d
violations %d
equivocations %d
corruptions %d
omissions %d
stalls %d
honest %d
decided %d
decision %d
decision_round %d
coin_flips %d
ignored %d
time %.9g
`, rep.Messages, rep.Transmissions, rep.Rounds, len(rep.Violations), byz.Equivocations,
		byz.Corruptions, byz.Omissions, byz.Stalls, extra.Honest, extra.Decided, extra.Decision,
		extra.DecisionRound, extra.CoinFlips, extra.Ignored, rep.Time))
	if !extra.Agreement || !extra.Validity || !extra.Termination {
		t.Fatalf("safety/liveness verdicts = %v/%v/%v, want all true",
			extra.Agreement, extra.Validity, extra.Termination)
	}
	// The radio medium defeated the equivocator: its substitutions are
	// consistent, so they land in Corruptions and Equivocations stays zero.
	if byz.Equivocations != 0 {
		t.Errorf("equivocations = %d on the broadcast medium, want 0", byz.Equivocations)
	}
}
