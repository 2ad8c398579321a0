package runner

import (
	"slices"
	"testing"

	"abenet/internal/byzantine"
	"abenet/internal/topology"
)

// TestBenOrLosesAgreementPastItsBound pins a found result, not a fix.
// Experiment E14 provisions Ben-Or at f = ⌊(n−1)/3⌋, the regime of the
// Khan–Vaidya local-broadcast result it reproduces, which is past plain
// Ben-Or's own Byzantine bound n > 5f. Its "safe at every e < n/3" reading
// holds at base seed 1 and fails at base seeds 2 and 6 of 1–10: in the two
// runs below (repetition 19 of e14/bcast/complete-11 at e = 2 under base
// seed 2, repetition 25 of e14/bcast/complete-8 at e = 2 under base seed 6)
// two equivocators on the broadcast medium make honest nodes decide both
// values. What is asserted is that the monitor says so: the violation is in
// the report and Agreement is false. A change that makes these runs agree
// is a change to the protocol or the adversary and should say which.
func TestBenOrLosesAgreementPastItsBound(t *testing.T) {
	for _, tc := range []struct {
		n, f int
		seed uint64
	}{
		{11, 3, 3628227059990400743},
		{8, 2, 2211268606092793445},
	} {
		rep, err := Run(
			Env{
				Graph:          topology.Complete(tc.n),
				MaxRounds:      60,
				Byzantine:      byzantine.Equivocators(2),
				LocalBroadcast: true,
				Seed:           tc.seed,
			},
			BenOr{F: tc.f, Init: "half", Coin: "common"},
		)
		if err != nil {
			t.Fatal(err)
		}
		const want = "agreement violated: honest nodes decided both 1 and 0"
		if !slices.Contains(rep.Violations, want) {
			t.Errorf("complete(%d) f=%d: Violations = %q, want %q among them", tc.n, tc.f, rep.Violations, want)
		}
		if extra := rep.Extra.(ConsensusExtra); extra.Agreement {
			t.Errorf("complete(%d) f=%d: ConsensusExtra.Agreement is true in a run that decided both values: %+v", tc.n, tc.f, extra)
		}
	}
}
