package abenet_test

import (
	"testing"

	"abenet"
)

// These tests exercise the public facade end to end: a downstream user's
// first contact with the library must work exactly as documented.

func TestFacadeElection(t *testing.T) {
	res, err := abenet.Run(abenet.Env{N: 16, Seed: 1}, abenet.Election{A0: abenet.DefaultA0(16)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Leaders != 1 || !res.Elected {
		t.Fatalf("result: %+v", res)
	}
	if res.Params.Delta != 1 {
		t.Fatalf("default δ = %v, want 1", res.Params.Delta)
	}
}

func TestFacadeElectionOnARQLinks(t *testing.T) {
	// The sensor-network scenario: lossy radio with p = 0.5 and 0.5-unit
	// slots gives expected delay 1 — an ABE network by Section 1 (iii).
	res, err := abenet.Run(
		abenet.Env{N: 8, Links: abenet.ARQLinks(0.5, 0.5), Seed: 2},
		abenet.Election{A0: abenet.DefaultA0(8)},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Leaders != 1 {
		t.Fatalf("leaders = %d", res.Leaders)
	}
	if res.Transmissions <= res.Messages {
		t.Fatalf("ARQ links must retransmit: %d transmissions for %d messages",
			res.Transmissions, res.Messages)
	}
}

func TestFacadeDelayConstructors(t *testing.T) {
	dists := []abenet.DelayDist{
		abenet.Deterministic(1),
		abenet.Uniform(0, 2),
		abenet.Exponential(1),
		abenet.Retransmission(0.5, 0.5),
		abenet.ParetoWithMean(1, 2),
		abenet.Erlang(3, 1),
		abenet.Bimodal(abenet.Deterministic(0.5), abenet.Deterministic(5.5), 0.1),
	}
	for _, d := range dists {
		if d.Mean() <= 0 {
			t.Fatalf("%s mean = %v", d.Name(), d.Mean())
		}
	}
}

func TestFacadeBaselines(t *testing.T) {
	env := abenet.Env{N: 8, Seed: 1}
	for _, p := range []abenet.Protocol{abenet.ItaiRodehSync{}, abenet.ItaiRodehAsync{}, abenet.ChangRoberts{}} {
		if res, err := abenet.Run(env, p); err != nil || res.Leaders != 1 {
			t.Fatalf("%s: %+v, %v", p.Name(), res, err)
		}
	}
}

// broadcastProto floods one counter per round for a fixed number of rounds.
type broadcastProto struct{ limit int }

func (p *broadcastProto) Round(ctx abenet.SyncProtocolContext, round int, inbox []abenet.SyncMessage) {
	if round >= p.limit {
		ctx.StopNetwork("done")
		return
	}
	for port := 0; port < ctx.OutDegree(); port++ {
		ctx.Send(port, round)
	}
}

func TestFacadeSynchronizer(t *testing.T) {
	res, err := abenet.Run(abenet.Env{Graph: abenet.Ring(6), Seed: 3}, abenet.Synchronized{
		Kind:     abenet.SyncRound,
		MakeNode: func(int) abenet.SyncProtocol { return &broadcastProto{limit: 15} },
	})
	if err != nil {
		t.Fatal(err)
	}
	if perRound := res.Extra.(abenet.SyncExtra).MessagesPerRound; perRound < 6 {
		t.Fatalf("Theorem 1 violated by facade run: %v msgs/round", perRound)
	}
}

func TestFacadeClockSync(t *testing.T) {
	proto := abenet.ClockSync{Period: 1.1, Rounds: 100}
	abd, err := abenet.Run(abenet.Env{Graph: abenet.Ring(6), Delay: abenet.Uniform(0, 1), Seed: 4}, proto)
	if err != nil {
		t.Fatal(err)
	}
	if x := abd.Extra.(abenet.ClockSyncExtra); x.RoundViolations != 0 {
		t.Fatalf("ABD run violated: %+v", x)
	}
	abe, err := abenet.Run(abenet.Env{Graph: abenet.Ring(6), Delay: abenet.Exponential(0.5), Seed: 4}, proto)
	if err != nil {
		t.Fatal(err)
	}
	if x := abe.Extra.(abenet.ClockSyncExtra); x.RoundViolations == 0 {
		t.Fatal("ABE run produced no violations")
	}
}

func TestFacadeModelChecker(t *testing.T) {
	report, err := abenet.CheckElection(abenet.CheckOptions{N: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() {
		t.Fatalf("violations: %+v", report.Violations)
	}
}

func TestFacadeSweep(t *testing.T) {
	sweep := abenet.Sweep{Name: "facade", Repetitions: 20, Seed: 6}
	points, err := sweep.Run([]float64{8, 16, 32}, func(x float64) (abenet.Env, abenet.Protocol, error) {
		return abenet.Env{N: int(x)}, abenet.Election{A0: abenet.DefaultA0(int(x))}, nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	fit, err := abenet.GrowthExponent(points, "messages")
	if err != nil {
		t.Fatal(err)
	}
	if fit.Slope < 0.5 || fit.Slope > 1.6 {
		t.Fatalf("message growth exponent %v not near linear", fit.Slope)
	}
	table := abenet.PointsTable("demo", "n", points)
	if len(table.Rows) != 3 {
		t.Fatalf("table rows = %d", len(table.Rows))
	}
}

func TestFacadeClockModels(t *testing.T) {
	for _, m := range []abenet.ClockModel{
		abenet.PerfectClocks(),
		abenet.UniformClocks(0.5, 2),
		abenet.WanderingClocks(0.5, 2, 1),
	} {
		res, err := abenet.Run(abenet.Env{N: 6, Clocks: m, Seed: 7}, abenet.Election{A0: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		if res.Leaders != 1 {
			t.Fatalf("%T: leaders = %d", m, res.Leaders)
		}
	}
}

func TestFacadeParams(t *testing.T) {
	p := abenet.DefaultParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeUnifiedRun(t *testing.T) {
	// The single-door path: one Env, any protocol.
	env := abenet.Env{N: 16, Seed: 1}
	rep, err := abenet.Run(env, abenet.Election{})
	if err != nil {
		t.Fatal(err)
	}
	if err := abenet.RequireElected(rep); err != nil {
		t.Fatal(err)
	}
	if rep.Protocol != "election" {
		t.Fatalf("protocol = %q", rep.Protocol)
	}
	if _, ok := rep.Extra.(abenet.ElectionExtra); !ok {
		t.Fatalf("Extra is %T", rep.Extra)
	}

	// The zero-value options are the balanced default spelled out.
	explicit, err := abenet.Run(env, abenet.Election{A0: abenet.DefaultA0(16)})
	if err != nil {
		t.Fatal(err)
	}
	if explicit.LeaderIndex != rep.LeaderIndex || explicit.Messages != rep.Messages || explicit.Time != rep.Time {
		t.Fatalf("explicit default A0 diverged from the zero value:\n explicit: %+v\n zero:     %+v", explicit, rep)
	}
}

func TestFacadeRegistry(t *testing.T) {
	names := abenet.Protocols()
	if len(names) == 0 {
		t.Fatal("empty protocol registry")
	}
	p, ok := abenet.ProtocolByName("election")
	if !ok {
		t.Fatal("election not registered")
	}
	rep, err := abenet.Run(abenet.Env{N: 8, Seed: 2}, p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Leaders != 1 {
		t.Fatalf("leaders = %d", rep.Leaders)
	}
}

func TestFacadePeterson(t *testing.T) {
	rep, err := abenet.Run(abenet.Env{N: 12, Seed: 3}, abenet.Peterson{})
	if err != nil {
		t.Fatal(err)
	}
	if err := abenet.RequireElected(rep); err != nil {
		t.Fatal(err)
	}
	// The descending arrangement is Peterson's showcase: it stays
	// O(n log n) where Chang-Roberts goes quadratic.
	pet, err := abenet.Run(abenet.Env{N: 32, Seed: 4},
		abenet.Peterson{Arrangement: abenet.ArrangementDescending})
	if err != nil {
		t.Fatal(err)
	}
	cr, err := abenet.Run(abenet.Env{N: 32, Seed: 4},
		abenet.ChangRoberts{Arrangement: abenet.ArrangementDescending})
	if err != nil {
		t.Fatal(err)
	}
	if pet.Messages >= cr.Messages {
		t.Fatalf("Peterson (%d msgs) should beat Chang-Roberts (%d msgs) on descending rings",
			pet.Messages, cr.Messages)
	}
}

func TestFacadeElectionOnNonRingTopology(t *testing.T) {
	// The environments the old config structs could not express: the same
	// election on a hypercube, routed along its embedded Hamiltonian cycle.
	rep, err := abenet.Run(abenet.Env{Graph: abenet.Hypercube(3), Seed: 5}, abenet.Election{})
	if err != nil {
		t.Fatal(err)
	}
	if err := abenet.RequireElected(rep); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeSweepRunProtocol(t *testing.T) {
	sweep := abenet.Sweep{Name: "facade-by-name", Repetitions: 10, Seed: 8}
	proto, ok := abenet.ProtocolByName("itai-rodeh-async")
	if !ok {
		t.Fatal("itai-rodeh-async is not registered")
	}
	points, err := sweep.Run([]float64{6, 10}, abenet.SweepSizes(abenet.Env{}, proto), abenet.RequireElected)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 || points[0].Mean("messages") <= 0 {
		t.Fatalf("unexpected points: %+v", points)
	}
}

func TestFacadeClockSyncShimValidation(t *testing.T) {
	// Zero Period and Rounds select the documented defaults; values no
	// default can repair are errors, not silent substitutions.
	env := abenet.Env{Graph: abenet.Ring(4)}
	rep, err := abenet.Run(env, abenet.ClockSync{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rounds != 100 {
		t.Fatalf("default rounds = %d, want 100", rep.Rounds)
	}
	if _, err := abenet.Run(env, abenet.ClockSync{Period: -1, Rounds: 10}); err == nil {
		t.Fatal("negative period must error")
	}
	if _, err := abenet.Run(env, abenet.ClockSync{Period: 2, Rounds: -1}); err == nil {
		t.Fatal("negative rounds must error")
	}
}
