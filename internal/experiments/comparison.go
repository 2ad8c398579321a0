package experiments

import (
	"fmt"

	"abenet/internal/dist"
	"abenet/internal/harness"
	"abenet/internal/runner"
	"abenet/internal/synchronizer"
	"abenet/internal/topology"
)

// heartbeatProto is the E8(a) workload: one payload per edge per round.
type heartbeatProto struct {
	limit int
}

func (p *heartbeatProto) Round(ctx synchronizer.NodeContext, round int, _ []synchronizer.Message) {
	if round >= p.limit {
		ctx.StopNetwork("rounds complete")
		return
	}
	for port := 0; port < ctx.OutDegree(); port++ {
		ctx.Send(port, round)
	}
}

// synchronizerCost is E8a: messages per round of a heartbeat workload, one
// run per (topology, synchronizer) case, each held against Theorem 1's n.
func synchronizerCost(opt Options) (*harness.Table, Findings, bool, error) {
	table := harness.NewTable(
		"E8a: synchronizer cost (messages per round, Theorem 1 bound is n)",
		"topology", "n", "|E|", "synchronizer", "msgs/round", ">= n")

	rounds := 40
	if opt.Quick {
		rounds = 15
	}
	cases := []struct {
		name  string
		graph *topology.Graph
		kind  synchronizer.Kind
	}{
		{"ring(16)", topology.Ring(16), synchronizer.KindRound},
		{"biring(16)", topology.BiRing(16), synchronizer.KindRound},
		{"complete(8)", topology.Complete(8), synchronizer.KindRound},
		{"hypercube(4)", topology.Hypercube(4), synchronizer.KindRound},
		{"biring(16)", topology.BiRing(16), synchronizer.KindAlpha},
		{"complete(8)", topology.Complete(8), synchronizer.KindAlpha},
		{"hypercube(4)", topology.Hypercube(4), synchronizer.KindAlpha},
		{"biring(16)", topology.BiRing(16), synchronizer.KindBeta},
		{"complete(8)", topology.Complete(8), synchronizer.KindBeta},
		{"hypercube(4)", topology.Hypercube(4), synchronizer.KindBeta},
		{"biring(16)", topology.BiRing(16), synchronizer.KindGamma},
		{"hypercube(4)", topology.Hypercube(4), synchronizer.KindGamma},
	}
	minOK := true
	for _, c := range cases {
		rep, err := runner.Run(
			runner.Env{Graph: c.graph, Seed: opt.Seed},
			runner.Synchronized{
				Kind:     c.kind,
				MakeNode: func(int) synchronizer.Node { return &heartbeatProto{limit: rounds} },
			},
		)
		if err != nil {
			return nil, nil, false, err
		}
		perRound := rep.Extra.(runner.SyncExtra).MessagesPerRound
		ok := perRound >= float64(c.graph.N())
		minOK = minOK && ok
		table.AddRow(c.name, fmt.Sprint(c.graph.N()), fmt.Sprint(c.graph.EdgeCount()),
			c.kind.String(), fmt.Sprintf("%.1f", perRound), fmt.Sprintf("%v", ok))
	}
	return table, Findings{"min_messages_per_round_ok": boolTo01(minOK)}, minOK, nil
}

func boolTo01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// clockSynchronizer is E9, the Section 2 argument for why ABE networks need
// message-driven synchronizers: the zero-overhead clock-driven ABD
// synchronizer keeps perfect rounds when delays are truly bounded, but on
// an ABE network (same mean delay, unbounded support) every period choice
// leaves a positive violation rate that only decays with the period.
func clockSynchronizer(opt Options) (*harness.Table, Findings, bool, error) {
	table := harness.NewTable(
		"E9: TKZ clock synchronizer, ABD (uniform[0,1]) vs ABE (exp(0.5)) delays, mean 0.5 both",
		"period", "ABD violations", "ABD rate", "ABE violations", "ABE rate")
	rounds := 400
	if opt.Quick {
		rounds = 100
	}
	var abeRates []float64
	abdAlwaysZero := true
	for _, period := range []float64{1.5, 2, 3, 4, 6} {
		cells := []string{fmt.Sprintf("%g", period)}
		for i, delay := range []dist.Dist{dist.NewUniform(0, 1), dist.NewExponential(0.5)} {
			rep, err := runner.Run(
				runner.Env{N: 16, Delay: delay, Seed: opt.Seed},
				runner.ClockSync{Period: period, Rounds: rounds},
			)
			if err != nil {
				return nil, nil, false, err
			}
			sync := rep.Extra.(runner.ClockSyncExtra)
			cells = append(cells, fmt.Sprint(sync.RoundViolations), fmt.Sprintf("%.4f", sync.ViolationRate))
			if i == 0 { // the bounded-delay (ABD) network
				abdAlwaysZero = abdAlwaysZero && sync.RoundViolations == 0
			} else {
				abeRates = append(abeRates, sync.ViolationRate)
			}
		}
		table.AddRow(cells...)
	}
	// ABD must be perfect; ABE must violate at small periods and decay.
	return table, Findings{
		"abd_always_zero":   boolTo01(abdAlwaysZero),
		"abe_rate_period_2": abeRates[1],
	}, abdAlwaysZero && abeRates[0] > 0 && abeRates[len(abeRates)-1] < abeRates[0], nil
}
