package runner

import (
	"fmt"

	"abenet/internal/channel"
	"abenet/internal/consensus"
	"abenet/internal/network"
	"abenet/internal/topology"
)

// BenOr is Ben-Or's randomized binary consensus (PODC 1983) running
// message-driven on the ABE network. It is the registry's only protocol
// honouring Env.Byzantine and Env.LocalBroadcast: an adversary plan makes
// the role holders lie on the wire, and the local-broadcast medium forces
// every lie to be consistent — the Khan & Vaidya separation experiment E14
// sweeps. Env.Graph must be complete (nil builds topology.Complete over
// Env.N); Env.MaxRounds caps the asynchronous round number (0 means 200).
// Extra: ConsensusExtra.
type BenOr struct {
	// F is the provisioned adversary budget: nodes wait for n−F values per
	// phase. Must satisfy 3F < n; 0 means the maximal floor((n−1)/3). The
	// Byzantine plan may assign more roles than F — that is how an
	// experiment probes past the tolerance bound.
	F int
	// Init selects the initial-value assignment: "random" (default),
	// "zeros", "ones" or "half".
	Init string
	// Coin selects the fallback coin: "local" (default, Ben-Or's private
	// coin) or "common" (a shared-coin oracle).
	Coin string
}

// Name implements Protocol.
func (BenOr) Name() string { return "ben-or" }

func (BenOr) capabilities() Capabilities {
	return Capabilities{Faults: true, Byzantine: true, Broadcast: true, Observe: true, Trace: true}
}

func (BenOr) extra() any { return ConsensusExtra{} }

// defaultEdges: the complete graph Run builds from a bare N.
func (BenOr) defaultEdges(n int) float64 { return float64(n) * float64(n-1) }

// Run implements Protocol.
func (p BenOr) Run(env Env) (Report, error) {
	n, err := env.size()
	if err != nil {
		return Report{}, err
	}
	graph := env.Graph
	if graph == nil {
		// The runner's ring default cannot carry Ben-Or's all-hear-all
		// counting rules; a bare N means the complete graph here.
		graph = topology.Complete(n)
	}
	f := p.F
	if f == 0 {
		f = (n - 1) / 3
	}
	init, err := parseInit(p.Init)
	if err != nil {
		return Report{}, err
	}
	coin, err := parseCoin(p.Coin)
	if err != nil {
		return Report{}, err
	}
	engine, err := consensus.New(consensus.Config{
		F:         f,
		Init:      init,
		Coin:      coin,
		MaxRounds: env.MaxRounds,
	}, graph, env.Seed, env.Byzantine)
	if err != nil {
		return Report{}, err
	}
	return runNetwork(env, netProtocol{
		graph:    graph,
		links:    channel.RandomDelayFactory,
		makeNode: func(i, _ int) (network.Node, error) { return engine.MakeNode(i), nil },
		gauges:   engine,
		// Nothing the remaining traffic does can change the verdict once
		// every honest node has decided, so the run stops there.
		started: func(net *network.Network) { engine.OnAllDecided(net.Kernel().Stop) },
		collect: func(rep *Report) error {
			res := engine.Result()
			rep.Rounds = res.Rounds
			rep.Violations = res.Violations
			rep.Extra = ConsensusExtra{
				F:             res.F,
				Honest:        res.Honest,
				Decided:       res.Decided,
				Decision:      res.Decision,
				Agreement:     res.Agreement,
				Validity:      res.Validity,
				Termination:   res.Termination,
				DecisionRound: res.DecisionRound,
				CoinFlips:     res.CoinFlips,
				Ignored:       res.Ignored,
			}
			return nil
		},
	})
}

// parseInit maps the BenOr.Init vocabulary onto consensus.InitKind.
func parseInit(s string) (consensus.InitKind, error) {
	switch s {
	case "", "random":
		return consensus.InitRandom, nil
	case "zeros":
		return consensus.InitZeros, nil
	case "ones":
		return consensus.InitOnes, nil
	case "half":
		return consensus.InitHalf, nil
	default:
		return 0, fmt.Errorf("runner: unknown ben-or Init %q (random, zeros, ones, half)", s)
	}
}

// parseCoin maps the BenOr.Coin vocabulary onto consensus.Coin.
func parseCoin(s string) (consensus.Coin, error) {
	switch s {
	case "", "local":
		return consensus.CoinLocal, nil
	case "common":
		return consensus.CoinCommon, nil
	default:
		return 0, fmt.Errorf("runner: unknown ben-or Coin %q (local, common)", s)
	}
}
