// Adhoc: a heterogeneous ad-hoc network — the paper's Section 2 argument
// for declaring a *bound* on the expected delay rather than the expected
// delay itself.
//
// Links differ (short hops, congested hops, multi-hop routed stretches),
// cheap node clocks drift within known bounds, and event processing takes
// real time. No single "expected delay" describes this network; the
// tightest valid ABE declaration is δ = max over links of E[delay],
// s_low/s_high from the clock spec sheet, and γ from the CPU budget —
// exactly Definition 1. This example builds such a network, verifies the
// declaration mechanically, and elects a coordinator.
//
// Run with:
//
//	go run ./examples/adhoc
package main

import (
	"fmt"
	"log"

	"abenet"
	"abenet/internal/channel"
	"abenet/internal/core"
	"abenet/internal/dist"
)

func main() {
	const n = 20

	// Three link classes laid around the ring: fast line-of-sight hops,
	// congested hops that occasionally stall, and routed stretches that
	// cross several relays (Erlang stages).
	linkFor := func(edge int) dist.Dist {
		switch edge % 3 {
		case 0:
			return dist.NewUniform(0.1, 0.5) // line of sight: mean 0.3
		case 1:
			return dist.NewBimodal( // congestion: mean 0.4·0.9 + 4·0.1 = 0.76
				dist.NewDeterministic(0.4),
				dist.NewExponential(4),
				0.1,
			)
		default:
			return dist.NewErlang(3, 1.2) // routed: mean 1.2
		}
	}

	// The declared ABE parameters: δ must cover the worst link (1.2),
	// clocks are ±25% parts, and processing is budgeted at 0.05 expected.
	declared := core.Params{Delta: 1.2, SLow: 0.75, SHigh: 1.25, Gamma: 0.05}
	if err := declared.Validate(); err != nil {
		log.Fatal(err)
	}

	// The whole deployment is one Env: links, clocks, processing, seed.
	env := abenet.Env{
		N:          n,
		Links:      channel.HeterogeneousFactory(linkFor),
		Clocks:     abenet.WanderingClocks(0.75, 1.25, 2),
		Processing: abenet.Exponential(0.05),
		Seed:       7,
	}
	proto := abenet.Election{A0: abenet.A0ForRing(n, declared.Delta, 1, 1)}

	res, err := abenet.Run(env, proto)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("declared ABE bounds (Definition 1):")
	fmt.Printf("  δ = %.3g   s ∈ [%.3g, %.3g]   γ = %.3g\n",
		declared.Delta, declared.SLow, declared.SHigh, declared.Gamma)
	fmt.Println("tightest parameters of the built network:")
	fmt.Printf("  δ = %.3g   s ∈ [%.3g, %.3g]   γ = %.3g\n",
		res.Params.Delta, res.Params.SLow, res.Params.SHigh, res.Params.Gamma)
	if declared.Admits(res.Params) {
		fmt.Println("  => declaration VALID: the network is ABE under these bounds")
	} else {
		fmt.Println("  => declaration INVALID")
	}

	fmt.Printf("\ncoordinator elected: node %d (%d leader)\n", res.LeaderIndex, res.Leaders)
	fmt.Printf("messages: %d, time: %.1f units\n", res.Messages, res.Time)

	// Average behaviour over many deployments: the sweep reuses the same
	// (env, protocol) pair and injects per-repetition seeds.
	sweep := abenet.Sweep{Name: "adhoc", Repetitions: 60, Seed: 99}
	points, err := sweep.Run([]float64{n}, func(float64) (abenet.Env, abenet.Protocol, error) {
		return env, proto, nil
	}, abenet.RequireElected)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nover 60 deployments: messages %s, time %s\n",
		points[0].Samples["messages"], points[0].Samples["time"])
	fmt.Println("heterogeneity moves the constants; the ABE guarantees hold unchanged.")
}
