// Quickstart: elect a leader on an anonymous unidirectional ABE ring.
//
// The library's API has three pieces, mirroring the paper's separation of
// network and algorithm:
//
//   - Env states the ABE environment (Definition 1) once: topology, link
//     delays (δ), clock speeds ([s_low, s_high]), processing times (γ),
//     and the seed.
//   - A Protocol bundles one algorithm with its options — here Election,
//     the paper's probabilistic leader election. Zero values select
//     balanced defaults.
//   - Run executes any protocol on any environment and returns a common
//     Report.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"abenet"
)

func main() {
	const n = 32

	// The paper's canonical setting: n nodes in a one-way ring, no
	// identities, exponential link delays with known expected delay δ = 1,
	// perfect clocks. Election{} defaults A0 to the balanced 1/n² — see
	// abenet.A0ForRing for the derivation.
	env := abenet.Env{N: n, Delay: abenet.Exponential(1), Seed: 42}

	rep, err := abenet.Run(env, abenet.Election{})
	if err != nil {
		log.Fatal(err)
	}

	extra := rep.Extra.(abenet.ElectionExtra)
	fmt.Printf("elected node %d on an anonymous ring of %d\n", rep.LeaderIndex, n)
	fmt.Printf("  virtual time : %.2f time units (δ = 1)\n", rep.Time)
	fmt.Printf("  messages     : %d (%.2f per node — the paper's linear average)\n",
		rep.Messages, float64(rep.Messages)/n)
	fmt.Printf("  activations  : %d candidate wake-ups, %d knocked out\n",
		extra.Activations, extra.Knockouts)

	// The same election runs unchanged on any topology embedding a ring —
	// here a hypercube; messages travel its Hamiltonian cycle.
	cube, err := abenet.Run(abenet.Env{Graph: abenet.Hypercube(5), Seed: 42}, abenet.Election{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsame protocol on a hypercube(5): node %d won with %d messages\n",
		cube.LeaderIndex, cube.Messages)

	// Averages need repetition. A sweep needs no adapter code: x is the
	// ring size, seeds are derived deterministically per repetition.
	sweep := abenet.Sweep{Name: "quickstart", Repetitions: 100, Seed: 7}
	points, err := sweep.Run([]float64{n}, abenet.SweepSizes(abenet.Env{}, abenet.Election{}), abenet.RequireElected)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nover 100 seeded runs:\n")
	fmt.Printf("  mean messages : %s\n", points[0].Samples["messages"])
	fmt.Printf("  mean time     : %s\n", points[0].Samples["time"])
}
