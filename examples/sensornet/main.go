// Sensornet: the paper's motivating scenario, Section 1 case (iii).
//
// Sensor radios lose packets: each physical transmission succeeds only
// with probability p, so messages are retransmitted until they get
// through (stop-and-wait ARQ). The number of transmissions is unbounded —
// no ABD-style hard delay bound exists — but its expectation is exactly
// k_avg = Σ (k+1)(1−p)^k·p = 1/p, so the link has a *known bound on the
// expected delay*: an ABE network.
//
// This example (a) verifies k_avg = 1/p on a simulated lossy link, and
// (b) elects a cluster head over those lossy radios with the paper's
// algorithm.
//
// Run with:
//
//	go run ./examples/sensornet
package main

import (
	"fmt"
	"log"

	"abenet"
)

func main() {
	fmt.Println("== part 1: lossy-channel arithmetic (k_avg = 1/p) ==")
	// A ring where each hop is a lossy radio with p = 0.4 and 0.5-time-
	// unit slots: expected delay = slot/p = 1.25 per hop.
	const (
		p    = 0.4
		slot = 0.5
		n    = 24
	)
	delta := slot / p
	fmt.Printf("per-attempt success p=%.1f, slot=%.2f  =>  δ = slot/p = %.3f\n\n", p, slot, delta)

	fmt.Println("== part 2: cluster-head election over the lossy radios ==")
	res, err := abenet.Run(
		abenet.Env{N: n, Links: abenet.ARQLinks(p, slot), Seed: 2026},
		abenet.Election{A0: abenet.A0ForRing(n, delta, 1, 1)},
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cluster head : node %d (exactly %d leader)\n", res.LeaderIndex, res.Leaders)
	fmt.Printf("messages     : %d logical\n", res.Messages)
	fmt.Printf("transmissions: %d physical (%.2f per message — expect 1/p = %.2f)\n",
		res.Transmissions, float64(res.Transmissions)/float64(res.Messages), 1/p)
	fmt.Printf("δ reported   : %.3f (network's worst link mean, = slot/p)\n", res.Params.Delta)
	fmt.Printf("time         : %.1f units\n\n", res.Time)

	fmt.Println("== part 3: the same election across radio qualities ==")
	fmt.Printf("%-6s  %-10s  %-14s  %-12s\n", "p", "δ=slot/p", "transmissions", "time")
	for _, quality := range []float64{0.9, 0.6, 0.4, 0.2} {
		quality := quality
		d := slot / quality
		sweep := abenet.Sweep{Name: fmt.Sprintf("sensornet-p%.1f", quality), Repetitions: 40, Seed: 5}
		points, err := sweep.Run([]float64{quality}, func(float64) (abenet.Env, abenet.Protocol, error) {
			return abenet.Env{N: n, Links: abenet.ARQLinks(quality, slot)},
				abenet.Election{A0: abenet.A0ForRing(n, d, 1, 1)}, nil
		}, abenet.RequireElected)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6.1f  %-10.3f  %-14.1f  %-12.1f\n",
			quality, d, points[0].Mean("transmissions"), points[0].Mean("time"))
	}
	fmt.Println("\nworse radios stretch δ and the election time, but correctness and")
	fmt.Println("the linear message budget survive — only the *expected* delay matters.")
}
