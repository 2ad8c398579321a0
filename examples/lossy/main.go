// Lossy: the fault-injection walkthrough — what happens to the paper's
// election when the ABE comfort zone ends.
//
// Definition 1 bounds the *expectation* of message delays; it says nothing
// about messages that never arrive, nodes that die, or segments that
// partition. This example leaves that comfort zone in three acts:
//
//  1. A loss sweep: raw per-message loss versus the same physical loss
//     handled by stop-and-wait ARQ (the paper's Section 1 case (iii)).
//     Raw loss breaks guaranteed termination; ARQ restores it and merely
//     inflates the expected delay to slot/p — which is exactly the regime
//     the ABE model absorbs.
//  2. Crash–recovery churn: nodes keep dying and restarting with fresh
//     state while the election runs anyway.
//  3. A scripted partition that heals — with a twist. Healing the
//     *network* is not enough: the election has no self-stabilization
//     (nodes knocked passive never re-candidate), so once every token has
//     died at the cut the healed ring stays leaderless forever. Two
//     escapes are shown: restart churn — crash-recovery bringing nodes
//     back as fresh idle candidates — and the opt-in re-candidacy
//     timeout (Election.RecandidacyTimeout), which lets a quiesced
//     passive node rejoin as a candidate in a fresh epoch without any
//     node ever dying.
//
// Every run is a pure function of (environment, fault plan, seed) — rerun
// the example and the tables reproduce byte for byte.
//
// Run with:
//
//	go run ./examples/lossy
package main

import (
	"fmt"
	"log"

	"abenet"
	"abenet/internal/simtime"
)

const (
	n       = 16
	horizon = simtime.Time(2000)
	reps    = 40
)

func main() {
	lossSweep()
	churn()
	partition()
}

// lossSweep contrasts raw loss with ARQ-protected loss across 0–20%.
func lossSweep() {
	fmt.Println("Act 1 — loss sweep: raw loss vs stop-and-wait ARQ")
	fmt.Println("loss   raw: elected   raw: time   arq: elected   arq: time")
	for _, loss := range []float64{0, 0.05, 0.10, 0.20} {
		raw := sweep("raw", abenet.Env{N: n, Horizon: horizon},
			&abenet.FaultPlan{Loss: loss})
		arq := sweep("arq", abenet.Env{
			N: n,
			// Same physical loss rate, but every transmission is retried
			// until it lands: mean delay slot/p, no message ever lost.
			Links: abenet.ARQLinks(1-loss, 1),
			Delta: 1 / (1 - loss),
		}, nil)
		fmt.Printf("%3.0f%%   %11.0f%%   %9.1f   %11.0f%%   %9.1f\n",
			loss*100, raw.elected*100, raw.time, arq.elected*100, arq.time)
	}
	fmt.Println()
}

// churn runs the election under permanent crash-recovery pressure.
func churn() {
	fmt.Println("Act 2 — crash-recovery churn (crash rate 0.01, recovery rate 0.1)")
	rep, err := abenet.Run(abenet.Env{
		N:       n,
		Seed:    7,
		Horizon: horizon,
		Faults:  &abenet.FaultPlan{CrashRate: 0.01, RecoverRate: 0.1},
	}, abenet.Election{})
	if err != nil {
		log.Fatal(err)
	}
	tel := rep.Faults
	fmt.Printf("leader elected      : node %d at t=%.1f (leaders: %d)\n",
		rep.LeaderIndex, rep.Time, rep.Leaders)
	fmt.Printf("churn survived      : %d crashes, %d recoveries, %d dead letters, %d stale timers\n\n",
		tel.Crashes, tel.Recoveries, tel.DeadLetters, tel.TimersSuppressed)
}

// partition cuts the ring in half during [0, 60), heals it, and shows
// that only restart churn brings the wedged protocol back.
func partition() {
	fmt.Println("Act 3 — partition {0..7} | {8..15} during [0, 60), then heal")
	cut := abenet.PartitionDuring(0, 60, 0, 1, 2, 3, 4, 5, 6, 7)

	// Heal alone: every token dies at the cut, the survivors are passive,
	// and passive nodes never re-candidate. The healed ring is wedged.
	wedged, err := abenet.Run(abenet.Env{
		N: n, Seed: 11, Horizon: horizon,
		Faults: &abenet.FaultPlan{Events: cut},
	}, abenet.Election{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("heal alone          : elected=%v after %.0f time units (%d sends died at the cut)\n",
		wedged.Elected, wedged.Time, wedged.Faults.LinkDrops)

	// Heal plus churn: restarts return nodes to the idle state, fresh
	// candidacies flow, and the election completes after the heal.
	healed, err := abenet.Run(abenet.Env{
		N: n, Seed: 2, Horizon: 5000,
		Faults: &abenet.FaultPlan{Events: cut, CrashRate: 0.005, RecoverRate: 0.05},
	}, abenet.Election{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("heal + churn        : elected=%v — node %d wins at t=%.1f (churn: %d restarts)\n",
		healed.Elected, healed.LeaderIndex, healed.Time, healed.Faults.Recoveries)

	// Heal plus re-candidacy: same scenario and seed as the wedged run,
	// but passive nodes that see no traffic for 150 local time units
	// rejoin as candidates (in a fresh epoch, so stale knowledge cannot
	// corrupt the hop arithmetic). Liveness returns without a single
	// crash.
	revived, err := abenet.Run(abenet.Env{
		N: n, Seed: 11, Horizon: horizon,
		Faults: &abenet.FaultPlan{Events: cut},
	}, abenet.Election{RecandidacyTimeout: 150})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("heal + re-candidacy : elected=%v — node %d wins at t=%.1f (%d re-candidacies, 0 crashes)\n",
		revived.Elected, revived.LeaderIndex, revived.Time,
		revived.Extra.(abenet.ElectionExtra).Recandidacies)
}

// outcome aggregates a small seeded sweep by hand (the experiment harness
// does this at scale; see claim E13 in internal/experiments/claims.go).
type outcome struct{ elected, time float64 }

func sweep(label string, env abenet.Env, plan *abenet.FaultPlan) outcome {
	var out outcome
	for seed := 0; seed < reps; seed++ {
		env := env
		env.Seed = 1000*uint64(seed) + 17
		env.Faults = plan
		rep, err := abenet.Run(env, abenet.Election{})
		if err != nil {
			log.Fatalf("%s sweep: %v", label, err)
		}
		if rep.Elected {
			out.elected++
		}
		out.time += rep.Time
	}
	out.elected /= reps
	out.time /= reps
	return out
}
