package experiments

import (
	"fmt"
	"time"

	"abenet/internal/harness"
	"abenet/internal/runner"
	"abenet/internal/sim"
)

// scaleSizes is the E16 ladder. The full ladder tops out at one million
// nodes — the headline the pluggable schedulers and the pooled delivery
// path exist for; Quick stops at 10⁴ so the suite stays benchmark-friendly.
var scaleSizes = []int{1_000, 10_000, 100_000, 1_000_000}

// scaleRung parameterises one ladder rung. The per-node activation
// probability A0 = 1/n with tick interval n keeps the total event count
// O(n): in each tick round (n virtual time units, n tick events) about one
// node self-activates, so only O(1) candidate tokens circulate while the
// election resolves. The paper's default A0 = c/n² with unit ticks has the
// same message complexity but takes Θ(n²) tick events to get there —
// quadratic kernel work that would make the 10⁶ rung unreachable whatever
// the scheduler.
func scaleRung(n int, scheduler string, seed uint64) (runner.Env, runner.Election) {
	return runner.Env{N: n, Seed: seed, Scheduler: scheduler, MaxEvents: 2_000_000_000},
		runner.Election{A0: 1 / float64(n), TickInterval: float64(n)}
}

// E16Scale measures event throughput of the ring election ladder
// n = 10³..10⁶ under each kernel scheduler. Both schedulers implement the
// identical (time, seq) order, so the runs must agree on every result
// field — the experiment fails if they diverge, making it a determinism
// check at sizes the golden-seed suite cannot afford. The finding
// max_n_elected is the largest ring that completed with exactly one
// leader.
func E16Scale(opt Options) (Result, error) {
	res := Result{
		ID:    "E16",
		Claim: "a single ring election at n = 10⁶ completes in memory on one machine; schedulers agree byte-for-byte",
	}
	table := harness.NewTable(
		"E16: election scaling ladder (A0 = 1/n, tick = n), events/sec per scheduler",
		"n", "scheduler", "events", "messages", "elected", "wall s", "events/sec")

	sizes := scaleSizes
	if opt.Quick {
		sizes = sizes[:2]
	}
	// scaleDigest is the comparable cross-scheduler fingerprint of a run
	// (Report itself holds slices, so it cannot be compared with ==).
	type scaleDigest struct {
		events, messages uint64
		leaders, leader  int
		time             float64
		activations      int
	}
	digest := func(r runner.Report) scaleDigest {
		return scaleDigest{r.Events, r.Messages, r.Leaders, r.LeaderIndex, r.Time, r.Extra.(runner.ElectionExtra).Activations}
	}

	res.Pass = true
	maxElected := 0.0
	for _, n := range sizes {
		var ref scaleDigest
		for i, sched := range sim.SchedulerNames() {
			start := time.Now()
			env, proto := scaleRung(n, sched, opt.Seed)
			r, err := runner.Run(env, proto)
			if err != nil {
				return res, fmt.Errorf("E16: n=%d scheduler=%s: %w", n, sched, err)
			}
			wall := time.Since(start).Seconds()
			if i == 0 {
				ref = digest(r)
			} else if digest(r) != ref {
				res.Pass = false
			}
			if r.Leaders != 1 {
				res.Pass = false
			}
			eps := float64(r.Events) / wall
			table.AddRow(
				fmt.Sprintf("%d", n),
				sched,
				fmt.Sprintf("%d", r.Events),
				fmt.Sprintf("%d", r.Messages),
				fmt.Sprintf("%v", r.Elected),
				fmt.Sprintf("%.2f", wall),
				fmt.Sprintf("%.3g", eps),
			)
			if r.Leaders == 1 && float64(n) > maxElected {
				maxElected = float64(n)
			}
		}
	}
	res.Table = table
	res.Findings = Findings{"max_n_elected": maxElected}
	return res, nil
}
