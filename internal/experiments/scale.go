package experiments

import (
	"fmt"
	"time"

	"abenet/internal/harness"
	"abenet/internal/runner"
	"abenet/internal/sim"
)

// scaleSizes is the E16 ladder, up to the million nodes the flat delivery
// path exists for; Quick stops at 10⁴ so the suite stays benchmark-friendly.
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

// scale is E16: event throughput of the ring election ladder under each
// kernel scheduler. Both implement the identical (time, seq) order, so the
// runs must agree on every result field — a determinism check at sizes the
// golden-seed suite cannot afford. The finding max_n_elected is the largest
// ring that completed with exactly one leader.
func scale(opt Options) (*harness.Table, Findings, bool, error) {
	table := harness.NewTable(
		"E16: election scaling ladder (A0 = 1/n, tick = n), events/sec per scheduler",
		"n", "scheduler", "events", "messages", "elected", "wall s", "events/sec")

	sizes := scaleSizes
	if opt.Quick {
		sizes = sizes[:2]
	}
	// digest is the comparable cross-scheduler fingerprint of a run (Report
	// itself holds slices, so it cannot be compared with ==).
	digest := func(r runner.Report) string {
		return fmt.Sprint(r.Events, r.Messages, r.Leaders, r.LeaderIndex, r.Time, r.Extra.(runner.ElectionExtra).Activations)
	}

	pass := true
	maxElected := 0.0
	for _, n := range sizes {
		var ref string
		for i, sched := range sim.SchedulerNames() {
			start := time.Now()
			env, proto := scaleRung(n, sched, opt.Seed)
			r, err := runner.Run(env, proto)
			if err != nil {
				return nil, nil, false, fmt.Errorf("E16: n=%d scheduler=%s: %w", n, sched, err)
			}
			wall := time.Since(start).Seconds()
			if i == 0 {
				ref = digest(r)
			}
			pass = pass && digest(r) == ref && r.Leaders == 1
			table.AddRow(fmt.Sprint(n), sched, fmt.Sprint(r.Events), fmt.Sprint(r.Messages), fmt.Sprint(r.Elected),
				fmt.Sprintf("%.2f", wall), fmt.Sprintf("%.3g", float64(r.Events)/wall))
			if r.Leaders == 1 {
				maxElected = max(maxElected, float64(n))
			}
		}
	}
	return table, Findings{"max_n_elected": maxElected}, pass, nil
}
