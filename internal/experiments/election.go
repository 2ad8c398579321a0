package experiments

import (
	"fmt"
	"math"

	"abenet/internal/channel"
	"abenet/internal/check"
	"abenet/internal/core"
	"abenet/internal/harness"
	"abenet/internal/rng"
	"abenet/internal/runner"
	"abenet/internal/sim"
	"abenet/internal/stats"
)

// retransmission is E1: stop-and-wait ARQ on one raw lossy link, no
// network, so the measured k_avg is the link's alone.
func retransmission(opt Options) (*harness.Table, Findings, bool, error) {
	table := harness.NewTable(
		"E1: stop-and-wait ARQ on a lossy channel (unit slot time)",
		"p", "analytic 1/p", "measured k_avg", "measured mean delay", "rel. error")
	messages := 200_000
	if opt.Quick {
		messages = 20_000
	}
	maxErr := 0.0
	root := rng.New(opt.Seed)
	for _, p := range []float64{0.1, 0.2, 0.3, 0.5, 0.7, 0.9} {
		kernel := sim.New()
		link := channel.NewARQ(kernel, p, 1, root.Derive(fmt.Sprintf("e1/p=%g", p)), func(any) {})
		for i := 0; i < messages; i++ {
			link.Send(i)
		}
		if err := kernel.Run(1<<62, 0); err != nil {
			return nil, nil, false, err
		}
		st := link.Stats()
		kAvg := float64(st.Transmissions) / float64(st.Sent)
		relErr := math.Abs(kAvg-1/p) / (1 / p)
		maxErr = max(maxErr, relErr)
		table.AddRow(fmt.Sprintf("%.1f", p), fmt.Sprintf("%.3f", 1/p), fmt.Sprintf("%.3f", kAvg),
			fmt.Sprintf("%.3f", st.MeanDelay()), fmt.Sprintf("%.2f%%", 100*relErr))
	}
	return table, Findings{"max_rel_error": maxErr}, maxErr < 0.02, nil
}

// correctness is E2: sampled runs at many ring sizes, then exhaustive model
// checking at small ones. It stops at the first size that fails, returning
// the rows so far and no findings.
func correctness(opt Options) (*harness.Table, Findings, bool, error) {
	table := harness.NewTable(
		"E2: election correctness (sampled runs + exhaustive model checking)",
		"check", "n", "coverage", "leaders=1", "violations")

	reps := opt.reps(200)
	for _, n := range []int{2, 3, 8, 32, 64} {
		ok := 0
		for seed := 0; seed < reps; seed++ {
			r, err := runner.Run(
				runner.Env{N: n, Seed: opt.Seed + uint64(seed)*7919},
				runner.Election{A0: core.DefaultA0(n)},
			)
			if err != nil {
				return nil, nil, false, err
			}
			if r.Leaders == 1 && len(r.Violations) == 0 {
				ok++
			}
		}
		table.AddRow("monte-carlo", fmt.Sprint(n), fmt.Sprintf("%d seeds", reps),
			fmt.Sprintf("%d/%d", ok, reps), "0")
		if ok != reps {
			return table, nil, false, nil
		}
	}

	checkSizes := []int{2, 3, 4, 5, 6}
	if opt.Quick {
		checkSizes = []int{2, 3, 4}
	}
	for _, n := range checkSizes {
		report, err := check.CheckElection(check.Options{N: n})
		if err != nil {
			return nil, nil, false, err
		}
		status := "0"
		if len(report.Violations) > 0 {
			status = fmt.Sprintf("%d!", len(report.Violations))
		}
		table.AddRow("exhaustive", fmt.Sprint(n),
			fmt.Sprintf("%d states", report.StatesExplored),
			"all schedules", status)
		if !report.OK() {
			return table, nil, false, nil
		}
	}
	return table, Findings{"all_ok": 1}, true, nil
}

// timeTail is E4b: the election-time distribution at n = 64, as quantiles
// of a reservoir. It reports and judges nothing.
func timeTail(opt Options) (*harness.Table, Findings, bool, error) {
	const n = 64
	runs := opt.reps(300)
	reservoir := stats.NewReservoir(runs, rng.New(opt.Seed^0xE47A11))
	var mean stats.Sample
	for seed := 0; seed < runs; seed++ {
		r, err := runner.Run(
			runner.Env{N: n, Seed: opt.Seed + uint64(seed)*31337},
			runner.Election{A0: core.DefaultA0(n)},
		)
		if err != nil {
			return nil, nil, false, err
		}
		reservoir.Add(r.Time)
		mean.Add(r.Time)
	}
	table := harness.NewTable(
		fmt.Sprintf("E4b: election-time distribution at n = %d (%d runs)", n, runs),
		"statistic", "time")
	table.AddRow("mean", fmt.Sprintf("%.1f ± %.1f", mean.Mean(), mean.CI95()))
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		v, err := reservoir.Quantile(q)
		if err != nil {
			return nil, nil, false, err
		}
		table.AddRow(fmt.Sprintf("p%02.0f", q*100), fmt.Sprintf("%.1f", v))
	}
	table.AddRow("max", fmt.Sprintf("%.1f", mean.Max()))
	return table, Findings{}, true, nil
}
