// Package experiments defines the full reproduction suite E1..E16 derived
// from every quantitative claim in the paper (each Result states the claim
// it tests). Each experiment returns a rendered table — the "rows the paper
// reports" — plus headline findings used by the benchmarks and abe-bench.
//
// The brief announcement itself contains no numbered tables or figures;
// the suite regenerates the numbers stated in its prose (k_avg = 1/p,
// linear average time and message complexity, Theorem 1's n-messages-per-
// round bound, the Itai–Rodeh comparison) and the robustness claims implied
// by Definition 1.
package experiments

import (
	"fmt"

	"abenet/internal/channel"
	"abenet/internal/harness"
	"abenet/internal/rng"
	"abenet/internal/sim"
)

// Options tunes an experiment run.
type Options struct {
	// Quick shrinks sweeps and repetition counts for use in benchmarks
	// and smoke tests.
	Quick bool
	// Seed is the base seed for all repetitions.
	Seed uint64
	// Workers bounds sweep parallelism (0 = GOMAXPROCS).
	Workers int
}

// Findings are an experiment's headline numbers (growth exponents, error
// bounds, ratios) keyed by name.
type Findings map[string]float64

// Result bundles one experiment's outputs.
type Result struct {
	// ID is the experiment identifier (E1..E16).
	ID string
	// Claim is the paper statement under test.
	Claim string
	// Table is the regenerated rows.
	Table *harness.Table
	// ExtraTables holds additional parts (e.g. E8's part b).
	ExtraTables []*harness.Table
	// Findings are the headline numbers.
	Findings Findings
	// Pass reports whether the measured shape matches the claim.
	Pass bool
}

// Tables returns the main table followed by any extra parts.
func (r Result) Tables() []*harness.Table {
	out := make([]*harness.Table, 0, 1+len(r.ExtraTables))
	if r.Table != nil {
		out = append(out, r.Table)
	}
	return append(out, r.ExtraTables...)
}

// Experiment is a named, runnable experiment.
type Experiment struct {
	ID   string
	Name string
	Run  func(Options) (Result, error)
}

// All returns the complete suite in order.
func All() []Experiment {
	return []Experiment{
		{"E1", "retransmission delay (k_avg = 1/p)", E1Retransmission},
		{"E2", "election correctness", E2Correctness},
		{"E3", "message complexity vs n", E3Messages},
		{"E4", "time complexity vs n", E4Time},
		{"E5", "adaptive-activation ablation", E5Ablation},
		{"E6", "A0 trade-off sweep", E6A0Sweep},
		{"E7", "baseline comparison", E7Comparison},
		{"E8", "synchronizer cost (Theorem 1)", E8Synchronizer},
		{"E9", "ABD synchronizer on ABE delays", E9ABDOnABE},
		{"E10", "delay-shape robustness", E10DelayShapes},
		{"E11", "clock-drift robustness", E11ClockDrift},
		{"E12", "processing-time robustness", E12Processing},
		{"E13", "election under loss (plain vs ARQ)", E13LossResilience},
		{"E14", "byzantine consensus: point-to-point vs local broadcast", E14ByzantineBroadcast},
		{"E15", "causal relay depth vs the d+1 bound", E15CausalDepth},
		{"E16", "million-node scaling ladder (schedulers × sizes)", E16Scale},
	}
}

// reps picks a repetition count given the options and a full-run default.
func (o Options) reps(full int) int {
	if o.Quick {
		quick := full / 10
		if quick < 5 {
			quick = 5
		}
		return quick
	}
	return full
}

// sizes picks a sweep range.
func (o Options) sizes(full []float64) []float64 {
	if o.Quick && len(full) > 4 {
		return full[:4]
	}
	return full
}

// E1Retransmission regenerates the paper's Section 1(iii) analysis: on a
// lossy channel with per-attempt success probability p, the average number
// of transmissions is k_avg = Σ (k+1)(1−p)^k·p = 1/p, and with unit slots
// the average delay is 1/p as well.
func E1Retransmission(opt Options) (Result, error) {
	res := Result{
		ID:    "E1",
		Claim: "lossy channel with success probability p: k_avg = 1/p transmissions, expected delay 1/p",
	}
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
			return res, err
		}
		st := link.Stats()
		kAvg := float64(st.Transmissions) / float64(st.Sent)
		relErr := abs(kAvg-1/p) / (1 / p)
		if relErr > maxErr {
			maxErr = relErr
		}
		table.AddRow(
			fmt.Sprintf("%.1f", p),
			fmt.Sprintf("%.3f", 1/p),
			fmt.Sprintf("%.3f", kAvg),
			fmt.Sprintf("%.3f", st.MeanDelay()),
			fmt.Sprintf("%.2f%%", 100*relErr),
		)
	}
	res.Table = table
	res.Findings = Findings{"max_rel_error": maxErr}
	res.Pass = maxErr < 0.02
	return res, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
