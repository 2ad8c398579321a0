// Package experiments is the reproduction suite E1..E16 derived from every
// quantitative claim in the paper: each experiment regenerates tables — the
// "rows the paper reports" — plus headline findings and a verdict, for the
// benchmarks and abe-bench.
//
// The suite is a claim table (claims.go) and one evaluator (evaluate.go).
// Nearly every statement of the paper is about an expectation, so nearly
// every experiment has one shape — sweep an environment grid, print mean
// rows, fit or compare, threshold — and that shape is data: adding a claim
// is one entry naming its arms (the sweeps), its columns and its judge.
// Logic that is not a sweep (a raw link, a model check, quantiles, a traced
// run, a wall-clock ladder) is a run part in Go. All is the only door.
//
// The brief announcement itself contains no numbered tables or figures;
// the suite regenerates the numbers stated in its prose (k_avg = 1/p,
// linear average time and message complexity, Theorem 1's n-messages-per-
// round bound, the Itai–Rodeh comparison) and the robustness claims implied
// by Definition 1.
package experiments

import "abenet/internal/harness"

// Options tunes an experiment run.
type Options struct {
	// Quick shrinks sweeps and repetition counts (benchmarks, smoke tests).
	Quick bool
	// Seed is the base seed for all repetitions.
	Seed uint64
	// Workers bounds sweep parallelism (0 = GOMAXPROCS).
	Workers int
}

// Findings are an experiment's headline numbers, keyed by name.
type Findings map[string]float64

// Result bundles one experiment's outputs.
type Result struct {
	// ID is the experiment identifier (E1..E16).
	ID string
	// Claim is the paper statement under test.
	Claim string
	// Tables are the regenerated rows, one table per part of the claim.
	Tables []*harness.Table
	// Findings are the headline numbers.
	Findings Findings
	// Pass reports whether the measured shape matches the claim.
	Pass bool
}

// Experiment is a named, runnable experiment.
type Experiment struct {
	ID   string
	Name string
	Run  func(Options) (Result, error)
}

// All returns the complete suite in order.
func All() []Experiment {
	var all []Experiment
	for i, c := range suite(Options{}) {
		all = append(all, Experiment{c.id, c.name, func(opt Options) (Result, error) {
			return suite(opt)[i].evaluate(opt)
		}})
	}
	return all
}

// reps picks a repetition count given the options and a full-run default.
func (o Options) reps(full int) int {
	if o.Quick {
		return max(full/10, 5)
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
