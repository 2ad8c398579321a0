package main

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"abenet/internal/runner"
	"abenet/internal/spec"
)

// simWorkload is one simulator workload: a scenario repeated over unit
// seeds. Each field below is stated once and drives both the generated
// spec (what the program under test receives) and the layer probes that
// replay the same scenario through the layers' own functions.
type simWorkload struct {
	name string
	// protocol is the runner registry name ("election" or "ben-or").
	protocol string
	// n is the network size; complete selects topology.Complete(n) over the
	// default unidirectional ring.
	n        int
	complete bool
	// a0 and tick are the election's A0 and TickInterval (0 = the paper's
	// balanced default, and unit ticks).
	a0, tick float64
	// horizon, when positive, runs the election to that virtual instant
	// with KeepRunning set instead of stopping at the first leader.
	horizon float64
	// maxRounds caps Ben-Or's asynchronous round number.
	maxRounds int
	// hold is the scheduler hold-model shape matching the workload's
	// pending-event population (see holdNs).
	hold holdShape
}

// The three simulator workloads. Sizes are chosen so one unit is roughly
// half a second on the two-core reference box and — this is what keeps the
// numbers comparable across --seed values — so the amount of simulated work
// in a unit does not depend on the seed (see README.md, "Sizing").
var simWorkloads = []simWorkload{
	{
		// O(n) events, one message per node: construction and GC dominate.
		name: "ring-sparse-100k", protocol: "election",
		n: 100_000, a0: 1e-5, tick: 100_000,
		hold: holdShape{pending: 100_000, period: 100_000},
	},
	{
		// n periodic timers for a fixed 2048 virtual time units: ~2.1 M
		// timer events, a few thousand messages, negligible construction.
		name: "ring-dense-1k", protocol: "election",
		n: 1024, horizon: 2048,
		hold: holdShape{pending: 1024, period: 1},
	},
	{
		// Every event is a message: 100 rounds × 2 phases × 4032 links.
		name: "benor-complete-64", protocol: "ben-or",
		n: 64, complete: true, maxRounds: 100,
		hold: holdShape{pending: 4032, exponential: true},
	},
}

func simWorkloadByName(name string) (simWorkload, bool) {
	for _, w := range simWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return simWorkload{}, false
}

// specBytes generates the workload's scenario spec for one run seed. The
// scheduler is a spec field ("" = the default heap), so the calendar
// comparison needs no switch in the program under test.
func (w simWorkload) specBytes(seed uint64, scheduler string) []byte {
	env := map[string]any{"seed": seed}
	if w.complete {
		env["topology"] = map[string]any{"name": "complete", "params": map[string]any{"n": w.n}}
	} else {
		env["n"] = w.n
	}
	if scheduler != "" {
		env["scheduler"] = scheduler
	}
	if w.horizon > 0 {
		env["horizon"] = w.horizon
	}
	if w.maxRounds > 0 {
		env["max_rounds"] = w.maxRounds
	}
	options := map[string]any{}
	if w.a0 > 0 {
		options["A0"] = w.a0
	}
	if w.tick > 0 {
		options["TickInterval"] = w.tick
	}
	if w.horizon > 0 {
		options["KeepRunning"] = true
	}
	b, err := json.Marshal(map[string]any{
		"version":  spec.Version,
		"env":      env,
		"protocol": map[string]any{"name": w.protocol, "options": options},
	})
	if err != nil {
		panic(err) // maps of strings and numbers always encode
	}
	return b
}

// unitSeed is the run seed of unit i under workload seed s. Unit 0 is the
// warm-up unit; timed units count from 1.
func unitSeed(s uint64, i int) uint64 { return s*1_000_003 + uint64(i) }

// digest is what a unit's output is checked against: every simulated
// statistic a faster simulator must leave unchanged.
type digest struct {
	Events   uint64  `json:"events"`
	Messages uint64  `json:"messages"`
	Leaders  int     `json:"leaders"`
	Decision int     `json:"decision"`
	Time     float64 `json:"time"`
}

func digestOf(rep runner.Report) digest {
	d := digest{Events: rep.Events, Messages: rep.Messages, Leaders: rep.Leaders, Decision: -1, Time: rep.Time}
	if x, ok := rep.Extra.(runner.ConsensusExtra); ok {
		d.Decision = x.Decision
	}
	return d
}

// checkInvariants verifies what must hold of a unit's report at any seed.
//
//   - ring-sparse-100k stops at the first leader: exactly one leader.
//   - ring-dense-1k runs to a fixed horizon, where the paper's safety
//     property is "never two leaders" (termination is only probabilistic,
//     and the default A0 elects within 2048δ at under half the seeds).
//   - benor-complete-64: agreement and validity always; termination, or
//     else every honest node reached the round cap (with private coins and
//     F = 21 of 64 the expected number of rounds is astronomically large,
//     so the cap is the normal way this unit ends).
func (w simWorkload) checkInvariants(rep runner.Report) error {
	if len(rep.Violations) > 0 {
		return fmt.Errorf("invariant violations: %v", rep.Violations)
	}
	switch {
	case w.protocol == "ben-or":
		x, ok := rep.Extra.(runner.ConsensusExtra)
		if !ok {
			return fmt.Errorf("ben-or report carries %T, not ConsensusExtra", rep.Extra)
		}
		if !x.Agreement || !x.Validity {
			return fmt.Errorf("ben-or: agreement=%v validity=%v", x.Agreement, x.Validity)
		}
		if !x.Termination && rep.Rounds < w.maxRounds {
			return fmt.Errorf("ben-or: stopped undecided at round %d of %d", rep.Rounds, w.maxRounds)
		}
	case w.horizon > 0:
		if rep.Leaders > 1 {
			return fmt.Errorf("election: %d leaders at the horizon", rep.Leaders)
		}
		if rep.Time != w.horizon {
			return fmt.Errorf("election: ended at t=%g, not at the horizon %g", rep.Time, w.horizon)
		}
	default:
		if rep.Leaders != 1 {
			return fmt.Errorf("election: %d leaders", rep.Leaders)
		}
	}
	return nil
}

// pinnedUnits is how many unit indices expected.json pins per workload.
const pinnedUnits = 96

//go:embed expected.json
var expectedJSON []byte

// expected holds, for --seed 1, the digest of unit i of each simulator
// workload (regenerate with -pin after an intended change of behaviour).
type expected map[string][]digest

func loadExpected() (expected, error) {
	var e expected
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return e, nil
}

// pinSeed is the only workload seed with pinned digests; every other seed
// checks invariants (and heap/calendar agreement in the traced pass).
const pinSeed = 1

// checkUnit verifies unit i's report: invariants always, and the pinned
// digest when the workload seed is pinSeed and i is within the pinned
// range.
func (w simWorkload) checkUnit(pins expected, seed uint64, i int, rep runner.Report) error {
	if err := w.checkInvariants(rep); err != nil {
		return err
	}
	if seed != pinSeed || i >= len(pins[w.name]) {
		return nil
	}
	if got, want := digestOf(rep), pins[w.name][i]; got != want {
		return fmt.Errorf("unit %d digest %+v differs from pinned %+v", i, got, want)
	}
	return nil
}
