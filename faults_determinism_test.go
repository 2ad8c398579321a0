package abenet_test

import (
	"fmt"
	"testing"

	"abenet"
	"abenet/internal/golden"
	"abenet/internal/simtime"
)

// goldenFaultEnv is the pinned (Env, Plan, seed) triple: every fault axis
// is active at once — stochastic loss/duplication/reorder, stochastic
// crash-recovery churn, a scripted crash with recovery, a link outage and
// a partition with heal — under KeepRunning so the full horizon is
// exercised.
func goldenFaultEnv() (abenet.Env, abenet.Protocol) {
	plan := &abenet.FaultPlan{
		Loss: 0.1, Duplicate: 0.05, Reorder: 0.1,
		CrashRate: 0.01, RecoverRate: 0.05,
		Events: append(
			abenet.PartitionDuring(40, 80, 0, 1, 2, 3),
			abenet.CrashAt(25, 5),
			abenet.RecoverAt(55, 5),
			abenet.LinkDownAt(10, 2, 3),
			abenet.LinkUpAt(30, 2, 3),
		),
	}
	env := abenet.Env{N: 8, Seed: 2024, Horizon: simtime.Time(300), Faults: plan}
	return env, abenet.Election{KeepRunning: true}
}

// TestGoldenFaultRun pins the exact trajectory of the golden fault run:
// a fault-injected run is a pure function of (Env, Plan, seed), so its
// counters, its end time and its first crash interval in
// testdata/golden_fault_run.golden only change when the kernel, RNG
// derivation tree or fault semantics change — which must be deliberate and
// explained in the same commit (the fault analogue of core's TestGoldenSeeds).
func TestGoldenFaultRun(t *testing.T) {
	env, proto := goldenFaultEnv()
	rep, err := abenet.Run(env, proto)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults == nil {
		t.Fatal("no fault telemetry")
	}
	tel := rep.Faults
	// The first (stochastic) interval's exact bit pattern is the strongest
	// indicator that the fault RNG derivation tree is unchanged.
	golden.Check(t, "golden_fault_run.golden", fmt.Sprintf(`messages %d
leaders %d
violations %d
dropped %d
duplicated %d
delayed %d
link_drops %d
dead_letters %d
timers_suppressed %d
crashes %d
recoveries %d
intervals %d
time %.9g
first_crash_interval %.9g..%.9g
`, rep.Messages, rep.Leaders, len(rep.Violations), tel.MessagesDropped, tel.MessagesDuplicated,
		tel.MessagesDelayed, tel.LinkDrops, tel.DeadLetters, tel.TimersSuppressed, tel.Crashes,
		tel.Recoveries, len(tel.CrashIntervals), rep.Time,
		tel.CrashIntervals[0].Start, tel.CrashIntervals[0].End))
	// The scripted crash of node 5 at t=25 keeps its full window to the
	// scripted recovery at t=55: stochastic churn only recovers outages it
	// caused, never a scripted one.
	scripted := false
	for _, iv := range tel.CrashIntervals {
		if iv.Node == 5 && iv.Start == 25 {
			scripted = true
			if iv.End != 55 {
				t.Errorf("scripted outage of node 5 ended at %g, want the scripted recovery at 55", iv.End)
			}
		}
	}
	if !scripted {
		t.Error("scripted crash of node 5 at t=25 missing from the intervals")
	}
	// Crash-stop tails: the run ends with nodes still down (End = -1).
	open := 0
	for _, iv := range tel.CrashIntervals {
		if iv.End == -1 {
			open++
		}
	}
	if open != tel.Crashes-tel.Recoveries {
		t.Errorf("%d open intervals for %d unrecovered crashes", open, tel.Crashes-tel.Recoveries)
	}
}
