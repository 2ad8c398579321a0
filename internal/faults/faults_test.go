package faults

import (
	"strings"
	"testing"

	"abenet/internal/dist"
)

func TestValidateAcceptsReasonablePlans(t *testing.T) {
	plans := []*Plan{
		nil,
		{},
		{Loss: 0.2, Duplicate: 0.1, Reorder: 0.3},
		{Loss: 0.05, ReorderDelay: dist.NewExponential(2), Reorder: 0.5},
		{CrashRate: 0.01},
		{CrashRate: 0.01, RecoverRate: 0.1},
		{Events: []Event{CrashAt(40, 3), RecoverAt(80, 3)}},
		{Events: PartitionDuring(10, 20, 0, 1, 2, 3)},
		{Events: []Event{LinkDownAt(5, 0, 1), LinkUpAt(9, 0, 1)}},
	}
	for i, p := range plans {
		if err := p.Validate(8); err != nil {
			t.Errorf("plan %d rejected: %v", i, err)
		}
	}
}

func TestValidateRejectsBrokenPlans(t *testing.T) {
	cases := []struct {
		name string
		plan *Plan
		want string
	}{
		{"loss>1", &Plan{Loss: 1.2}, "outside [0, 1]"},
		{"loss=1", &Plan{Loss: 1}, "drops every message"},
		{"negative dup", &Plan{Duplicate: -0.1}, "outside [0, 1]"},
		{"negative crash rate", &Plan{CrashRate: -1}, "finite and non-negative"},
		{"recover without crash", &Plan{RecoverRate: 1}, "recovers nothing"},
		{"recover with only scripted crashes", &Plan{RecoverRate: 1, Events: []Event{CrashAt(1, 2)}}, "recovers nothing"},
		{"zero-mean reorder", &Plan{Reorder: 0.5, ReorderDelay: dist.NewDeterministic(0)}, "must be positive"},
		{"crash out of range", &Plan{Events: []Event{CrashAt(1, 8)}}, "outside [0, 8)"},
		{"negative event time", &Plan{Events: []Event{CrashAt(-1, 2)}}, "non-negative"},
		{"self-loop link", &Plan{Events: []Event{LinkDownAt(1, 3, 3)}}, "self-loop"},
		{"empty partition", &Plan{Events: []Event{{At: 1, Kind: KindPartition}}}, "group size 0"},
		{"full partition", &Plan{Events: []Event{{At: 1, Kind: KindPartition, Group: []int{0, 1, 2, 3, 4, 5, 6, 7}}}}, "group size 8"},
		{"duplicate group node", &Plan{Events: []Event{{At: 1, Kind: KindPartition, Group: []int{1, 1}}}}, "listed twice"},
		{"unknown kind", &Plan{Events: []Event{{At: 1}}}, "unknown event kind"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.plan.Validate(8)
			if err == nil {
				t.Fatalf("plan %+v accepted", c.plan)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestSortedEventsIsStableAndNonMutating(t *testing.T) {
	p := &Plan{Events: []Event{
		CrashAt(30, 1),
		LinkDownAt(10, 0, 1),
		RecoverAt(30, 2), // same instant as the crash: slice order must win
		LinkUpAt(20, 0, 1),
	}}
	sorted := p.SortedEvents()
	wantTimes := []float64{10, 20, 30, 30}
	for i, ev := range sorted {
		if ev.At != wantTimes[i] {
			t.Fatalf("sorted[%d].At = %g, want %g", i, ev.At, wantTimes[i])
		}
	}
	if sorted[2].Kind != KindCrash || sorted[3].Kind != KindRecover {
		t.Fatalf("tie at t=30 not stable: %v then %v", sorted[2].Kind, sorted[3].Kind)
	}
	if p.Events[0].At != 30 {
		t.Fatal("SortedEvents mutated the plan")
	}
}

func TestCapabilityProbes(t *testing.T) {
	if (&Plan{}).HasLinkFaults() {
		t.Fatal("empty plan claims faults")
	}
	var nilPlan *Plan
	if nilPlan.HasLinkFaults() {
		t.Fatal("nil plan claims faults")
	}
	if !(&Plan{Loss: 0.1}).HasLinkFaults() {
		t.Fatal("loss not detected")
	}
	if (&Plan{CrashRate: 0.1, Events: []Event{CrashAt(1, 0), LinkDownAt(1, 0, 1)}}).HasLinkFaults() {
		t.Fatal("node and link-outage events misreported as per-message link faults")
	}
}

func TestTelemetryAggregation(t *testing.T) {
	tel := &Telemetry{
		MessagesDropped:    3,
		MessagesDuplicated: 2,
		MessagesDelayed:    5,
		LinkDrops:          1,
		DeadLetters:        4,
		Crashes:            2,
		Recoveries:         1,
	}
	if got := tel.TotalFaults(); got != 17 {
		t.Fatalf("TotalFaults = %d, want 17", got)
	}
	m := map[string]float64{}
	tel.MetricsInto(m)
	if m["fault_dropped"] != 4 || m["fault_crashes"] != 2 {
		t.Fatalf("metrics = %v", m)
	}
	var nilTel *Telemetry
	if nilTel.TotalFaults() != 0 {
		t.Fatal("nil telemetry total != 0")
	}
	nilTel.MetricsInto(m) // must not panic
}
