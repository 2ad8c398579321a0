// The fault-plan codec: faults.Plan as declarative JSON, scripted events
// included, with event kinds named by the same strings faults.EventKind
// prints.
package spec

import (
	"fmt"
	"sort"

	"abenet/internal/faults"
)

// FaultsSpec is the JSON shape of faults.Plan.
type FaultsSpec struct {
	// Loss is the per-message drop probability in [0, 1).
	Loss float64 `json:"loss,omitempty"`
	// Duplicate is the per-message duplication probability.
	Duplicate float64 `json:"duplicate,omitempty"`
	// Reorder is the per-message extra-hold-back probability.
	Reorder float64 `json:"reorder,omitempty"`
	// ReorderDelay is the hold-back distribution; nil means exponential(1).
	ReorderDelay *DistSpec `json:"reorder_delay,omitempty"`
	// CrashRate is the per-node exponential crash rate.
	CrashRate float64 `json:"crash_rate,omitempty"`
	// RecoverRate is the stochastic recovery rate (0 = crash-stop).
	RecoverRate float64 `json:"recover_rate,omitempty"`
	// Events is the scripted fault timeline.
	Events []EventSpec `json:"events,omitempty"`
}

// EventSpec is the JSON shape of one scripted faults.Event. Kind is one of
// crash, recover, link-down, link-up, partition, heal.
type EventSpec struct {
	// At is the virtual time of the event.
	At float64 `json:"at"`
	// Kind names the event kind.
	Kind string `json:"kind"`
	// Node targets crash/recover.
	Node int `json:"node,omitempty"`
	// From, To name the directed edge of link-down/link-up.
	From int `json:"from,omitempty"`
	To   int `json:"to,omitempty"`
	// Group is one side of the cut for partition/heal.
	Group []int `json:"group,omitempty"`
}

// eventKinds maps the JSON kind names onto faults.EventKind — the same
// strings faults.EventKind.String() prints, so specs and telemetry agree.
var eventKinds = map[string]faults.EventKind{
	faults.KindCrash.String():     faults.KindCrash,
	faults.KindRecover.String():   faults.KindRecover,
	faults.KindLinkDown.String():  faults.KindLinkDown,
	faults.KindLinkUp.String():    faults.KindLinkUp,
	faults.KindPartition.String(): faults.KindPartition,
	faults.KindHeal.String():      faults.KindHeal,
}

// eventKindNames returns the accepted kind names, sorted.
func eventKindNames() []string {
	names := make([]string, 0, len(eventKinds))
	for name := range eventKinds {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Build converts the event spec into a faults.Event.
func (e EventSpec) Build() (faults.Event, error) {
	kind, ok := eventKinds[e.Kind]
	if !ok {
		return faults.Event{}, fmt.Errorf("spec: unknown event kind %q (have %v)", e.Kind, eventKindNames())
	}
	return faults.Event{
		At:    e.At,
		Kind:  kind,
		Node:  e.Node,
		From:  e.From,
		To:    e.To,
		Group: e.Group,
	}, nil
}

// Build converts the fault spec into a faults.Plan (semantic validation —
// probability ranges, event targets — happens in runner.Check, which calls
// faults.Plan.Validate against the concrete network size).
func (f *FaultsSpec) Build() (*faults.Plan, error) {
	if f == nil {
		return nil, nil
	}
	plan := &faults.Plan{
		Loss:        f.Loss,
		Duplicate:   f.Duplicate,
		Reorder:     f.Reorder,
		CrashRate:   f.CrashRate,
		RecoverRate: f.RecoverRate,
	}
	if f.ReorderDelay != nil {
		d, err := f.ReorderDelay.Build()
		if err != nil {
			return nil, err
		}
		plan.ReorderDelay = d
	}
	for i, ev := range f.Events {
		built, err := ev.Build()
		if err != nil {
			return nil, fmt.Errorf("event %d: %w", i, err)
		}
		plan.Events = append(plan.Events, built)
	}
	return plan, nil
}
