// Package faults describes deterministic fault and churn injection for
// simulated network runs.
//
// The ABE model (Definition 1) bounds the *expectation* of delays but the
// motivating scenarios — lossy radio links, congested routers, ad-hoc
// networks — also lose messages, crash nodes and partition segments. A
// Plan states such faults once, declaratively, and the network layer
// injects them during the run:
//
//   - stochastic link faults: per-message loss, duplication and extra-delay
//     (reorder) probabilities, drawn where a message enters its link
//     (network's put), in front of whatever discipline the link has;
//   - stochastic node churn: exponential crash and recovery rates — with a
//     recovery rate the model is crash-recovery (the node restarts with
//     fresh protocol state, i.e. churn); without one it is crash-stop;
//   - scripted events: crash node 3 at t = 40, take a link down during
//     [t1, t2], partition {0..3} | {4..7} and heal it later.
//
// Everything is sampled from the run's splittable RNG, so a run remains a
// pure function of (environment, plan, seed): two runs with the same triple
// produce byte-identical reports, fault telemetry included.
package faults

import (
	"fmt"
	"math"
	"sort"

	"abenet/internal/byzantine"
	"abenet/internal/dist"
)

// EventKind identifies a scripted fault event.
type EventKind int

// The scripted event kinds.
const (
	// KindCrash takes a node down at Event.At. Its timers and deliveries
	// are suppressed while down.
	KindCrash EventKind = iota + 1
	// KindRecover brings a crashed node back as a *fresh* protocol
	// instance (churn: the restarted process has no memory).
	KindRecover
	// KindLinkDown takes the directed edge From→To down: messages sent on
	// it while down are dropped (messages already in flight still arrive).
	KindLinkDown
	// KindLinkUp restores the directed edge From→To.
	KindLinkUp
	// KindPartition cuts every edge between Group and its complement.
	KindPartition
	// KindHeal restores every edge between Group and its complement.
	KindHeal
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case KindCrash:
		return "crash"
	case KindRecover:
		return "recover"
	case KindLinkDown:
		return "link-down"
	case KindLinkUp:
		return "link-up"
	case KindPartition:
		return "partition"
	case KindHeal:
		return "heal"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Event is one scripted fault at a virtual instant. Build events with the
// constructors (CrashAt, LinkDownAt, PartitionDuring, ...); the zero value
// is invalid.
type Event struct {
	// At is the virtual time of the event (>= 0).
	At float64
	// Kind selects what happens.
	Kind EventKind
	// Node is the target of KindCrash / KindRecover.
	Node int
	// From, To name the directed edge of KindLinkDown / KindLinkUp.
	From, To int
	// Group is one side of the cut for KindPartition / KindHeal.
	Group []int
}

// CrashAt scripts a crash of node at time t.
func CrashAt(t float64, node int) Event { return Event{At: t, Kind: KindCrash, Node: node} }

// RecoverAt scripts a recovery (fresh restart) of node at time t.
func RecoverAt(t float64, node int) Event { return Event{At: t, Kind: KindRecover, Node: node} }

// LinkDownAt scripts the directed edge from→to going down at time t.
func LinkDownAt(t float64, from, to int) Event {
	return Event{At: t, Kind: KindLinkDown, From: from, To: to}
}

// LinkUpAt scripts the directed edge from→to coming back at time t.
func LinkUpAt(t float64, from, to int) Event {
	return Event{At: t, Kind: KindLinkUp, From: from, To: to}
}

// PartitionDuring scripts a partition separating group from the rest of
// the network during [start, end): both the cut and the heal. It panics
// unless start < end — swapped arguments would silently script a
// permanent partition (the heal would fire first, as a no-op).
func PartitionDuring(start, end float64, group ...int) []Event {
	if !(start < end) {
		panic(fmt.Sprintf("faults: partition window [%g, %g) is empty or inverted", start, end))
	}
	return []Event{
		{At: start, Kind: KindPartition, Group: group},
		{At: end, Kind: KindHeal, Group: group},
	}
}

// Plan is a complete fault-injection schedule for one run. The zero value
// injects nothing; a nil *Plan disables the subsystem entirely (runs are
// byte-identical to a plan-less build).
type Plan struct {
	// Loss is the per-message drop probability on every link, applied
	// before the link's own delivery discipline — so a lost message is
	// lost even on an ARQ link (e.g. the sender died mid-transmission).
	Loss float64
	// Duplicate is the per-message duplication probability: the copy takes
	// an independently sampled delay, so duplicates also reorder.
	Duplicate float64
	// Reorder is the per-message probability of an extra hold-back delay
	// drawn from ReorderDelay, forcing overtakes even on FIFO links.
	Reorder float64
	// ReorderDelay is the hold-back distribution; nil means Exponential(1).
	ReorderDelay dist.Dist

	// CrashRate is each node's exponential crash rate (expected time to
	// crash = 1/CrashRate while up). 0 disables stochastic crashes.
	CrashRate float64
	// RecoverRate is a stochastically crashed node's exponential recovery
	// rate. 0 means crash-stop: stochastically crashed nodes never
	// return. With a positive rate the model is crash-recovery churn —
	// the node restarts as a fresh protocol instance. The rate applies
	// only to outages the stochastic process caused; scripted crashes
	// recover only via a scripted RecoverAt, so scripted outage windows
	// are always exactly as written.
	RecoverRate float64

	// Events is the scripted fault timeline. Order does not matter; ties
	// at the same instant apply in slice order.
	Events []Event
}

// HasLinkFaults reports whether the plan injects per-message link faults
// (the part the network draws per message, from a stream per edge).
func (p *Plan) HasLinkFaults() bool {
	return p != nil && (p.Loss > 0 || p.Duplicate > 0 || p.Reorder > 0)
}

// SortedEvents returns the scripted events ordered by (At, original
// position) without mutating the plan.
func (p *Plan) SortedEvents() []Event {
	if p == nil || len(p.Events) == 0 {
		return nil
	}
	out := make([]Event, len(p.Events))
	copy(out, p.Events)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Validate checks the plan against a network of n nodes. It returns an
// error describing the first violated constraint, or nil.
func (p *Plan) Validate(n int) error {
	if p == nil {
		return nil
	}
	for _, pr := range []struct {
		name string
		v    float64
	}{{"Loss", p.Loss}, {"Duplicate", p.Duplicate}, {"Reorder", p.Reorder}} {
		if math.IsNaN(pr.v) || pr.v < 0 || pr.v > 1 {
			return fmt.Errorf("faults: %s probability %g outside [0, 1]", pr.name, pr.v)
		}
	}
	if p.Loss == 1 {
		return fmt.Errorf("faults: Loss = 1 drops every message; no protocol can run")
	}
	for _, r := range []struct {
		name string
		v    float64
	}{{"CrashRate", p.CrashRate}, {"RecoverRate", p.RecoverRate}} {
		if math.IsNaN(r.v) || math.IsInf(r.v, 0) || r.v < 0 {
			return fmt.Errorf("faults: %s %g must be finite and non-negative", r.name, r.v)
		}
	}
	if p.RecoverRate > 0 && p.CrashRate == 0 {
		return fmt.Errorf("faults: RecoverRate %g without CrashRate recovers nothing (scripted crashes recover only via RecoverAt)", p.RecoverRate)
	}
	if p.Reorder > 0 && p.ReorderDelay != nil && !(p.ReorderDelay.Mean() > 0) {
		return fmt.Errorf("faults: ReorderDelay mean %g must be positive", p.ReorderDelay.Mean())
	}
	for i, ev := range p.Events {
		if err := ev.validate(n); err != nil {
			return fmt.Errorf("faults: event %d (%s at t=%g): %w", i, ev.Kind, ev.At, err)
		}
	}
	return nil
}

func (ev Event) validate(n int) error {
	if math.IsNaN(ev.At) || math.IsInf(ev.At, 0) || ev.At < 0 {
		return fmt.Errorf("time %g must be finite and non-negative", ev.At)
	}
	checkNode := func(v int) error {
		if v < 0 || v >= n {
			return fmt.Errorf("node %d outside [0, %d)", v, n)
		}
		return nil
	}
	switch ev.Kind {
	case KindCrash, KindRecover:
		return checkNode(ev.Node)
	case KindLinkDown, KindLinkUp:
		if err := checkNode(ev.From); err != nil {
			return err
		}
		if err := checkNode(ev.To); err != nil {
			return err
		}
		if ev.From == ev.To {
			return fmt.Errorf("link %d->%d is a self-loop", ev.From, ev.To)
		}
		return nil
	case KindPartition, KindHeal:
		if len(ev.Group) == 0 || len(ev.Group) >= n {
			return fmt.Errorf("partition group size %d must be in [1, %d)", len(ev.Group), n)
		}
		seen := make(map[int]bool, len(ev.Group))
		for _, v := range ev.Group {
			if err := checkNode(v); err != nil {
				return err
			}
			if seen[v] {
				return fmt.Errorf("node %d listed twice in partition group", v)
			}
			seen[v] = true
		}
		return nil
	default:
		return fmt.Errorf("unknown event kind %d", int(ev.Kind))
	}
}

// CrashInterval records one node's downtime. End is -1 while the node is
// still down when the run stops (crash-stop, or churn caught mid-outage).
type CrashInterval struct {
	Node       int
	Start, End float64
}

// Telemetry aggregates what the fault injection actually did during one
// run. It is filled by the network layer and surfaced on runner.Report, so
// every experiment sees the injected fault load next to the protocol's
// outcome. All counters are deterministic given (environment, plan, seed).
type Telemetry struct {
	// MessagesDropped counts messages destroyed by stochastic loss.
	MessagesDropped uint64
	// MessagesDuplicated counts extra copies injected.
	MessagesDuplicated uint64
	// MessagesDelayed counts reorder hold-backs injected.
	MessagesDelayed uint64
	// LinkDrops counts sends attempted on a scripted-down link or
	// partition cut.
	LinkDrops uint64
	// DeadLetters counts messages that left the wire but were never
	// handled: the receiving node was down, or crashed or restarted while the
	// message waited in its processing queue. A message is either handled
	// (the network's delivered count) or a dead letter, never both.
	DeadLetters uint64
	// TimersSuppressed counts timer fires suppressed at down or restarted
	// nodes.
	TimersSuppressed uint64
	// Crashes and Recoveries count node lifecycle transitions (scripted
	// and stochastic).
	Crashes    int
	Recoveries int
	// CrashIntervals records each outage as [Start, End) in virtual time,
	// in order of crash; End = -1 means still down at the end of the run.
	CrashIntervals []CrashInterval
	// Byzantine counts adversarial interventions when the run carried a
	// byzantine.Plan (equivocations, corruptions, omissions, stalls); nil
	// when no adversary subsystem was active.
	Byzantine *byzantine.Telemetry
}

// TotalFaults returns the number of injected fault occurrences — a single
// headline number for tables.
func (t *Telemetry) TotalFaults() uint64 {
	if t == nil {
		return 0
	}
	return t.MessagesDropped + t.MessagesDuplicated + t.MessagesDelayed +
		t.LinkDrops + t.DeadLetters + uint64(t.Crashes) + t.Byzantine.Total()
}

// MetricsInto contributes the telemetry's named measurements to a metric
// map (used by runner.Report.Metrics for sweep aggregation).
func (t *Telemetry) MetricsInto(m map[string]float64) {
	if t == nil {
		return
	}
	m["fault_dropped"] = float64(t.MessagesDropped + t.LinkDrops)
	m["fault_duplicated"] = float64(t.MessagesDuplicated)
	m["fault_delayed"] = float64(t.MessagesDelayed)
	m["fault_dead_letters"] = float64(t.DeadLetters)
	m["fault_crashes"] = float64(t.Crashes)
	t.Byzantine.MetricsInto(m)
}
