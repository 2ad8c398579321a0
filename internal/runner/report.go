package runner

import (
	"encoding/json"
	"fmt"
	"reflect"

	"abenet/internal/core"
	"abenet/internal/faults"
	"abenet/internal/probe"
	"abenet/internal/trace"
)

// Report is the common result shape of every protocol run. Fields that do
// not apply to a protocol stay at their zero value; protocol-specific
// measurements live in Extra, which holds one of the typed *Extra structs
// below (documented per protocol).
type Report struct {
	// Protocol is the registry name of the protocol that ran.
	Protocol string
	// Elected reports whether some node reached a leader state (election
	// protocols only).
	Elected bool
	// LeaderIndex is the simulator-level index of the leader, or -1. It is
	// measurement-only: anonymous protocols never see identities.
	LeaderIndex int
	// Leaders counts nodes in a leader state (1 after a correct election).
	Leaders int
	// Messages counts logical message sends, including synchronizer
	// control traffic where applicable.
	Messages uint64
	// Transmissions counts physical transmissions (≥ Messages under ARQ).
	Transmissions uint64
	// Rounds is the number of rounds driven (round-based protocols only).
	Rounds int
	// Events is the number of kernel events the run executed — the
	// denominator of events/sec throughput measurements. A batch of
	// same-instant deliveries counts as one event.
	// Deliberately excluded from Metrics(): it measures the engine, not
	// the protocol, so it must not widen every sweep's metric key set.
	Events uint64
	// Time is the virtual time at which the run ended.
	Time float64
	// Violations collects invariant violations; empty in every correct run.
	Violations []string
	// Params are the tightest ABE parameters of the simulated network.
	Params core.Params
	// Faults is the fault-injection telemetry — what Env.Faults actually
	// did to the run (drops, duplicates, crash intervals) next to whether
	// the protocol still terminated correctly (Elected, Leaders,
	// Violations, Time). Nil when the environment injected no faults.
	Faults *faults.Telemetry
	// Series is the time series sampled during the run; nil when the
	// environment set no Env.Observe. The series is measurement output
	// only: it never feeds Metrics(), so observed and unobserved runs of
	// the same (Env, seed) report identical metrics.
	Series *probe.Series
	// Trace is the exported causal trace of the run; nil when the
	// environment set no Env.Trace. Like Series it is measurement output
	// only: it never feeds Metrics() and is excluded from result
	// identity, so traced and untraced runs of the same (Env, seed)
	// report identical metrics.
	Trace *trace.Export
	// Extra holds the protocol-specific measurements as one of the typed
	// *Extra structs in this package, or nil. Each protocol declares its
	// type once (its extra method), which is how a decoded report gets the
	// same type back.
	Extra any
}

// UnmarshalJSON decodes a report so that it encodes back to the bytes it
// came from: Extra is resolved to the typed struct the protocol named in
// Protocol declares (its extra method), not to encoding/json's generic map,
// which would re-encode with sorted keys — a stored result must be the first
// response, byte for byte. A protocol this build does not know keeps the
// generic value; a payload that does not fit its protocol's type is an error
// (to the disk store, a corrupt entry).
func (r *Report) UnmarshalJSON(data []byte) error {
	type fields Report // the same fields without this method
	aux := struct {
		*fields
		Extra json.RawMessage // shadows fields.Extra
	}{fields: (*fields)(r)}
	if err := json.Unmarshal(data, &aux); err != nil {
		return err
	}
	r.Extra = nil
	if aux.Extra == nil || string(aux.Extra) == "null" {
		return nil
	}
	p, known := registry[r.Protocol]
	if !known && r.Protocol == (Synchronized{}).Name() {
		p = Synchronized{} // unregistered (no runnable default), but it reports
	}
	x, typed := p.(interface{ extra() any })
	if !typed {
		return json.Unmarshal(aux.Extra, &r.Extra)
	}
	v := reflect.New(reflect.TypeOf(x.extra()))
	if err := json.Unmarshal(aux.Extra, v.Interface()); err != nil {
		return fmt.Errorf("runner: %s report: Extra: %w", r.Protocol, err)
	}
	r.Extra = v.Elem().Interface()
	return nil
}

// extraMetrics is implemented by Extra payloads that contribute named
// measurements to Metrics().
type extraMetrics interface {
	metricsInto(m map[string]float64)
}

// Metrics flattens the report into named measurements for the experiment
// harness: the common counters plus everything the protocol's Extra
// contributes. The key set is constant per protocol, so sweep aggregation
// sees every metric in every repetition.
func (r Report) Metrics() map[string]float64 {
	m := map[string]float64{
		"messages":      float64(r.Messages),
		"transmissions": float64(r.Transmissions),
		"rounds":        float64(r.Rounds),
		"time":          r.Time,
		"leaders":       float64(r.Leaders),
		"violations":    float64(len(r.Violations)),
	}
	if r.Elected {
		m["elected"] = 1
	} else {
		m["elected"] = 0
	}
	// Fault telemetry appears whenever a plan was injected (even one that
	// happened to fire nothing), so a fault sweep sees the keys at every
	// position including the zero-severity baseline.
	r.Faults.MetricsInto(m)
	if x, ok := r.Extra.(extraMetrics); ok {
		x.metricsInto(m)
	}
	return m
}

// RequireElected returns an error unless the report shows exactly one
// leader and no invariant violations — the per-run acceptance check the
// election experiments share.
func RequireElected(r Report) error {
	if r.Leaders != 1 {
		return fmt.Errorf("runner: %s elected %d leaders", r.Protocol, r.Leaders)
	}
	if len(r.Violations) != 0 {
		return fmt.Errorf("runner: %s reported invariant violations: %v", r.Protocol, r.Violations)
	}
	return nil
}

// ElectionExtra is the Extra payload of the ABE election protocol.
type ElectionExtra struct {
	// Activations sums idle→active transitions over all nodes.
	Activations int
	// Knockouts sums purged messages over all nodes.
	Knockouts int
	// ResidualPurges counts messages absorbed by the leader.
	ResidualPurges int
	// Recandidacies counts passive→idle transitions via the opt-in
	// re-candidacy timeout (0 whenever the timeout is disabled).
	Recandidacies int
	// StalePurges counts tokens purged for carrying an outdated
	// re-candidacy epoch (0 whenever the timeout is disabled).
	StalePurges int
}

func (x ElectionExtra) metricsInto(m map[string]float64) {
	m["activations"] = float64(x.Activations)
	m["knockouts"] = float64(x.Knockouts)
	m["residual_purges"] = float64(x.ResidualPurges)
	m["recandidacies"] = float64(x.Recandidacies)
	m["stale_purges"] = float64(x.StalePurges)
}

// SyncExtra is the Extra payload of synchronized executions.
type SyncExtra struct {
	// MinRounds is the number of rounds completed by every node.
	MinRounds int
	// PayloadMessages counts protocol payloads carried (Messages also
	// includes synchronizer control traffic).
	PayloadMessages uint64
	// MessagesPerRound is Messages/MinRounds — the sustained per-round
	// cost Theorem 1 lower bounds by n.
	MessagesPerRound float64
	// Stopped reports whether the protocol stopped the run (vs hitting
	// the round budget).
	Stopped bool
	// StopCause is the protocol's stop cause, if any.
	StopCause string
}

func (x SyncExtra) metricsInto(m map[string]float64) {
	m["payload_messages"] = float64(x.PayloadMessages)
	m["messages_per_round"] = x.MessagesPerRound
}

// ClockSyncExtra is the Extra payload of the clock-driven ABD synchronizer
// workload.
type ClockSyncExtra struct {
	// RoundViolations counts messages that arrived after their receiver
	// had advanced past the sender's round — synchrony broken.
	RoundViolations uint64
	// MaxLateness is the worst observed lateness among violations.
	MaxLateness int
	// ViolationRate is RoundViolations/Messages (0 for an empty run).
	ViolationRate float64
}

func (x ClockSyncExtra) metricsInto(m map[string]float64) {
	m["round_violations"] = float64(x.RoundViolations)
	m["violation_rate"] = x.ViolationRate
}

// ConsensusExtra is the Extra payload of the Ben-Or consensus protocol.
// Agreement and Validity are judged over honest nodes only; the properties
// say nothing about what Byzantine role holders output.
type ConsensusExtra struct {
	// F is the provisioned adversary budget the run waited against.
	F int
	// Honest counts nodes holding no Byzantine role.
	Honest int
	// Decided counts honest nodes that decided.
	Decided int
	// Decision is the unanimous honest decision, or -1.
	Decision int
	// Agreement: no two honest nodes decided different values.
	Agreement bool
	// Validity: a unanimous honest start is the only decidable value
	// (vacuously true on split starts).
	Validity bool
	// Termination: every honest node decided.
	Termination bool
	// DecisionRound is the highest round at which an honest node decided.
	DecisionRound int
	// CoinFlips counts fallback coin flips across honest nodes.
	CoinFlips int
	// Ignored counts malformed payloads honest nodes dropped.
	Ignored int
}

func (x ConsensusExtra) metricsInto(m map[string]float64) {
	m["decided"] = float64(x.Decided)
	m["decision_round"] = float64(x.DecisionRound)
	m["coin_flips"] = float64(x.CoinFlips)
	m["ignored"] = float64(x.Ignored)
	m["agreement"] = boolMetric(x.Agreement)
	m["validity"] = boolMetric(x.Validity)
	m["termination"] = boolMetric(x.Termination)
}

// boolMetric renders a property verdict as a sweep-averageable 0/1.
func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
