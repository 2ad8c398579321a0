package runner

import (
	"errors"
	"fmt"

	"abenet/internal/topology"
)

// Capabilities declares which optional Env axes of the algorithm a protocol
// honours. An axis a protocol does not declare is rejected by Check
// before the run starts, so no protocol can silently
// ignore it. Observe and Trace are not axes: they are the substrate's, and
// Run checks afterwards that the report carries what they asked for.
type Capabilities struct {
	// Faults: the protocol honours Env.Faults.
	Faults bool
	// Byzantine: the protocol honours Env.Byzantine.
	Byzantine bool
	// Broadcast: the protocol runs on the Env.LocalBroadcast medium.
	Broadcast bool
}

// The structured capability-rejection errors: a protocol that cannot
// honour an optional axis of the environment refuses to run rather than
// silently reporting numbers measured without it. Classify with errors.Is.
var (
	// ErrFaultsUnsupported: the protocol cannot run under Env.Faults.
	ErrFaultsUnsupported = errors.New("runner: protocol does not support fault injection")
	// ErrByzantineUnsupported: the protocol ignores Env.Byzantine.
	ErrByzantineUnsupported = errors.New("runner: protocol does not support byzantine adversaries")
	// ErrBroadcastUnsupported: the protocol runs on point-to-point links
	// only and ignores Env.LocalBroadcast.
	ErrBroadcastUnsupported = errors.New("runner: protocol does not support the local-broadcast medium")
	// ErrObserveUnsupported: the protocol returned no Report.Series under
	// Env.Observe — it bypassed the substrate that samples every run.
	ErrObserveUnsupported = errors.New("runner: protocol does not support time-series observation")
	// ErrTraceUnsupported: the protocol returned no Report.Trace under
	// Env.Trace — it bypassed the substrate that records every run.
	ErrTraceUnsupported = errors.New("runner: protocol does not support causal tracing")
)

// capabilitiesOf returns the protocol's static capability declaration: the
// value of its capabilities method, or none for protocols that declare no
// such method. The declaration lives on the protocol value — not in a table
// keyed by name — so unregistered protocols are covered and a renamed or
// newly registered one cannot fall out of step with its own metadata.
func capabilitiesOf(p Protocol) Capabilities {
	if c, ok := p.(interface{ capabilities() Capabilities }); ok {
		return c.capabilities()
	}
	return Capabilities{}
}

// capabilityAxes lists the optional Env axes: whether an Env uses the axis,
// whether a declaration covers it, and the typed rejection when it does not.
var capabilityAxes = []struct {
	field string
	used  func(Env) bool
	has   func(Capabilities) bool
	err   error
}{
	{"Faults", func(e Env) bool { return e.Faults != nil }, func(c Capabilities) bool { return c.Faults }, ErrFaultsUnsupported},
	{"Byzantine", func(e Env) bool { return e.Byzantine != nil }, func(c Capabilities) bool { return c.Byzantine }, ErrByzantineUnsupported},
	{"LocalBroadcast", func(e Env) bool { return e.LocalBroadcast }, func(c Capabilities) bool { return c.Broadcast }, ErrBroadcastUnsupported},
}

// checkCapabilities returns a typed rejection (wrapping one of the
// Err*Unsupported sentinels) for the first optional axis env uses that p
// does not honour, or nil.
func checkCapabilities(env Env, p Protocol) error {
	caps := capabilitiesOf(p)
	for _, axis := range capabilityAxes {
		if !axis.used(env) || axis.has(caps) {
			continue
		}
		var capable []string
		for _, name := range Protocols() {
			if axis.has(capabilitiesOf(registry[name])) {
				capable = append(capable, name)
			}
		}
		return fmt.Errorf("%w: %q ignores Env.%s (honoured by %v)", axis.err, p.Name(), axis.field, capable)
	}
	return nil
}

// BareGraph returns the graph family a bare Env.N names to p: the
// unidirectional ring, unless p declares its own (a bareGraph method).
func BareGraph(p Protocol) topology.Family {
	if d, ok := p.(interface{ bareGraph() topology.Family }); ok {
		return d.bareGraph()
	}
	return topology.RingFamily
}
