package runner

import (
	"errors"
	"fmt"
)

// Capabilities declares which optional Env axes a protocol honours. An axis
// a protocol does not declare is rejected by CheckCapabilities before the
// run starts, so no protocol can silently ignore it.
type Capabilities struct {
	// Faults: the protocol honours Env.Faults.
	Faults bool
	// Byzantine: the protocol honours Env.Byzantine.
	Byzantine bool
	// Broadcast: the protocol runs on the Env.LocalBroadcast medium.
	Broadcast bool
	// Observe: the protocol honours Env.Observe.
	Observe bool
	// Trace: the protocol honours Env.Trace.
	Trace bool
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
	// ErrObserveUnsupported: the protocol has no event stream to sample
	// and ignores Env.Observe.
	ErrObserveUnsupported = errors.New("runner: protocol does not support time-series observation")
	// ErrTraceUnsupported: the protocol has no event stream to trace and
	// ignores Env.Trace.
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
	{"Observe", func(e Env) bool { return e.Observe != nil }, func(c Capabilities) bool { return c.Observe }, ErrObserveUnsupported},
	{"Trace", func(e Env) bool { return e.Trace != nil }, func(c Capabilities) bool { return c.Trace }, ErrTraceUnsupported},
}

// CheckCapabilities returns a typed rejection (wrapping one of the
// Err*Unsupported sentinels) for the first optional axis env uses that p
// does not honour, or nil. Run calls it before every run and spec.Validate
// at decode time, so a scenario that can never run is refused identically
// at both doors.
func CheckCapabilities(env Env, p Protocol) error {
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

// DefaultEdges returns how many directed edges the network has that p builds
// on an Env stating only a size n: the n of the default ring, unless the
// protocol declares a default graph of its own (its defaultEdges method). A
// float, so that no n overflows it — callers compare it with a budget before
// any graph exists.
func DefaultEdges(p Protocol, n int) float64 {
	if d, ok := p.(interface{ defaultEdges(n int) float64 }); ok {
		return d.defaultEdges(n)
	}
	return float64(n)
}
