package runner

import (
	"reflect"
	"sort"
)

// registry maps protocol names to runnable default instances. Every entry
// must be runnable on a default environment (Env{N: n, Seed: s}) with its
// zero-value options — that is what lets tools sweep protocols by name
// with no per-protocol adapter code.
var registry = map[string]Protocol{}

// RegisterProtocol adds a protocol's default instance to the registry. It
// panics on duplicate names: the registry is assembled at init time and a
// clash is a programming error.
func RegisterProtocol(p Protocol) {
	name := p.Name()
	if _, dup := registry[name]; dup {
		panic("runner: duplicate protocol name " + name)
	}
	registry[name] = p
}

func init() {
	RegisterProtocol(Election{})
	RegisterProtocol(ItaiRodehSync{})
	RegisterProtocol(ItaiRodehAsync{})
	RegisterProtocol(ChangRoberts{})
	RegisterProtocol(Peterson{})
	RegisterProtocol(SynchronizedElection{})
	RegisterProtocol(ClockSync{})
	RegisterProtocol(BenOr{})
	// Synchronized is deliberately unregistered: it needs a MakeNode
	// constructor, so it has no runnable default.
}

// Protocols returns the sorted names of every registered protocol.
func Protocols() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ProtocolByName returns the registered protocol's default instance.
func ProtocolByName(name string) (Protocol, bool) {
	p, ok := registry[name]
	return p, ok
}

// OptionField describes one decodable knob of a protocol's option struct:
// its Go field name (the JSON key — encoding/json matches it
// case-insensitively) and its Go type.
type OptionField struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

// Info is the registry's metadata for one protocol: what a serving layer
// needs to list protocols and decode their options from JSON without any
// per-protocol code.
type Info struct {
	// Name is the registry key.
	Name string `json:"name"`
	// Options lists the JSON-decodable fields of the protocol's option
	// struct (exported, non-func fields, in declaration order).
	Options []OptionField `json:"options"`
	// SupportsFaults reports whether the protocol honours Env.Faults.
	SupportsFaults bool `json:"supports_faults"`
	// SupportsByzantine reports whether the protocol honours Env.Byzantine
	// (adversarial per-node roles).
	SupportsByzantine bool `json:"supports_byzantine"`
	// SupportsBroadcast reports whether the protocol can run on the
	// local-broadcast medium (Env.LocalBroadcast).
	SupportsBroadcast bool `json:"supports_broadcast"`
	// SupportsObserve reports whether the protocol honours Env.Observe
	// (time-series sampling).
	SupportsObserve bool `json:"supports_observe"`
	// SupportsTrace reports whether the protocol honours Env.Trace
	// (causal event tracing).
	SupportsTrace bool `json:"supports_trace"`
	// Deterministic is always true: every registered protocol is a pure
	// function of (Env, seed). The field survives only because the frozen
	// benchmark/serve.go still reads it; it goes in the PR allowed to edit
	// benchmark/ (ROADMAP item 1).
	Deterministic bool `json:"deterministic"`
}

// optionFields reflects the decodable fields of a protocol's option struct.
func optionFields(p Protocol) []OptionField {
	t := reflect.Indirect(reflect.ValueOf(p)).Type()
	fields := make([]OptionField, 0, t.NumField())
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() || f.Type.Kind() == reflect.Func {
			continue
		}
		fields = append(fields, OptionField{Name: f.Name, Type: f.Type.String()})
	}
	return fields
}

// ProtocolInfo returns the named protocol's registry metadata.
func ProtocolInfo(name string) (Info, bool) {
	p, ok := registry[name]
	if !ok {
		return Info{}, false
	}
	caps := capabilitiesOf(p)
	return Info{
		Name:              name,
		Options:           optionFields(p),
		SupportsFaults:    caps.Faults,
		SupportsByzantine: caps.Byzantine,
		SupportsBroadcast: caps.Broadcast,
		SupportsObserve:   caps.Observe,
		SupportsTrace:     caps.Trace,
		Deterministic:     true,
	}, true
}

// Infos returns the metadata of every registered protocol, sorted by name.
func Infos() []Info {
	names := Protocols()
	infos := make([]Info, 0, len(names))
	for _, name := range names {
		info, _ := ProtocolInfo(name)
		infos = append(infos, info)
	}
	return infos
}

// NewInstance returns a fresh pointer to the named protocol's option
// struct — decodable in place with encoding/json (the pointer's method set
// includes the value receivers, so the result runs like any Protocol).
// Each call returns an independent instance, so decoded options never leak
// between runs or into the registry's defaults.
func NewInstance(name string) (Protocol, bool) {
	p, ok := registry[name]
	if !ok {
		return nil, false
	}
	return reflect.New(reflect.Indirect(reflect.ValueOf(p)).Type()).Interface().(Protocol), true
}
