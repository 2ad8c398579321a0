// Package spec is the versioned JSON codec for complete ABE scenarios: the
// runner.Env of Definition 1 (topology, delay distribution, clock model,
// processing time, fault plan, run bounds), the protocol and its options
// resolved through the runner registry, and an optional sweep block — as
// *data*, so the same scenario file drives the CLIs, the tests and the
// experiment-serving subsystem (internal/service, cmd/abe-serve).
//
// The codec is strict and deterministic by construction:
//
//   - Decoding rejects unknown fields at every level (a typoed knob must
//     fail loudly, not silently run the default), unknown component or
//     protocol names, and unsupported versions.
//   - Encoding is canonical: struct fields marshal in declaration order and
//     component parameters are typed structs, never free-form maps, so
//     encode→decode→encode is the identity on canonical bytes.
//   - Hash() is the sha256 of the canonical encoding with the two
//     non-scenario fields zeroed — Env.Seed (a run is scenario + seed) and
//     Sweep.Workers (parallelism never changes results; the harness
//     aggregates in canonical order) — so the hash identifies a scenario
//     across whitespace, field order, seeds and machine sizes.
package spec

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"weak"

	"abenet/internal/probe"
	"abenet/internal/runner"
	"abenet/internal/topology"
	"abenet/internal/trace"
)

// Version is the (only) supported spec schema version.
const Version = 1

// Spec is a complete scenario: one environment, one protocol, optionally a
// sweep over network sizes. Decode/DecodeBytes/DecodeFile construct it from
// JSON; programmatic construction uses the typed component constructors
// (Exponential, RingTopology, ...) plus ForProtocol.
type Spec struct {
	// Version is the schema version; must equal Version.
	Version int `json:"version"`
	// Env describes the ABE environment (Definition 1) plus run bounds.
	Env EnvSpec `json:"env"`
	// Protocol selects a registered protocol and its options.
	Protocol ProtocolSpec `json:"protocol"`
	// Sweep, when set, sweeps the protocol over ring sizes Xs instead of
	// running the single scenario Env describes; Env.Topology and Env.N
	// must then be unset.
	Sweep *SweepSpec `json:"sweep,omitempty"`

	// validated latches a successful Validate so hot paths (the serving
	// layer submits, every sweep) skip re-validating decoded specs. A
	// decoded spec is an immutable scenario (seed overrides excepted —
	// the seed does not affect validity); hand-built specs validate on
	// first use.
	validated bool
	// graph is the graph Validate's BuildEnv built for topology, the
	// Env.Topology it validated, held weakly so that BuildEnv hands the run
	// the graph the check was made on while anything still holds it, and a
	// spec kept in a cache keeps no graph alive. Only validation writes
	// them; copies of the spec share them.
	graph    weak.Pointer[topology.Graph]
	topology *TopologySpec
}

// EnvSpec is the JSON shape of runner.Env. Omitted fields select the same
// canonical defaults as runner.Env's zero values (exponential(1) delays,
// perfect clocks, instantaneous processing, no faults).
type EnvSpec struct {
	// Topology names the communication graph; nil means the protocol's
	// bare graph over N (runner.BareGraph: a unidirectional ring, or
	// Ben-Or's complete graph). Exactly one of Topology and N is the size.
	Topology *TopologySpec `json:"topology,omitempty"`
	// N is the network size when Topology is nil.
	N int `json:"n,omitempty"`
	// Delay names the per-link delay distribution; nil means exponential(1).
	Delay *DistSpec `json:"delay,omitempty"`
	// Links names a full link factory (ARQ, FIFO); overrides Delay.
	Links *LinksSpec `json:"links,omitempty"`
	// Delta declares the bound δ on the expected delay (see runner.Env.Delta).
	Delta float64 `json:"delta,omitempty"`
	// Clocks names the clock model; nil means perfect clocks.
	Clocks *ClockSpec `json:"clocks,omitempty"`
	// Processing names the processing-time distribution γ; nil means
	// instantaneous.
	Processing *DistSpec `json:"processing,omitempty"`
	// Seed determines the run; it is excluded from Hash().
	Seed uint64 `json:"seed,omitempty"`
	// Scheduler selects the kernel's event-queue implementation ("heap",
	// "calendar"); empty means the default heap. Excluded from Hash():
	// every scheduler implements the same (time, seq) total order, so runs
	// are byte-identical across choices — the differential suite at the
	// repo root pins this — and a performance knob must not split the
	// scenario identity (existing spec hashes are unchanged by this field).
	Scheduler string `json:"scheduler,omitempty"`
	// Horizon bounds virtual time (0 = unbounded).
	Horizon float64 `json:"horizon,omitempty"`
	// MaxEvents bounds simulation events (0 = protocol default).
	MaxEvents uint64 `json:"max_events,omitempty"`
	// MaxRounds bounds round-based protocols (0 = protocol default).
	MaxRounds int `json:"max_rounds,omitempty"`
	// Faults is the declarative fault plan; nil injects nothing.
	Faults *FaultsSpec `json:"faults,omitempty"`
	// Byzantine is the declarative adversary plan; nil assigns no roles.
	// Only protocols whose registry metadata reports supports_byzantine
	// accept it (currently ben-or).
	Byzantine *ByzantineSpec `json:"byzantine,omitempty"`
	// LocalBroadcast selects the atomic local-broadcast medium instead of
	// per-edge point-to-point links; "delay" then shapes the per-
	// transmission radio delay and "links" must be unset. Only protocols
	// reporting supports_broadcast accept it (currently ben-or).
	LocalBroadcast bool `json:"local_broadcast,omitempty"`
	// Observe samples a named time series during the run (see
	// internal/probe); nil collects nothing. Every protocol accepts it —
	// the run substrate samples every run — but it does not combine with a
	// sweep block (sweeps stream per-point completions instead). Excluded
	// from Hash(): observation never changes a run's results — the probe
	// reads off the kernel's post-event hook, and golden pins hold an
	// observed run byte-identical to an unobserved one.
	Observe *probe.Config `json:"observe,omitempty"`
	// Trace records a causal event trace of the run (see internal/trace):
	// stable event IDs, Lamport clocks and exact happens-before parent
	// edges, exportable as Chrome trace-event JSON, JSONL or text. Nil
	// records nothing. Every protocol accepts it, and like Observe it does
	// not combine with a sweep block. Excluded from Hash() for the same
	// reason as Observe: tracing never changes a run's results — golden
	// pins hold a traced run byte-identical to an untraced one — so the
	// cache layer differentiates on (hash, seed, trace fingerprint) instead
	// (see service.traceKey).
	Trace *trace.Config `json:"trace,omitempty"`
}

// SweepSpec sweeps the spec's protocol over ring sizes through
// harness.Sweep.Run with harness.Sizes: x positions are network sizes,
// repetitions are seeded deterministically from (spec hash, Env.Seed), and
// results are bit-identical for any worker count.
type SweepSpec struct {
	// Xs are the network sizes to sweep (each an integer ≥ 2).
	Xs []float64 `json:"xs"`
	// Repetitions is the number of seeded runs per size; 0 means 100.
	Repetitions int `json:"repetitions,omitempty"`
	// Workers bounds sweep parallelism; 0 means GOMAXPROCS. Excluded from
	// Hash(): parallelism never changes results.
	Workers int `json:"workers,omitempty"`
	// Metrics, when non-empty, restricts reported metrics to these names.
	Metrics []string `json:"metrics,omitempty"`
}

// ProtocolSpec selects a registered protocol plus decoded options. The
// options JSON keys are the Go field names of the protocol's option struct
// (matched case-insensitively; see runner.Infos for the per-protocol list).
type ProtocolSpec struct {
	// Name is the runner registry key.
	Name string
	// proto is the decoded instance (a pointer to the concrete option
	// struct), nil until decoded or constructed via ForProtocol.
	proto runner.Protocol
}

// ForProtocol wraps a runnable option struct for embedding in a Spec. The
// protocol must be registered (spec files can only name registry entries).
func ForProtocol(p runner.Protocol) (ProtocolSpec, error) {
	if p == nil {
		return ProtocolSpec{}, errors.New("spec: nil protocol")
	}
	name := p.Name()
	if _, ok := runner.ProtocolByName(name); !ok {
		return ProtocolSpec{}, fmt.Errorf("spec: protocol %q is not registered (have %v)", name, runner.Protocols())
	}
	return ProtocolSpec{Name: name, proto: p}, nil
}

// Protocol returns the decoded runnable protocol instance.
func (p ProtocolSpec) Protocol() runner.Protocol { return p.proto }

// protocolJSON is the wire shape of ProtocolSpec.
type protocolJSON struct {
	Name    string          `json:"name"`
	Options json.RawMessage `json:"options,omitempty"`
}

// UnmarshalJSON implements json.Unmarshaler with strict option decoding:
// the protocol must be registered and every option key must name a field of
// its option struct.
func (p *ProtocolSpec) UnmarshalJSON(data []byte) error {
	var pj protocolJSON
	if err := strictUnmarshal(data, &pj); err != nil {
		return fmt.Errorf("spec: protocol: %w", err)
	}
	if pj.Name == "" {
		return errors.New(`spec: protocol needs a "name"`)
	}
	inst, ok := runner.NewInstance(pj.Name)
	if !ok {
		return fmt.Errorf("spec: unknown protocol %q (have %v)", pj.Name, runner.Protocols())
	}
	if len(pj.Options) > 0 {
		if err := strictUnmarshal(pj.Options, inst); err != nil {
			return fmt.Errorf("spec: protocol %q options: %w", pj.Name, err)
		}
	}
	p.Name = pj.Name
	p.proto = inst
	return nil
}

// MarshalJSON implements json.Marshaler. The options object is always
// present and complete (every field of the option struct), so the canonical
// encoding is independent of which fields the source JSON spelled out.
func (p ProtocolSpec) MarshalJSON() ([]byte, error) {
	if p.proto == nil {
		return nil, errors.New("spec: marshalling an unresolved protocol (use ForProtocol or decode a spec)")
	}
	opts, err := json.Marshal(p.proto)
	if err != nil {
		return nil, fmt.Errorf("spec: protocol %q options: %w", p.Name, err)
	}
	return json.Marshal(protocolJSON{Name: p.Name, Options: opts})
}

// strictUnmarshal decodes JSON rejecting unknown fields and trailing data.
// Nested types with their own UnmarshalJSON re-establish strictness
// themselves, so the whole spec tree is strict.
func strictUnmarshal(data []byte, into any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON value")
	}
	return nil
}

// Decode reads and validates one spec from r.
func Decode(r io.Reader) (*Spec, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	return DecodeBytes(data)
}

// DecodeBytes parses one spec from JSON, strictly, and validates it (the
// structure, then Validate, which makes the check runner.Run makes): a
// decoded spec is always runnable.
func DecodeBytes(data []byte) (*Spec, error) {
	var s Spec
	if err := strictUnmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	if s.Version != Version {
		return nil, fmt.Errorf("spec: unsupported version %d (this build speaks version %d)", s.Version, Version)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// DecodeFile parses and validates the spec file at path.
func DecodeFile(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	s, err := DecodeBytes(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Canonical returns the deterministic compact encoding of the spec: typed
// structs in declaration order, complete option/parameter objects, no
// dependence on the source JSON's field order or whitespace.
func (s *Spec) Canonical() ([]byte, error) {
	c := *s
	c.Version = Version
	return json.Marshal(&c)
}

// Hash returns the scenario identity: the hex sha256 of the canonical
// encoding with Env.Seed and Sweep.Workers zeroed. Two specs with equal
// hashes describe the same scenario; (hash, seed) identifies a run's
// results exactly (the serving layer's cache key). The view-only
// Sweep.Metrics filter stays in the hash — it changes the reported
// payload, so cached results must not be shared across filters — but it
// does NOT reach the simulation seeds (see ExecutionHash).
func (s *Spec) Hash() (string, error) {
	c := *s
	c.Env.Seed = 0
	// The scheduler is a performance knob with pinned byte-identical
	// results across implementations, so it never splits the scenario
	// identity (and its omitempty field keeps pre-existing hashes stable).
	c.Env.Scheduler = ""
	// The observe block is measurement configuration, not scenario: an
	// observed run's Report is byte-identical to an unobserved one (minus
	// the series), so observation must not split the scenario identity.
	// Serving layers that cache per-run payloads including the series key
	// on (hash, seed, observe fingerprint) — see service.observeKey.
	c.Env.Observe = nil
	// The trace block is excluded for the same reason: a traced run's
	// Report (minus the trace) is byte-identical to an untraced one, and
	// the cache key carries the trace fingerprint (service.traceKey).
	c.Env.Trace = nil
	if c.Sweep != nil {
		sw := *c.Sweep
		sw.Workers = 0
		c.Sweep = &sw
	}
	b, err := c.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// ExecutionHash is Hash with the view-only Sweep.Metrics filter zeroed as
// well: the identity of the *simulated* scenario. RunSweep derives the
// per-repetition seeds from it, so toggling or reordering display columns
// can never change a single simulated number.
func (s *Spec) ExecutionHash() (string, error) {
	if s.Sweep == nil || len(s.Sweep.Metrics) == 0 {
		return s.Hash()
	}
	c := *s
	sw := *c.Sweep
	sw.Metrics = nil
	c.Sweep = &sw
	return c.Hash()
}
