// Package runner is the unified entry point of the library: one Env type
// stating the ABE environment of Definition 1 once, one Protocol interface
// with per-protocol option structs, one Report shape for every run, and a
// name-keyed registry so tools and experiment harnesses can sweep any
// (protocol × environment) pair generically.
//
// The environment and the protocol are deliberately separated, following
// the paper's own structure: Definition 1 defines the *network* (δ on the
// expected delay, [s_low, s_high] on clock speeds, γ on processing time)
// independently of the *algorithm* run on it. Before this package each
// entry point re-declared its own slice of the environment; now
//
//	rep, err := runner.Run(env, proto)
//
// is the single door. It makes Check, the one check of a scenario, which
// spec.Validate makes too; behind it, substrate.go holds the one Env →
// network.Config mapping and the one build/observe/run/harvest routine the
// kernel-backed protocols share, and capability.go what a protocol
// declares: the optional Env axes it honours, and the graph a bare N names.
package runner

import (
	"errors"
	"fmt"
	"math"

	"abenet/internal/byzantine"
	"abenet/internal/channel"
	"abenet/internal/clock"
	"abenet/internal/dist"
	"abenet/internal/faults"
	"abenet/internal/network"
	"abenet/internal/probe"
	"abenet/internal/sim"
	"abenet/internal/simtime"
	"abenet/internal/topology"
	"abenet/internal/trace"
)

// Env states the ABE environment (Definition 1) plus the run bounds, once,
// for every protocol. The zero value of every field selects the canonical
// experimental setting: the protocol's bare graph (a unidirectional ring
// but for Ben-Or), exponential delays with δ = 1, perfect clocks,
// instantaneous processing.
type Env struct {
	// Graph is the communication topology. Nil means the protocol's
	// BareGraph over N: a unidirectional ring, or Ben-Or's complete graph.
	// Ring-based protocols accept any graph embedding a directed
	// Hamiltonian cycle (BiRing, Complete, Hypercube, ...): messages
	// travel along the embedded cycle and the other edges stay silent.
	Graph *topology.Graph
	// N is the network size, used when Graph is nil. When Graph is set,
	// N must be 0 or equal to the graph's size.
	N int
	// Delay is the per-link message delay distribution — condition 1's δ
	// is its mean. Nil means Exponential(1).
	Delay dist.Dist
	// Links optionally overrides Delay with a full link factory (ARQ,
	// FIFO, heterogeneous). When set, Delay is ignored by protocols that
	// honour Links; protocols with a fixed channel discipline document
	// their behaviour.
	Links channel.Factory
	// Delta optionally declares the bound on the expected link delay (the
	// paper's δ), used to derive balanced protocol defaults (Election's
	// A0, ClockSync's period). Link factories expose no mean before the
	// network is built, so environments using Links should declare Delta;
	// 0 means derive δ from Delay's exact mean (or 1 for link factories).
	Delta float64
	// Clocks is the local clock model — condition 2's [s_low, s_high].
	// Nil means perfect clocks.
	Clocks clock.Model
	// Processing is the event-processing time model — condition 3's γ.
	// Nil means instantaneous processing.
	Processing dist.Dist
	// Seed determines the whole run.
	Seed uint64
	// Scheduler selects the kernel's event-queue implementation by name:
	// sim.SchedulerHeap (the default 4-ary heap) or sim.SchedulerCalendar
	// (a calendar queue with O(1) amortised operations). Empty means the
	// heap. The calendar is slower than the heap on every measured
	// workload (sim.calendar_over_heap > 1) and stays only because the
	// frozen benchmark measures it. Every scheduler implements the same
	// (time, seq) total order, so a run is byte-identical across choices —
	// this is a performance knob, never a semantics knob, and it is
	// therefore excluded from spec hashes.
	Scheduler string
	// Horizon bounds virtual time for every protocol; 0 means unbounded.
	Horizon simtime.Time
	// MaxEvents bounds the number of simulation events for every protocol;
	// 0 means the shared livelock guard (50e6). An exhausted budget surfaces
	// as an error matching sim.ErrMaxEvents.
	MaxEvents uint64
	// MaxRounds bounds round-based protocols (the synchronizers, the
	// lock-step model among them, and Ben-Or); 0 means each protocol's
	// default. Every protocol refuses a negative value (ErrEnvMaxRounds).
	MaxRounds int
	// Faults optionally injects deterministic message faults, node churn
	// and link outages (see internal/faults). Honoured by the protocols
	// whose Info reports supports_faults; every other protocol rejects a
	// non-nil plan with ErrFaultsUnsupported rather than silently running
	// fault-free. (FIFO protocols that do honour plans tolerate loss and
	// duplication but not Reorder — reordering an Itai–Rodeh ring measures
	// an assumption violation, not a robustness property.) Nil keeps every
	// run byte-identical to a fault-free build. Plans with message loss
	// can deadlock a protocol, so pair them with a finite Horizon.
	Faults *faults.Plan
	// Byzantine optionally assigns adversarial per-node roles —
	// equivocation, omission, corruption, stalling (see internal/byzantine).
	// Honoured by the protocols whose Info reports supports_byzantine;
	// every other protocol rejects a non-nil plan with
	// ErrByzantineUnsupported rather than reporting honest numbers as
	// adversarial measurements. Nil keeps every run byte-identical to an
	// adversary-free build.
	Byzantine *byzantine.Plan
	// LocalBroadcast switches the medium from per-edge point-to-point
	// links to atomic local broadcast: one send per transmission,
	// delivered identically to every neighbour at one instant (Khan &
	// Vaidya's radio model, under which equivocation is physically
	// impossible). Honoured by the protocols whose Info reports
	// supports_broadcast; every other protocol rejects it with
	// ErrBroadcastUnsupported. Incompatible with Links and with
	// per-message link faults (Loss/Duplicate/Reorder).
	LocalBroadcast bool
	// Observe optionally samples a named time series during the run (see
	// internal/probe): network gauges plus per-protocol gauges, sampled
	// between two events of a run paused where a sample is due, so the run
	// stays byte-identical to an unobserved one. The run substrate installs
	// the collector for every protocol; Run fails with ErrObserveUnsupported
	// if a protocol returns no series anyway. The collected series lands in
	// Report.Series and never changes any other Report field.
	Observe *probe.Config
	// Trace optionally records a causal event trace of the run (see
	// internal/trace): every send, delivery, timer and the terminal
	// decision gets a stable ID, a Lamport clock and an exact
	// happens-before parent, capped at Trace.MaxEvents with counted
	// truncation. The run substrate installs the recorder for every
	// protocol; Run fails with ErrTraceUnsupported if a protocol returns no
	// trace anyway. The exported trace lands in Report.Trace and — like
	// Series — never changes any other Report field: a traced run is
	// byte-identical to an untraced one.
	Trace *trace.Config

	// tracer is a test seam: a tracer the substrate attaches to the network
	// when Trace is nil, so the tracer overhead gate can run a null tracer
	// and the identity tests their own recorder. The one way to ask for a
	// trace is Trace, so this stays unexported.
	tracer network.Tracer
}

// The structured environment-validation errors. Check wraps each in
// context, so callers can classify failures with errors.Is.
var (
	// ErrEnvSize: the environment describes no valid network size (fewer
	// than 2 nodes, or N disagreeing with the Graph's size).
	ErrEnvSize = errors.New("runner: invalid network size")
	// ErrEnvDelta: the declared δ is negative or not finite.
	ErrEnvDelta = errors.New("runner: invalid Delta")
	// ErrEnvAmbiguousDelay: Links and Delay are both set but no Delta
	// declares which mean parameterises the protocol defaults.
	ErrEnvAmbiguousDelay = errors.New("runner: ambiguous delay declaration")
	// ErrEnvFaults: the fault plan fails faults.Plan.Validate.
	ErrEnvFaults = errors.New("runner: invalid fault plan")
	// ErrEnvByzantine: the Byzantine plan fails byzantine.Plan.Validate.
	ErrEnvByzantine = errors.New("runner: invalid byzantine plan")
	// ErrEnvBroadcast: LocalBroadcast conflicts with the rest of the
	// environment (a Links factory, or per-message link faults — neither
	// composes with the radio medium).
	ErrEnvBroadcast = errors.New("runner: invalid local-broadcast environment")
	// ErrEnvObserve: the observe config fails probe.Config.Validate.
	ErrEnvObserve = errors.New("runner: invalid observe config")
	// ErrEnvTrace: the trace config fails trace.Config.Validate.
	ErrEnvTrace = errors.New("runner: invalid trace config")
	// ErrEnvScheduler: Env.Scheduler names no registered kernel scheduler.
	ErrEnvScheduler = errors.New("runner: unknown scheduler")
	// ErrEnvMaxRounds: Env.MaxRounds is negative.
	ErrEnvMaxRounds = errors.New("runner: invalid MaxRounds")
)

// Check is the one check of a scenario, made by Run and by spec.Validate,
// so both doors refuse what can never run with the same error: the
// environment on the graph a bare N names to p (BareGraph), the optional
// axes p honours, and p's own option rules. It builds no bare graph: a rule
// that reads one asks the protocol's bare family (topology.Family.Shape), so
// checking a size costs the same at 2 nodes and at 2²⁰.
func Check(env Env, p Protocol) error {
	_, err := check(env, p)
	return err
}

// check is Check returning the scenario it checked, for Run to run on.
func check(e Env, p Protocol) (*scenario, error) {
	if p == nil {
		return nil, errors.New("runner: nil protocol")
	}
	n := e.N
	if e.Graph != nil {
		if n = e.Graph.N(); e.N != 0 && e.N != n {
			return nil, fmt.Errorf("%w: env.N = %d disagrees with graph size %d", ErrEnvSize, e.N, n)
		}
	}
	if n < 2 {
		return nil, fmt.Errorf("%w: a network needs N >= 2 nodes, got %d", ErrEnvSize, n)
	}
	if e.Delta < 0 || math.IsNaN(e.Delta) || math.IsInf(e.Delta, 0) {
		return nil, fmt.Errorf("%w: Delta = %g must be a non-negative finite bound on the expected delay", ErrEnvDelta, e.Delta)
	}
	if e.Links != nil && e.Delay != nil && e.Delta == 0 {
		return nil, fmt.Errorf("%w: both Links and Delay are set; declare Delta to state which mean parameterises the protocol defaults (Links wins at run time)", ErrEnvAmbiguousDelay)
	}
	if e.MaxRounds < 0 {
		return nil, fmt.Errorf("%w: %d must not be negative (0 selects the protocol's default)", ErrEnvMaxRounds, e.MaxRounds)
	}
	if !sim.ValidScheduler(e.Scheduler) {
		return nil, fmt.Errorf("%w: %q (valid: %v, or empty for the default)", ErrEnvScheduler, e.Scheduler, sim.SchedulerNames())
	}
	if err := e.Faults.Validate(n); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrEnvFaults, err)
	}
	if err := e.Byzantine.Validate(n); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrEnvByzantine, err)
	}
	if err := e.Observe.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrEnvObserve, err)
	}
	if err := e.Trace.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrEnvTrace, err)
	}
	if e.LocalBroadcast {
		if e.Links != nil {
			return nil, fmt.Errorf("%w: Links and LocalBroadcast are exclusive (the radio medium replaces per-edge links; shape it with Delay)", ErrEnvBroadcast)
		}
		if e.Faults.HasLinkFaults() {
			return nil, fmt.Errorf("%w: per-message link faults (Loss/Duplicate/Reorder) do not compose with the local-broadcast medium", ErrEnvBroadcast)
		}
	}
	s := &scenario{env: e, n: n, bare: BareGraph(p), given: e.Graph != nil}
	// Per-edge fault events must name edges of the concrete topology — a
	// direction typo would otherwise surface later, unwrapped and
	// protocol-dependent, instead of as a uniform ErrEnvFaults here.
	if e.Faults != nil {
		for i, ev := range e.Faults.Events {
			if ev.Kind != faults.KindLinkDown && ev.Kind != faults.KindLinkUp {
				continue
			}
			if !s.shape().HasEdge(ev.From, ev.To) {
				return nil, fmt.Errorf("%w: event %d (%s at t=%g): edge %d->%d is not in the topology",
					ErrEnvFaults, i, ev.Kind, ev.At, ev.From, ev.To)
			}
		}
	}
	if err := checkCapabilities(e, p); err != nil {
		return nil, err
	}
	if r, ok := p.(interface{ check(*scenario) error }); ok {
		if err := r.check(s); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// scenario is an environment being checked for one protocol: its size, and
// its graph — the env's own (given), or the member of the protocol's bare
// family, which the rules read through the family's Shape and only Run
// builds.
type scenario struct {
	env   Env
	n     int
	bare  topology.Family
	given bool
}

// graph returns the scenario's graph: the one place a bare size becomes one.
func (s *scenario) graph() *topology.Graph {
	if s.env.Graph == nil {
		s.env.Graph = s.bare.Build(s.n)
	}
	return s.env.Graph
}

// shape returns what a structural rule reads of the scenario's graph: the
// graph, or the bare family's answer for the size, which builds nothing.
func (s *scenario) shape() topology.Shape {
	if s.env.Graph == nil {
		return s.bare.Shape(s.n)
	}
	return s.env.Graph
}

// ring checks that a ring protocol's given graph embeds a directed
// Hamiltonian cycle (a bare size names the ring itself); the graph caches
// the embedding for the run (successorPorts).
func (s *scenario) ring() error {
	if !s.given {
		return nil
	}
	if _, err := s.env.Graph.RingEmbedding(); err != nil {
		return fmt.Errorf("runner: %w", err)
	}
	return nil
}

// delay returns the delay distribution (defaulting to Exponential(1)).
func (e Env) delay() dist.Dist {
	if e.Delay != nil {
		return e.Delay
	}
	return dist.NewExponential(1)
}

// meanDelay returns the best-known δ of the environment: the declared
// Delta if any, else the delay distribution's mean, else 1 when only a
// link factory is given (factories do not expose a mean before the
// network is built).
func (e Env) meanDelay() float64 {
	if e.Delta > 0 {
		return e.Delta
	}
	if e.Links != nil {
		return 1
	}
	return e.delay().Mean()
}

// Protocol is a runnable protocol: an algorithm plus its options, bound to
// an environment only at Run time. Implementations are option structs
// (Election, ItaiRodehSync, ChangRoberts, ...) whose zero values select
// balanced defaults, so every registry entry is runnable as-is.
type Protocol interface {
	// Name is the registry key (stable, kebab-case).
	Name() string
	// Run executes the protocol on an env the package-level Run has
	// checked, its Graph resolved — callers go through that function, not
	// this method. Implementations fill every Report field they can and put
	// protocol-specific measurements in Extra.
	Run(env Env) (Report, error)
}

// Run executes protocol p on environment env: the single entry point every
// tool and sweep goes through. Check refuses an invalid or unsupported
// scenario here, so every protocol rejects it identically — and none can
// silently ignore an axis it does not honour — and p runs on the graph the
// check resolved. Observe and trace are the substrate's, so they are checked
// on the result instead: a protocol that returns no Series or no Trace for
// them is refused, not silently unobserved. A graph Run built from Env.N is
// its own: once p.Run has returned normally, nothing reads it, and its
// arrays go to the next graph built in the process (topology.Graph.HandOn).
// A graph the caller gave, which a sweep shares across its repetitions, is
// never handed on.
func Run(env Env, p Protocol) (Report, error) {
	s, err := check(env, p)
	if err != nil {
		return Report{}, err
	}
	env.Graph = s.graph()
	rep, err := p.Run(env)
	if err != nil {
		return Report{}, err
	}
	if !s.given {
		env.Graph.HandOn()
	}
	if env.Observe != nil && rep.Series == nil {
		return Report{}, fmt.Errorf("%w: %q returned no series for Env.Observe", ErrObserveUnsupported, p.Name())
	}
	if env.Trace != nil && rep.Trace == nil {
		return Report{}, fmt.Errorf("%w: %q returned no trace for Env.Trace", ErrTraceUnsupported, p.Name())
	}
	rep.Protocol = p.Name()
	return rep, nil
}
