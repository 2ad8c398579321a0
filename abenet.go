// Package abenet is a library for building and analysing asynchronous
// bounded expected delay (ABE) networks, reproducing
//
//	R. Bakhshi, J. Endrullis, W. Fokkink, J. Pang.
//	"Brief Announcement: Asynchronous Bounded Expected Delay Networks",
//	PODC 2010 (full version: arXiv:1003.2084).
//
// The ABE model strengthens asynchronous networks with three known bounds
// (Definition 1): δ on the expected message delay, [s_low, s_high] on local
// clock speeds, and γ on the expected event-processing time. Every
// asynchronous execution remains possible — only a bound on the delay's
// expectation is assumed, not on the delay itself — which captures lossy
// radio links with retransmission, congested links, and dynamic routing.
//
// # The unified API
//
// The package mirrors the paper's own separation of network and algorithm:
// an Env states the ABE environment once (topology, links, clocks,
// processing, seed, run bounds), a Protocol bundles one algorithm with its
// options, and Run executes any protocol on any environment, returning a
// common Report:
//
//	rep, err := abenet.Run(
//	    abenet.Env{N: 64, Delay: abenet.Exponential(1), Seed: 7},
//	    abenet.Election{},
//	)
//
// Protocols are also registered by name (Protocols, ProtocolByName), so
// tools can drive any (protocol × environment) pair generically. A sweep
// runs one pair per position; SweepSizes builds the pair at network size x:
//
//	sweep := abenet.Sweep{Name: "demo", Repetitions: 50}
//	points, err := sweep.Run([]float64{8, 16, 32, 64},
//	    abenet.SweepSizes(abenet.Env{}, abenet.ChangRoberts{}), abenet.RequireElected)
//
// The available protocols: the paper's election for anonymous ABE rings
// (Election), the synchronous and asynchronous Itai–Rodeh baselines
// (ItaiRodehSync, ItaiRodehAsync), the identity-based Chang–Roberts and
// Peterson baselines (ChangRoberts, Peterson), synchronizer-backed
// synchronous execution (Synchronized, SynchronizedElection), the
// clock-driven ABD synchronizer workload (ClockSync), and Ben-Or randomized
// consensus under Byzantine adversaries (BenOr). Ring protocols run on any
// topology embedding a directed Hamiltonian cycle (Ring, BiRing, Complete,
// Hypercube, ...).
//
// Run is the only way to execute a protocol: an environment that sets both
// Delay and Links must declare Delta to state the governing δ
// (Env.Validate rejects the ambiguous declaration), and an environment that
// asks for an axis the protocol does not honour (faults, adversaries, the
// broadcast medium, observation, tracing) is refused with a typed error.
// Every protocol runs on the one event kernel — the synchronous model too:
// ItaiRodehSync is the clock synchronizer in lock step, ClockSync the same
// synchronizer on the environment's links — so they all fill Report.Events,
// Transmissions and Params, and honour Env.Observe and Env.Trace; every run
// is a pure function of (Env, seed).
//
// The package also exposes the ABE model itself as machine-checkable
// parameters (Params), an exhaustive model checker for the election's
// safety invariants and almost-sure termination on small rings
// (CheckElection), and a seeded experiment
// harness with confidence intervals and growth-exponent fits (Sweep,
// GrowthExponent). The delay, clock and link models live in the
// re-exported constructors (Exponential, Retransmission, UniformClocks,
// ARQLinks, ...); all simulation is deterministic given a seed.
package abenet

import (
	"abenet/internal/byzantine"
	"abenet/internal/channel"
	"abenet/internal/check"
	"abenet/internal/clock"
	"abenet/internal/core"
	"abenet/internal/dist"
	"abenet/internal/election"
	"abenet/internal/faults"
	"abenet/internal/harness"
	"abenet/internal/runner"
	"abenet/internal/sim"
	"abenet/internal/stats"
	"abenet/internal/synchronizer"
	"abenet/internal/topology"
)

// ---- The unified Env / Protocol / Report API ----

// Env states the ABE environment (Definition 1) plus run bounds, once, for
// every protocol: topology, link delays, clock speeds, processing times,
// the seed, and the horizon/event/round budgets.
type Env = runner.Env

// Protocol is a runnable protocol: an algorithm plus its options, bound to
// an environment only at Run time.
type Protocol = runner.Protocol

// Report is the common result shape of every protocol run, with a typed
// Extra payload for protocol-specific measurements.
type Report = runner.Report

// Extra payload types carried by Report.Extra, per protocol.
type (
	// ElectionExtra is Election's Extra payload.
	ElectionExtra = runner.ElectionExtra
	// SyncExtra is Synchronized and SynchronizedElection's Extra payload.
	SyncExtra = runner.SyncExtra
	// ClockSyncExtra is ClockSync's Extra payload.
	ClockSyncExtra = runner.ClockSyncExtra
	// ConsensusExtra is BenOr's Extra payload: the agreement, validity and
	// termination verdicts over the honest nodes plus the decision trace.
	ConsensusExtra = runner.ConsensusExtra
)

// The protocol option structs. Zero values select balanced defaults, so
// every protocol is runnable as-is.
type (
	// Election is the paper's probabilistic leader election for anonymous
	// unidirectional ABE rings (Section 3).
	Election = runner.Election
	// ItaiRodehSync is the phase-based synchronous Itai–Rodeh baseline.
	ItaiRodehSync = runner.ItaiRodehSync
	// ItaiRodehAsync is the classic asynchronous Itai–Rodeh baseline
	// (FIFO channels, Θ(n log n) expected messages).
	ItaiRodehAsync = runner.ItaiRodehAsync
	// ChangRoberts is the identity-based asynchronous baseline.
	ChangRoberts = runner.ChangRoberts
	// Peterson is Peterson's deterministic O(n log n) election for
	// unidirectional rings with identities and FIFO channels.
	Peterson = runner.Peterson
	// Synchronized executes an arbitrary synchronous protocol over the
	// ABE environment via a message-driven synchronizer.
	Synchronized = runner.Synchronized
	// SynchronizedElection runs the synchronous Itai–Rodeh election over
	// a synchronizer — the Theorem 1 cost workload.
	SynchronizedElection = runner.SynchronizedElection
	// ClockSync is the clock-driven ABD synchronizer workload.
	ClockSync = runner.ClockSync
	// BenOr is Ben-Or randomized binary consensus provisioned for f
	// Byzantine nodes — the one protocol honouring Env.Byzantine and
	// Env.LocalBroadcast.
	BenOr = runner.BenOr
)

// Run executes protocol p on environment env — the single entry point.
func Run(env Env, p Protocol) (Report, error) { return runner.Run(env, p) }

// Protocols returns the sorted names of every registered protocol.
func Protocols() []string { return runner.Protocols() }

// ProtocolByName returns the registered protocol's runnable default
// instance.
func ProtocolByName(name string) (Protocol, bool) { return runner.ProtocolByName(name) }

// RequireElected returns an error unless the report shows exactly one
// leader and no invariant violations.
func RequireElected(r Report) error { return runner.RequireElected(r) }

// ---- Kernel schedulers ----

// The event-scheduler implementations selectable via Env.Scheduler. Every
// scheduler executes events in the same (time, sequence) total order, so a
// run is byte-identical whichever is chosen; the choice trades queue
// performance only. The calendar queue is slower than the heap on every
// workload the repo benchmark measures (sim.calendar_over_heap > 1) and
// stays only because that frozen benchmark measures it.
const (
	// SchedulerHeap is the default intrusive 4-ary min-heap.
	SchedulerHeap = sim.SchedulerHeap
	// SchedulerCalendar is the calendar-queue scheduler (Brown 1988).
	SchedulerCalendar = sim.SchedulerCalendar
)

// Schedulers returns the names of the registered kernel schedulers.
func Schedulers() []string { return sim.SchedulerNames() }

// ErrMaxEvents marks a run that exhausted its event budget (a livelock
// guard tripping, not a protocol decision). Classify with errors.Is.
var ErrMaxEvents = sim.ErrMaxEvents

// ---- The ABE model (Definition 1) ----

// Params are the known ABE bounds (δ, s_low, s_high, γ).
type Params = core.Params

// DefaultParams returns the unit parameterisation: δ = 1, perfect clocks,
// instantaneous processing.
func DefaultParams() Params { return core.DefaultParams() }

// ---- The election algorithm (Section 3) ----

// A0ForRing returns the base activation parameter that realises the
// paper's linear average complexity on a ring of size n with expected
// per-link delay delta, tick interval tick and aggressiveness c.
func A0ForRing(n int, delta, tick, c float64) float64 {
	return core.A0ForRing(n, delta, tick, c)
}

// DefaultA0 is A0ForRing(n, 1, 1, 1).
func DefaultA0(n int) float64 { return core.DefaultA0(n) }

// ---- Delay distributions (condition 1: known bound on E[delay]) ----

// DelayDist is a non-negative distribution with a known exact mean.
type DelayDist = dist.Dist

// Deterministic returns the fixed-delay distribution (the ABD limit case).
func Deterministic(v float64) DelayDist { return dist.NewDeterministic(v) }

// Uniform returns the uniform distribution on [low, high] (bounded support,
// ABD-compatible).
func Uniform(low, high float64) DelayDist { return dist.NewUniform(low, high) }

// Exponential returns the exponential distribution with the given mean —
// the canonical unbounded ABE delay.
func Exponential(mean float64) DelayDist { return dist.NewExponential(mean) }

// Retransmission returns the paper's case (iii) delay: per-attempt success
// probability p, per-attempt duration slot; mean slot/p with unbounded
// support.
func Retransmission(p, slot float64) DelayDist { return dist.NewRetransmission(p, slot) }

// ParetoWithMean returns a heavy-tailed Pareto delay with the given mean
// and tail index alpha > 1.
func ParetoWithMean(mean, alpha float64) DelayDist { return dist.ParetoWithMean(mean, alpha) }

// Erlang returns a k-stage Erlang delay with the given total mean
// (multi-hop routing, case (ii)).
func Erlang(k int, mean float64) DelayDist { return dist.NewErlang(k, mean) }

// Bimodal mixes fast and slow delays (congestion peaks, case (i)).
func Bimodal(fast, slow DelayDist, pSlow float64) DelayDist {
	return dist.NewBimodal(fast, slow, pSlow)
}

// ---- Fault & churn injection ----

// FaultPlan states deterministic fault injection for a run: stochastic
// per-message loss/duplication/reorder, stochastic crash(-recovery) churn,
// and scripted events (crashes, link outages, partitions). Set it on
// Env.Faults; a nil plan keeps every run byte-identical to a fault-free
// build. Honoured by Election, ChangRoberts, ItaiRodehAsync and BenOr; the
// others — including Peterson, whose step protocol requires reliable FIFO
// channels — reject a non-nil plan with a typed error. Pair lossy plans
// with a finite Env.Horizon — a protocol may (correctly) never terminate
// once its messages are destroyed.
type FaultPlan = faults.Plan

// FaultEvent is one scripted fault; build them with CrashAt, RecoverAt,
// LinkDownAt, LinkUpAt and PartitionDuring.
type FaultEvent = faults.Event

// FaultTelemetry is Report.Faults: what the plan actually did to the run.
type FaultTelemetry = faults.Telemetry

// CrashInterval is one node outage recorded in FaultTelemetry.
type CrashInterval = faults.CrashInterval

// CrashAt scripts a crash of node at virtual time t.
func CrashAt(t float64, node int) FaultEvent { return faults.CrashAt(t, node) }

// RecoverAt scripts a fresh restart (churn) of node at virtual time t.
func RecoverAt(t float64, node int) FaultEvent { return faults.RecoverAt(t, node) }

// LinkDownAt / LinkUpAt script an outage of the directed edge from→to.
func LinkDownAt(t float64, from, to int) FaultEvent { return faults.LinkDownAt(t, from, to) }

// LinkUpAt restores the directed edge from→to at virtual time t.
func LinkUpAt(t float64, from, to int) FaultEvent { return faults.LinkUpAt(t, from, to) }

// PartitionDuring scripts a partition separating group from the rest of
// the network during [start, end): both the cut and the heal.
func PartitionDuring(start, end float64, group ...int) []FaultEvent {
	return faults.PartitionDuring(start, end, group...)
}

// ---- Byzantine adversaries & local broadcast ----

// ByzantinePlan assigns per-node adversarial roles for a run. Set it on
// Env.Byzantine; a nil plan keeps every run byte-identical to an
// adversary-free build. Honoured by BenOr; every other protocol rejects a
// non-nil plan with a typed error.
type ByzantinePlan = byzantine.Plan

// ByzantineRole binds one behaviour to one node.
type ByzantineRole = byzantine.Role

// ByzantineBehavior selects a node's attack.
type ByzantineBehavior = byzantine.Behavior

// The adversarial behaviours. Equivocate tells every neighbour a different
// value on point-to-point links; under Env.LocalBroadcast the radio medium
// makes per-receiver divergence impossible and the attack degrades to a
// consistent corruption.
const (
	Equivocate = byzantine.Equivocate
	Mute       = byzantine.Mute
	Corrupt    = byzantine.Corrupt
	Stall      = byzantine.Stall
)

// ByzantineTelemetry is FaultTelemetry.Byzantine: what the adversaries
// actually did to the run.
type ByzantineTelemetry = byzantine.Telemetry

// Equivocators returns a plan making nodes 0..k-1 equivocate on every
// message — the canonical adversary for the local-broadcast separation.
func Equivocators(k int) *ByzantinePlan { return byzantine.Equivocators(k) }

// ---- Clock models (condition 2: speeds within [s_low, s_high]) ----

// ClockModel assigns local clocks to nodes.
type ClockModel = clock.Model

// PerfectClocks gives every node a rate-1 clock.
func PerfectClocks() ClockModel { return clock.PerfectModel{} }

// UniformClocks draws each node's constant rate uniformly from
// [low, high].
func UniformClocks(low, high float64) ClockModel { return clock.NewUniformFixedModel(low, high) }

// WanderingClocks gives each node a piecewise-constant clock whose rate is
// redrawn from [low, high] at exponential(segmentMean) intervals.
func WanderingClocks(low, high, segmentMean float64) ClockModel {
	return clock.NewWanderingModel(low, high, segmentMean)
}

// ---- Link factories ----

// LinkFactory is a network's link discipline: one immutable value from which
// the network lays out a row per directed edge in its one in-flight store,
// each row drawing from its edge's random stream. It holds no per-run state,
// so one Env can be run repeatedly and from concurrent sweep workers.
type LinkFactory = channel.Factory

// RandomDelayLinks returns non-FIFO links with independent per-message
// delays — the paper's channel model.
func RandomDelayLinks(delay DelayDist) LinkFactory { return channel.RandomDelayFactory(delay) }

// FIFOLinks returns order-preserving links (needed by Itai–Rodeh async).
func FIFOLinks(delay DelayDist) LinkFactory { return channel.FIFOFactory(delay) }

// ARQLinks returns lossy stop-and-wait links with per-attempt success
// probability p and slot duration slot — the physical model behind
// Retransmission.
func ARQLinks(p, slot float64) LinkFactory { return channel.ARQFactory(p, slot) }

// ---- Baseline elections ----

// ChangRobertsArrangement selects the identity layout.
type ChangRobertsArrangement = election.ChangRobertsArrangement

// Identity arrangements for Chang–Roberts and Peterson.
const (
	ArrangementRandom     = election.ArrangementRandom
	ArrangementAscending  = election.ArrangementAscending
	ArrangementDescending = election.ArrangementDescending
)

// ---- Synchronizers (Section 2, Theorem 1) ----

// SyncKind selects a message-driven synchronizer.
type SyncKind = synchronizer.Kind

// The message-driven synchronizers.
const (
	SyncRound = synchronizer.KindRound
	SyncAlpha = synchronizer.KindAlpha
	SyncBeta  = synchronizer.KindBeta
	SyncGamma = synchronizer.KindGamma
)

// SyncProtocol is a synchronous protocol, run over a synchronizer.
type SyncProtocol = synchronizer.Node

// SyncProtocolContext is the per-round local view a SyncProtocol receives.
type SyncProtocolContext = synchronizer.NodeContext

// SyncMessage is one message delivered to a SyncProtocol at a round start.
type SyncMessage = synchronizer.Message

// ---- Model checking ----

// CheckOptions configures the exhaustive exploration.
type CheckOptions = check.Options

// CheckReport is the exploration outcome.
type CheckReport = check.Report

// CheckElection explores the election protocol's whole reachable state
// graph on a small ring, under every schedule and message interleaving,
// and verifies its safety invariants and that a leader is reachable from
// every state.
func CheckElection(opts CheckOptions) (CheckReport, error) {
	return check.CheckElection(opts)
}

// ---- Topologies ----

// Graph is a directed communication topology.
type Graph = topology.Graph

// Ring returns the anonymous unidirectional ring on n nodes.
func Ring(n int) *Graph { return topology.Ring(n) }

// BiRing returns the bidirectional ring on n nodes.
func BiRing(n int) *Graph { return topology.BiRing(n) }

// Complete returns the complete graph on n nodes.
func Complete(n int) *Graph { return topology.Complete(n) }

// Hypercube returns the 2^dim-node hypercube.
func Hypercube(dim int) *Graph { return topology.Hypercube(dim) }

// ---- Experiment harness ----

// Sweep runs seeded repetitions over a parameter range in parallel. Its Run
// takes a func(x) (Env, Protocol, error) builder and executes every
// repetition through the unified Run entry point.
type Sweep = harness.Sweep

// SweepSizes is the Sweep.Run builder that runs p on base with N = x. It
// refuses an x that is not a whole number and a base that sets N or Graph.
func SweepSizes(base Env, p Protocol) func(x float64) (Env, Protocol, error) {
	return harness.Sizes(base, p)
}

// SweepPoint aggregates repetitions at one parameter value.
type SweepPoint = harness.Point

// GrowthFit is a least-squares fit (slope = growth exponent on log-log
// axes).
type GrowthFit = stats.LinearFit

// GrowthExponent fits metric ~ C·x^k over sweep points.
func GrowthExponent(points []SweepPoint, metric string) (GrowthFit, error) {
	return harness.GrowthExponent(points, metric)
}

// Table is an aligned-text/CSV results table.
type Table = harness.Table

// PointsTable renders sweep points as a table.
func PointsTable(title, xHeader string, points []SweepPoint) *Table {
	return harness.PointsTable(title, xHeader, points)
}
