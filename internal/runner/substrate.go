package runner

import (
	"fmt"

	"abenet/internal/channel"
	"abenet/internal/core"
	"abenet/internal/dist"
	"abenet/internal/network"
	"abenet/internal/probe"
	"abenet/internal/simtime"
	"abenet/internal/topology"
	"abenet/internal/trace"
)

// The run substrate: the one place an Env becomes a network.Config, and the
// one routine that builds, observes, runs and harvests a kernel-backed
// network — every such protocol, the synchronizer-backed ones included,
// supplies nodes to runNetwork, and CI fails on a second network.New caller.
// Observing and tracing a run are properties of the network, not of the
// algorithm, so runNetwork installs and harvests both for every protocol.
// Adding an Env capability that reaches the network means adding the Env
// field, one line in networkConfig, and the network.Config field it feeds —
// no protocol changes.

// defaultMaxEvents is the livelock guard every kernel-backed protocol
// shares when Env.MaxEvents is 0.
const defaultMaxEvents = 50_000_000

// networkConfig maps the environment onto the network layer's config for
// the given concrete topology. discipline is the protocol's default link
// discipline, applied to Env.Delay when Env.Links is unset. Exactly one of
// the two media is configured: per-edge Links, or — under LocalBroadcast —
// the radio medium with Env.Delay as its per-transmission BroadcastDelay.
// Anonymous is the one field left to the protocol: whether nodes may read
// identities is a property of the algorithm, not of the environment.
func (e Env) networkConfig(graph *topology.Graph, discipline func(dist.Dist) channel.Factory) network.Config {
	cfg := network.Config{
		Graph:          graph,
		Clocks:         e.Clocks,
		Processing:     e.Processing,
		Seed:           e.Seed,
		Scheduler:      e.Scheduler,
		Tracer:         e.tracer,
		Faults:         e.Faults,
		Byzantine:      e.Byzantine,
		LocalBroadcast: e.LocalBroadcast,
	}
	switch {
	case e.LocalBroadcast:
		cfg.BroadcastDelay = e.delay()
	case e.Links != nil:
		cfg.Links = e.Links
	default:
		cfg.Links = discipline(e.delay())
	}
	return cfg
}

// bounds resolves the kernel run bounds: an unset Horizon is unbounded, an
// unset MaxEvents the shared livelock guard.
func (e Env) bounds() (horizon simtime.Time, maxEvents uint64) {
	horizon, maxEvents = e.Horizon, e.MaxEvents
	if horizon == 0 {
		horizon = simtime.Forever
	}
	if maxEvents == 0 {
		maxEvents = defaultMaxEvents
	}
	return horizon, maxEvents
}

// successorPorts returns each node's out-port towards its successor on the
// Hamiltonian cycle the check found embedded in g (scenario.ring), which g
// caches: nil — port 0 everywhere — where every node has one out-edge, as on
// the default ring, which is therefore never searched.
func successorPorts(g *topology.Graph) []int {
	if g.EdgeCount() == g.N() {
		return nil
	}
	ports, _ := g.RingEmbedding() // scenario.ring refused the graph if this fails
	return ports
}

// sendPortAt returns node i's successor port (0 where ports is nil).
func sendPortAt(ports []int, i int) int {
	if ports == nil {
		return 0
	}
	return ports[i]
}

// netProtocol is what an event-driven protocol contributes to a run on the
// substrate. Everything else — link defaults, bounds, network construction,
// the probe collector, the trace recorder, the common Report fields — is
// runNetwork's.
type netProtocol struct {
	// ring routes the protocol along the embedded Hamiltonian cycle:
	// makeNode then receives each node's successor out-port.
	ring bool
	// anonymous forbids identity reads (network.Config.Anonymous).
	anonymous bool
	// links is the default link discipline (random-delay or FIFO).
	links func(dist.Dist) channel.Factory
	// makeNode builds node i's protocol instance; fault recovery calls it
	// again for a restarted node. sendPort is 0 unless ring is set.
	makeNode func(i, sendPort int) (network.Node, error)
	// gauges are the protocol-level series sampled under Env.Observe.
	gauges probe.Observable
	// started, when set, runs once the network is built and before it
	// runs — for protocols that stop the kernel themselves.
	started func(net *network.Network)
	// collect fills the protocol-specific Report fields after the run; an
	// error (a synchronizer's exhausted round budget) fails the run.
	collect func(rep *Report) error
	// own, when set, holds arrays of the protocol's own, which runNetwork
	// hands on to the next run once the network has released its arrays.
	own recycler
}

// recycler is a protocol's owner of arrays it can hand on to the next run.
// An interface, not a func field: a method value would cost a run one more
// object.
type recycler interface{ recycle() }

// runNetwork executes p on env's resolved graph: it maps the environment
// onto the network, installs the probe collector and the trace recorder,
// runs to the env's bounds and harvests the Report fields every
// kernel-backed run shares before handing the report to p.collect. A run
// that returns normally then releases the network (Network.Release) and
// p's own arrays: this is the one place either happens.
func runNetwork(env Env, p netProtocol) (Report, error) {
	var ports []int
	if p.ring {
		ports = successorPorts(env.Graph)
	}
	cfg := env.networkConfig(env.Graph, p.links)
	cfg.Anonymous = p.anonymous
	var rec *trace.Recorder
	if env.Trace != nil {
		rec = trace.NewRecorder(env.Trace.MaxEvents)
		cfg.Tracer = rec
	}

	var buildErr error
	net, err := network.New(cfg, func(i int) network.Node {
		node, err := p.makeNode(i, sendPortAt(ports, i))
		if err != nil {
			buildErr = err
			return nil // network.New aborts on a nil node
		}
		return node
	})
	if buildErr != nil {
		return Report{}, buildErr
	}
	if err != nil {
		return Report{}, err
	}
	var collector *probe.Collector
	if env.Observe != nil {
		collector, err = probe.NewCollector(*env.Observe, net, p.gauges)
		if err != nil {
			return Report{}, fmt.Errorf("runner: %w", err)
		}
		net.InstallProbe(collector)
	}
	if p.started != nil {
		p.started(net)
	}
	if err := net.Run(env.bounds()); err != nil {
		return Report{}, err
	}

	m := net.Metrics()
	rep := Report{
		Messages:      m.MessagesSent,
		Transmissions: m.Transmissions,
		Time:          float64(net.Now()),
		Events:        net.Kernel().Executed(),
		Params:        core.ParamsOf(net),
		Faults:        net.FaultTelemetry(),
	}
	if collector != nil {
		collector.Final(net.Now(), rep.Events)
		rep.Series = collector.Series()
	}
	if err := p.collect(&rep); err != nil {
		return Report{}, err
	}
	if rec != nil {
		rep.Trace = rec.Export()
	}
	// Everything the report holds has been read off the network and the
	// protocol's nodes: their arrays go to the next run in this process. A
	// run that failed or panicked returned above, and hands nothing on.
	net.Release()
	if p.own != nil {
		p.own.recycle()
	}
	return rep, nil
}
