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
)

// The run substrate: the one place an Env becomes a network.Config, and the
// one routine that builds, observes, runs and harvests a kernel-backed
// network — every such protocol, the synchronizer-backed ones included,
// supplies nodes to runNetwork, and CI fails on a second network.New caller.
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

// ring resolves the topology of a ring protocol: the default
// unidirectional ring, or the env's graph together with each node's
// out-port towards its successor on the embedded Hamiltonian cycle (nil on
// the default ring, where every node's only port is 0).
func (e Env) ring() (*topology.Graph, []int, error) {
	if e.Graph == nil {
		return topology.Ring(e.N), nil, nil
	}
	ports, err := e.Graph.RingEmbedding()
	if err != nil {
		return nil, nil, fmt.Errorf("runner: %w", err)
	}
	return e.Graph, ports, nil
}

// sendPortAt returns node i's successor port (0 on the default ring).
func sendPortAt(ports []int, i int) int {
	if ports == nil {
		return 0
	}
	return ports[i]
}

// netProtocol is what an event-driven protocol contributes to a run on the
// substrate. Everything else — topology and link defaults, bounds, network
// construction, the probe collector, the common Report fields — is
// runNetwork's.
type netProtocol struct {
	// graph, when set, replaces the env's topology default (ben-or needs a
	// complete graph where a bare N otherwise means a ring).
	graph *topology.Graph
	// ring routes the protocol along the embedded Hamiltonian cycle:
	// makeNode then receives each node's successor out-port.
	ring bool
	// links is the default link discipline (random-delay or FIFO).
	links func(dist.Dist) channel.Factory
	// anonymous forbids identity reads (network.Config.Anonymous).
	anonymous bool
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
}

// runNetwork executes p on env: it resolves the topology, maps the
// environment onto the network, installs the probe collector, runs to the
// env's bounds and harvests the Report fields every kernel-backed run
// shares before handing the report to p.collect.
func runNetwork(env Env, p netProtocol) (Report, error) {
	graph, ports := p.graph, []int(nil)
	var err error
	switch {
	case p.ring:
		graph, ports, err = env.ring()
	case graph == nil:
		graph, err = env.graph()
	}
	if err != nil {
		return Report{}, err
	}
	cfg := env.networkConfig(graph, p.links)
	cfg.Anonymous = p.anonymous

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
	return rep, nil
}
