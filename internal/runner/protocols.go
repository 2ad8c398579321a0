package runner

import (
	"cmp"
	"fmt"

	"abenet/internal/channel"
	"abenet/internal/core"
	"abenet/internal/dist"
	"abenet/internal/election"
	"abenet/internal/network"
	"abenet/internal/probe"
	"abenet/internal/reuse"
	"abenet/internal/synchronizer"
)

// Election is the paper's probabilistic leader election for anonymous
// unidirectional ABE rings (Section 3). It honours every Env field; on
// non-ring topologies it runs along the embedded Hamiltonian cycle.
// Extra: ElectionExtra.
type Election struct {
	// A0 is the base activation parameter in (0, 1). 0 means the balanced
	// default A0ForRing(n, δ, tick, 1) — the paper's linear-complexity
	// parameterisation for the environment's mean delay.
	A0 float64
	// TickInterval is the local tick period; 0 means 1.
	TickInterval float64
	// ConstantActivation enables the E5 ablation (constant wake-up rate).
	ConstantActivation bool
	// KeepRunning disables stop-on-leader; requires a finite Env.Horizon.
	KeepRunning bool
	// RecandidacyTimeout, when positive, lets passive nodes rejoin as
	// candidates after that many message-free local clock units. This is
	// the opt-in liveness patch for fault plans that can wedge the
	// election (a healed partition leaves every survivor passive and no
	// token alive); choose it large against n·δ. 0 keeps the paper's
	// passive-forever rule and byte-identical runs.
	RecandidacyTimeout float64
}

// Name implements Protocol.
func (Election) Name() string { return "election" }

func (Election) capabilities() Capabilities {
	return Capabilities{Faults: true}
}

func (Election) extra() any { return ElectionExtra{} }

func (p Election) check(s *scenario) error {
	cfg, err := p.config(s.env, s.n)
	if err != nil {
		return err
	}
	if _, err := core.NewElectionParams(cfg); err != nil {
		return err
	}
	return s.ring()
}

// config returns the node configuration p's options give on env's n-node
// ring.
func (p Election) config(env Env, n int) (core.ElectionNodeConfig, error) {
	if p.KeepRunning && env.Horizon == 0 {
		return core.ElectionNodeConfig{}, fmt.Errorf("runner: Election.KeepRunning requires a finite Env.Horizon (tick timers never quiesce)")
	}
	a0 := p.A0
	if a0 == 0 {
		tick := cmp.Or(p.TickInterval, 1)
		delta := env.meanDelay()
		if !(delta > 0) {
			return core.ElectionNodeConfig{}, fmt.Errorf("runner: cannot derive a default A0 for mean delay %g; set Election.A0 explicitly", delta)
		}
		if tick > 0 { // core.NewElectionParams refuses any other tick
			a0 = core.A0ForRing(n, delta, tick, 1)
		}
	}
	return core.ElectionNodeConfig{
		RingSize:           n,
		A0:                 a0,
		TickInterval:       p.TickInterval,
		StopOnLeader:       !p.KeepRunning,
		ConstantActivation: p.ConstantActivation,
		RecandidacyTimeout: p.RecandidacyTimeout,
	}, nil
}

// Run implements Protocol.
func (p Election) Run(env Env) (Report, error) {
	n := env.Graph.N()
	cfg, err := p.config(env, n)
	if err != nil {
		return Report{}, err
	}
	ring, err := newElectionRing(n, cfg)
	if err != nil {
		return Report{}, err
	}
	return runNetwork(env, ring.protocol())
}

// electionRing owns the election nodes of one run. Every node's first
// incarnation lives in one slab — a 10⁵-node ring is one allocation, not
// 10⁵ — and node(i) is node i's current incarnation: its slab slot until it
// first restarts, and from then on restarted[i]. The table of restarted
// incarnations is made on the first restart, so a run without churn keeps no
// pointer per node. All of them share the ring's params, validated once, and
// count into the params' one Tally. A re-candidacy run keeps its first
// incarnations' NodeExtras in one slab too.
type electionRing struct {
	params     *core.ElectionParams
	first      []core.ElectionNode
	extras     []core.NodeExtra     // extras[i] = first[i]'s NodeExtra; nil unless re-candidacy is on
	restarted  []*core.ElectionNode // nil until a node first restarts; then restarted[i] is nil until node i does
	extra      ElectionExtra        // NodeExtra counters of dead incarnations; the run's totals after collect
	violations []string
}

// newElectionRing validates cfg's ring-wide fields (its SendPort is not
// read) for a ring of n nodes.
func newElectionRing(n int, cfg core.ElectionNodeConfig) (*electionRing, error) {
	params, err := core.NewElectionParams(cfg)
	if err != nil {
		return nil, err
	}
	ring := &electionRing{params: params, first: electionSlabs.GetZeroed(n)}
	if cfg.RecandidacyTimeout > 0 {
		ring.extras = make([]core.NodeExtra, n)
	}
	return ring, nil
}

// protocol is what the run substrate needs to run r's election.
func (r *electionRing) protocol() netProtocol {
	return netProtocol{
		ring:      true,
		links:     channel.RandomDelayFactory,
		anonymous: true,
		makeNode:  r.spawn,
		gauges:    electionGauges{r.params},
		collect: func(rep *Report) error {
			r.collect(rep)
			return nil
		},
		own: r,
	}
}

// electionSlabs pools the node slabs of finished rings. A slab slot at zero
// is a node never spawned, so a slab is taken zeroed; its nodes point at
// their ring's params, so the pool clears a slab it keeps.
var electionSlabs = reuse.New[core.ElectionNode](true)

// recycle hands r's node slab and its token table to the next ring, once
// nothing reads r's nodes.
func (r *electionRing) recycle() {
	electionSlabs.Put(r.first)
	r.first = nil
	r.params.Recycle()
}

// node returns node i's current incarnation. Before node i is first spawned
// it is its zero slab slot, whose State is none of the four.
func (r *electionRing) node(i int) *core.ElectionNode {
	if r.restarted != nil && r.restarted[i] != nil {
		return r.restarted[i]
	}
	return &r.first[i]
}

// spawn builds node i's next incarnation, sending on sendPort. Fault
// recovery restarts a node as a fresh instance (churn): a new object, never
// the slab slot reset in place, so whoever still holds the dead incarnation
// keeps seeing its final state. What the dead incarnation kept in its
// NodeExtra — especially any recorded safety violations — must survive into
// the report, so it is folded in before the node is replaced; what it
// counted is already in the ring's Tally. A slab slot still at zero has never
// been spawned: a node's State is never zero.
func (r *electionRing) spawn(i, sendPort int) (network.Node, error) {
	// A restarted incarnation's NodeExtra, if any, is its own, like the node.
	restart := r.node(i).State() != 0
	var extra *core.NodeExtra
	if !restart && r.extras != nil {
		extra = &r.extras[i]
	}
	fresh, err := r.params.Node(sendPort, extra)
	if err != nil {
		return nil, err
	}
	node := &r.first[i]
	if restart {
		r.params.Retire(r.node(i))
		r.fold(r.node(i))
		if r.restarted == nil {
			r.restarted = make([]*core.ElectionNode, len(r.first))
		}
		node = new(core.ElectionNode)
		r.restarted[i] = node
	}
	*node = fresh
	return node, nil
}

// collect reads the outcome: the ring's Tally once, then every node's
// current incarnation in one pass in index order — the leaders, and each
// node's NodeExtra folded into the run's totals.
func (r *electionRing) collect(rep *Report) {
	tally := r.params.Tally()
	r.extra.Activations = tally.Activations
	r.extra.Knockouts = tally.Knockouts
	r.extra.ResidualPurges = tally.ResidualPurges
	rep.LeaderIndex = -1
	for i := range r.first {
		node := r.node(i)
		if node.State() == core.Leader {
			rep.Leaders++
			rep.LeaderIndex = i
		}
		r.fold(node)
	}
	rep.Elected = rep.Leaders > 0
	rep.Violations = r.violations
	rep.Extra = r.extra
}

// fold adds what one incarnation kept in its NodeExtra to the run's totals.
func (r *electionRing) fold(node *core.ElectionNode) {
	r.extra.Recandidacies += node.Recandidacies()
	r.extra.StalePurges += node.StalePurges()
	r.violations = append(r.violations, node.Violations()...)
}

// electionGauges exposes the election's protocol-level gauges: how many of
// the ring's current incarnations are active, passive or leader, as the
// ring's core.Tally keeps them at every state change and churn restart. Each
// reads in O(1).
type electionGauges struct{ params *core.ElectionParams }

// ProbeGauges implements probe.Observable.
func (g electionGauges) ProbeGauges() []probe.Gauge {
	p := g.params
	return []probe.Gauge{
		{Name: "candidates", Read: func() float64 { return float64(p.Tally().Active) }},
		{Name: "passive", Read: func() float64 { return float64(p.Tally().Passive) }},
		{Name: "elected", Read: func() float64 {
			if p.Tally().Leaders > 0 {
				return 1
			}
			return 0
		}},
	}
}

// ItaiRodehSync is the phase-based Itai–Rodeh style election for anonymous
// *synchronous* rings — the "most optimal" synchronous baseline the paper
// compares against. It runs the synchronous model on the kernel: the clock
// synchronizer at period 1 over Deterministic(½) links with perfect clocks
// and instantaneous processing, so every message lands mid-round and round
// r+1 sees exactly the messages of round r. Env.Delay, Links, Clocks and
// Processing are overridden to state that model; Env.Horizon and MaxEvents
// bound the run as for every kernel-backed protocol, and Env.MaxRounds
// bounds the rounds (0 means 1000·n). A message that still missed its round
// would be reported in Report.Violations.
type ItaiRodehSync struct {
	// Q is the per-phase candidacy probability; 0 means the balanced 1/n.
	Q float64
}

// Name implements Protocol.
func (ItaiRodehSync) Name() string { return "itai-rodeh-sync" }

func (p ItaiRodehSync) check(s *scenario) error {
	if err := checkSyncRing(s, p.Q); err != nil {
		return err
	}
	return p.options(s.env, s.n).Validate(nil)
}

// options returns the lock-step model's synchronizer options on env's n
// nodes.
func (ItaiRodehSync) options(env Env, n int) synchronizer.Options {
	return synchronizer.Options{Kind: synchronizer.KindClock, Period: 1, MaxRounds: cmp.Or(env.MaxRounds, 1000*n)}
}

// Run implements Protocol.
func (p ItaiRodehSync) Run(env Env) (Report, error) {
	nodes, err := itaiRodehSyncNodes(env, p.Q)
	if err != nil {
		return Report{}, err
	}
	sync, err := synchronizer.New(env.Graph, p.options(env, len(nodes)))
	if err != nil {
		return Report{}, err
	}
	env.Delay, env.Links, env.Clocks, env.Processing = dist.NewDeterministic(0.5), nil, nil, nil
	return runSynchronizer(env, sync, true, func(i int) synchronizer.Node { return nodes[i] },
		func(rep *Report, res synchronizer.Result, err error) error {
			if err != nil {
				return err
			}
			rep.Rounds = res.Rounds
			countLeaders(rep, len(nodes), func(i int) bool { return nodes[i].IsLeader() })
			if res.Violations > 0 {
				rep.Violations = append(rep.Violations, fmt.Sprintf("%d messages missed their round in the lock-step model (by up to %d rounds)", res.Violations, res.MaxLateness))
			}
			return nil
		})
}

// itaiRodehSyncNodes builds one synchronous Itai–Rodeh node per position of
// env's ring with candidacy probability q (0 means the balanced 1/n), each
// sending towards its successor on the embedded cycle. Both synchronous
// runs of the algorithm — lock-step, and over a message-driven
// synchronizer — start from here.
func itaiRodehSyncNodes(env Env, q float64) ([]*election.ItaiRodehSyncNode, error) {
	ports, n := successorPorts(env.Graph), env.Graph.N()
	q = candidacy(q, n)
	nodes := make([]*election.ItaiRodehSyncNode, n)
	for i := range nodes {
		var err error
		if nodes[i], err = election.NewItaiRodehSyncNode(n, q, sendPortAt(ports, i)); err != nil {
			return nil, err
		}
	}
	return nodes, nil
}

// candidacy is the synchronous Itai–Rodeh candidacy probability on n nodes:
// q, or the balanced 1/n.
func candidacy(q float64, n int) float64 { return cmp.Or(q, 1/float64(n)) }

// checkSyncRing checks what itaiRodehSyncNodes needs: a ring to run along,
// and a candidacy probability election.NewItaiRodehSyncNode admits.
func checkSyncRing(s *scenario, q float64) error {
	if err := s.ring(); err != nil {
		return err
	}
	_, err := election.NewItaiRodehSyncNode(s.n, candidacy(q, s.n), 0)
	return err
}

// countLeaders fills the election outcome fields from a per-node leader
// predicate.
func countLeaders(rep *Report, n int, isLeader func(i int) bool) {
	rep.LeaderIndex = -1
	for i := 0; i < n; i++ {
		if isLeader(i) {
			rep.Leaders++
			rep.LeaderIndex = i
		}
	}
	rep.Elected = rep.Leaders > 0
}

// ringCandidate is the view the substrate needs of a ring-baseline node:
// its network behaviour plus the two predicates behind the shared gauges
// and the election outcome.
type ringCandidate interface {
	network.Node
	IsActive() bool
	IsLeader() bool
}

// ringGauges exposes the protocol-level gauges shared by the ring election
// baselines: the number of active candidates and the elected flag. They
// read the live node slice, so churn restarts are reflected, and each costs
// a pass over it: a sample of a baseline is O(n), where the election's own
// gauges read counts.
type ringGauges struct{ nodes []ringCandidate }

// ProbeGauges implements probe.Observable.
func (g ringGauges) ProbeGauges() []probe.Gauge {
	return []probe.Gauge{
		{Name: "candidates", Read: func() float64 {
			c := 0
			for _, node := range g.nodes {
				if node.IsActive() {
					c++
				}
			}
			return float64(c)
		}},
		{Name: "elected", Read: func() float64 {
			for _, node := range g.nodes {
				if node.IsLeader() {
					return 1
				}
			}
			return 0
		}},
	}
}

// runRingBaseline runs one of the asynchronous ring-election baselines on
// the substrate: they differ only in link discipline, anonymity and node
// constructor.
func runRingBaseline(env Env, links func(dist.Dist) channel.Factory, anonymous bool, newNode func(i, sendPort int) (ringCandidate, error)) (Report, error) {
	n := env.Graph.N()
	nodes := make([]ringCandidate, n)
	return runNetwork(env, netProtocol{
		ring:      true,
		links:     links,
		anonymous: anonymous,
		makeNode: func(i, sendPort int) (network.Node, error) {
			node, err := newNode(i, sendPort)
			if err != nil {
				return nil, err
			}
			nodes[i] = node
			return node, nil
		},
		gauges: ringGauges{nodes},
		collect: func(rep *Report) error {
			countLeaders(rep, n, func(i int) bool { return nodes[i].IsLeader() })
			return nil
		},
	})
}

// ItaiRodehAsync is the classic Itai–Rodeh election for anonymous
// asynchronous rings with FIFO channels (Θ(n log n) expected messages).
// Env.Links, when set, must preserve per-link FIFO order; nil applies the
// FIFO discipline to Env.Delay.
type ItaiRodehAsync struct{}

// Name implements Protocol.
func (ItaiRodehAsync) Name() string { return "itai-rodeh-async" }

func (ItaiRodehAsync) capabilities() Capabilities {
	return Capabilities{Faults: true}
}

func (ItaiRodehAsync) check(s *scenario) error { return s.ring() }

// Run implements Protocol.
func (ItaiRodehAsync) Run(env Env) (Report, error) {
	n := env.Graph.N()
	return runRingBaseline(env, channel.FIFOFactory, true, func(_, sendPort int) (ringCandidate, error) {
		return election.NewItaiRodehAsyncNode(n, sendPort)
	})
}

// ChangRoberts is the identity-based Chang–Roberts election on
// asynchronous rings (Θ(n log n) average, Θ(n²) worst case).
type ChangRoberts struct {
	// Arrangement selects the identity layout; 0 means random.
	Arrangement election.ChangRobertsArrangement
}

// Name implements Protocol.
func (ChangRoberts) Name() string { return "chang-roberts" }

func (ChangRoberts) capabilities() Capabilities {
	return Capabilities{Faults: true}
}

func (p ChangRoberts) check(s *scenario) error {
	if err := p.Arrangement.Validate(); err != nil {
		return err
	}
	return s.ring()
}

// Run implements Protocol.
func (p ChangRoberts) Run(env Env) (Report, error) {
	ids, err := identities(env, p.Arrangement)
	if err != nil {
		return Report{}, err
	}
	return runRingBaseline(env, channel.RandomDelayFactory, false, func(i, sendPort int) (ringCandidate, error) {
		return election.NewChangRobertsNode(ids[i], sendPort), nil
	})
}

// Peterson is Peterson's deterministic O(n log n) election for
// asynchronous unidirectional rings with unique identities and FIFO
// channels. Env.Links, when set, must preserve per-link FIFO order. It
// refuses Env.Faults: its step protocol requires reliable FIFO channels and
// panics on the gaps and overtakes every fault axis produces, so a plan
// would report a crash as a measurement.
type Peterson struct {
	// Arrangement selects the identity layout; 0 means random.
	Arrangement election.ChangRobertsArrangement
}

// Name implements Protocol.
func (Peterson) Name() string { return "peterson" }

func (p Peterson) check(s *scenario) error {
	if err := p.Arrangement.Validate(); err != nil {
		return err
	}
	return s.ring()
}

// Run implements Protocol.
func (p Peterson) Run(env Env) (Report, error) {
	ids, err := identities(env, p.Arrangement)
	if err != nil {
		return Report{}, err
	}
	return runRingBaseline(env, channel.FIFOFactory, false, func(i, sendPort int) (ringCandidate, error) {
		return election.NewPetersonNode(ids[i], sendPort), nil
	})
}

// identities lays out the unique identities of the identity-based
// baselines over the env's ring.
func identities(env Env, a election.ChangRobertsArrangement) ([]int, error) {
	return election.IdentityArrangement(env.Graph.N(), a, env.Seed)
}

// runSynchronizer runs node i's synchronous protocol proto(i) over env's
// graph under sync on the substrate — random-delay links unless the env states
// others, the round front as the protocol-level series — and hands the
// synchronizer's outcome to collect, with the error of a round budget that
// ran out before the protocol stopped.
func runSynchronizer(env Env, sync *synchronizer.Synchronizer, anonymous bool,
	proto func(i int) synchronizer.Node, collect func(*Report, synchronizer.Result, error) error) (Report, error) {
	var net *network.Network
	return runNetwork(env, netProtocol{
		links:     channel.RandomDelayFactory,
		anonymous: anonymous,
		makeNode:  func(i, _ int) (network.Node, error) { return sync.Node(i, proto(i)), nil },
		gauges:    sync,
		started:   func(built *network.Network) { net = built },
		collect: func(rep *Report) error {
			res, err := sync.Result(net)
			return collect(rep, res, err)
		},
	})
}

// Synchronized executes an arbitrary synchronous protocol over the
// asynchronous ABE environment via a message-driven synchronizer — the
// machinery behind Theorem 1's n-messages-per-round cost. It refuses
// Env.Faults: the synchronizers assume reliable delivery, and a lost
// envelope stalls every round after it. Extra: SyncExtra.
type Synchronized struct {
	// Kind selects the synchronizer; 0 means the round synchronizer.
	Kind synchronizer.Kind
	// ClusterRadius is the γ-synchronizer's BFS radius; 0 means 2.
	ClusterRadius int
	// Anonymous forbids protocol identity reads.
	Anonymous bool
	// MakeNode builds the synchronous protocol instance per node.
	// Required.
	MakeNode func(i int) synchronizer.Node
}

// Name implements Protocol.
func (Synchronized) Name() string { return "synchronized" }

func (Synchronized) extra() any { return SyncExtra{} }

func (p Synchronized) check(s *scenario) error {
	if p.MakeNode == nil {
		return fmt.Errorf("runner: synchronized protocol needs a MakeNode constructor")
	}
	return p.options(s.env.MaxRounds).Validate(s.shape())
}

// options returns p's synchronizer options under a budget of maxRounds.
func (p Synchronized) options(maxRounds int) synchronizer.Options {
	return synchronizer.Options{Kind: cmp.Or(p.Kind, synchronizer.KindRound), ClusterRadius: p.ClusterRadius, MaxRounds: maxRounds}
}

// Run implements Protocol.
func (p Synchronized) Run(env Env) (Report, error) {
	sync, err := synchronizer.New(env.Graph, p.options(env.MaxRounds))
	if err != nil {
		return Report{}, err
	}
	nodes := make([]synchronizer.Node, env.Graph.N())
	return runSynchronizer(env, sync, p.Anonymous, func(i int) synchronizer.Node {
		nodes[i] = p.MakeNode(i)
		return nodes[i]
	}, func(rep *Report, res synchronizer.Result, err error) error {
		if err != nil {
			return err
		}
		rep.Rounds = res.Rounds
		rep.Extra = SyncExtra{
			MinRounds:        res.MinRounds,
			PayloadMessages:  res.PayloadMessages,
			MessagesPerRound: res.MessagesPerRound,
			Stopped:          res.Stopped,
			StopCause:        res.StopCause,
		}
		// Count leaders when the synchronous protocol reports them.
		countLeaders(rep, len(nodes), func(i int) bool {
			lr, ok := nodes[i].(interface{ IsLeader() bool })
			return ok && lr.IsLeader()
		})
		return nil
	})
}

// SynchronizedElection runs the synchronous Itai–Rodeh election over a
// synchronizer on the ABE environment — the paper's "synchronous
// algorithms lose their message complexity" workload (E8b). Extra:
// SyncExtra.
type SynchronizedElection struct {
	// Kind selects the synchronizer; 0 means the round synchronizer.
	Kind synchronizer.Kind
	// Q is the per-phase candidacy probability; 0 means the balanced 1/n.
	Q float64
}

// Name implements Protocol.
func (SynchronizedElection) Name() string { return "synchronized-election" }

func (SynchronizedElection) extra() any { return Synchronized{}.extra() }

// syncElectionRounds is SynchronizedElection's round budget when
// Env.MaxRounds is 0.
const syncElectionRounds = 100_000

// On non-ring topologies the election's tokens must follow the embedded
// Hamiltonian cycle, exactly as the native ring protocols do.
func (p SynchronizedElection) check(s *scenario) error {
	if err := checkSyncRing(s, p.Q); err != nil {
		return err
	}
	return Synchronized{Kind: p.Kind}.options(cmp.Or(s.env.MaxRounds, syncElectionRounds)).Validate(s.shape())
}

// Run implements Protocol.
func (p SynchronizedElection) Run(env Env) (Report, error) {
	nodes, err := itaiRodehSyncNodes(env, p.Q)
	if err != nil {
		return Report{}, err
	}
	env.MaxRounds = cmp.Or(env.MaxRounds, syncElectionRounds)
	return Synchronized{
		Kind:      p.Kind,
		Anonymous: true,
		MakeNode:  func(i int) synchronizer.Node { return nodes[i] },
	}.Run(env)
}

// ClockSync is the clock-driven (Tel–Korach–Zaks style) ABD synchronizer
// workload: the clock synchronizer driving a heartbeat — one payload-less
// message per out-edge per round, no control messages — and trusting a hard
// delay bound that ABE networks do not have. Extra: ClockSyncExtra.
type ClockSync struct {
	// Period is the local time between round starts; 0 means twice the
	// environment's mean delay.
	Period float64
	// Rounds is how many rounds each node runs; 0 means 100. Env.MaxRounds,
	// when set, caps the count either way.
	Rounds int
}

// Name implements Protocol.
func (ClockSync) Name() string { return "clock-sync" }

func (ClockSync) extra() any { return ClockSyncExtra{} }

// heartbeat is ClockSync's synchronous protocol: one payload-less message
// per out-edge per round, and no stop — the round budget ends the run.
type heartbeat struct{}

func (heartbeat) Round(ctx synchronizer.NodeContext, _ int, _ []synchronizer.Message) {
	for port := range ctx.OutDegree() {
		ctx.Send(port, nil)
	}
}

func (p ClockSync) check(s *scenario) error { return p.options(s.env).Validate(nil) }

// options returns the clock synchronizer's options for p under env.
func (p ClockSync) options(env Env) synchronizer.Options {
	rounds := cmp.Or(p.Rounds, 100)
	if env.MaxRounds > 0 && rounds > env.MaxRounds {
		rounds = env.MaxRounds
	}
	return synchronizer.Options{Kind: synchronizer.KindClock, Period: cmp.Or(p.Period, 2*env.meanDelay()), MaxRounds: rounds}
}

// Run implements Protocol.
func (p ClockSync) Run(env Env) (Report, error) {
	sync, err := synchronizer.New(env.Graph, p.options(env))
	if err != nil {
		return Report{}, err
	}
	return runSynchronizer(env, sync, false, func(int) synchronizer.Node { return heartbeat{} },
		func(rep *Report, res synchronizer.Result, _ error) error {
			// The heartbeat never stops: the spent round budget is its end.
			rep.Rounds = res.MinRounds
			x := ClockSyncExtra{RoundViolations: res.Violations, MaxLateness: res.MaxLateness}
			if rep.Messages > 0 {
				x.ViolationRate = float64(res.Violations) / float64(rep.Messages)
			}
			rep.Extra = x
			return nil
		})
}
