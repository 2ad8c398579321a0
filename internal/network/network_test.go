package network

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"abenet/internal/allocbudget"
	"abenet/internal/byzantine"
	"abenet/internal/channel"
	"abenet/internal/clock"
	"abenet/internal/dist"
	"abenet/internal/faults"
	"abenet/internal/golden"
	"abenet/internal/rng"
	"abenet/internal/simtime"
	"abenet/internal/topology"
)

// relay forwards every received message on out-port 0, up to a budget, then
// stops the network.
type relay struct {
	budget  int
	starter bool
	seen    int
}

func (p *relay) Init(ctx *Context) {
	if p.starter {
		ctx.Send(0, "token")
	}
}

func (p *relay) OnMessage(ctx *Context, _ int, payload any) {
	p.seen++
	p.budget--
	if p.budget <= 0 {
		ctx.StopNetwork("budget exhausted")
		return
	}
	ctx.Send(0, payload)
}

func (p *relay) OnTimer(*Context, int) {}

func ringOfRelays(t *testing.T, n int, seed uint64) *Network {
	t.Helper()
	net, err := New(Config{
		Graph: topology.Ring(n),
		Links: channel.RandomDelayFactory(dist.NewExponential(1)),
		Seed:  seed,
	}, func(i int) Node {
		return &relay{budget: 1000, starter: i == 0}
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestTokenCirculatesRing(t *testing.T) {
	net := ringOfRelays(t, 5, 1)
	if err := net.Run(simtime.Forever, 100000); err != nil {
		t.Fatal(err)
	}
	m := net.Metrics()
	if m.MessagesSent == 0 || m.MessagesDelivered == 0 {
		t.Fatalf("no traffic: %+v", m)
	}
	// The token is conserved: exactly one send per delivery plus the seed.
	if m.MessagesSent != m.MessagesDelivered {
		t.Fatalf("sent %d != delivered %d with a conserved token", m.MessagesSent, m.MessagesDelivered)
	}
	if net.StopCause() != "budget exhausted" {
		t.Fatalf("stop cause = %q", net.StopCause())
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (Metrics, simtime.Time) {
		net := ringOfRelays(t, 7, 42)
		if err := net.Run(simtime.Forever, 0); err != nil {
			t.Fatal(err)
		}
		return net.Metrics(), net.Now()
	}
	m1, t1 := run()
	m2, t2 := run()
	if m1 != m2 || t1 != t2 {
		t.Fatalf("replay diverged: %+v@%v vs %+v@%v", m1, t1, m2, t2)
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a := ringOfRelays(t, 7, 1)
	b := ringOfRelays(t, 7, 2)
	if err := a.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	if a.Now() == b.Now() {
		t.Fatal("different seeds produced identical completion times")
	}
}

// idReader reads its identity in Init.
type idReader struct{ sawID int }

func (p *idReader) Init(ctx *Context)            { p.sawID = ctx.ID() }
func (p *idReader) OnMessage(*Context, int, any) {}
func (p *idReader) OnTimer(*Context, int)        {}

func TestAnonymityEnforced(t *testing.T) {
	net, err := New(Config{
		Graph:     topology.Ring(3),
		Links:     channel.RandomDelayFactory(dist.NewDeterministic(1)),
		Seed:      1,
		Anonymous: true,
	}, func(int) Node { return &idReader{} })
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("reading ID on an anonymous network did not panic")
		}
	}()
	_ = net.Run(simtime.Forever, 0)
}

func TestIDAvailableOnNamedNetwork(t *testing.T) {
	net, err := New(Config{
		Graph: topology.Ring(3),
		Links: channel.RandomDelayFactory(dist.NewDeterministic(1)),
		Seed:  1,
	}, func(int) Node { return &idReader{sawID: -1} })
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		node, ok := net.NodeAt(i).(*idReader)
		if !ok {
			t.Fatal("unexpected node type")
		}
		if node.sawID != i {
			t.Fatalf("node %d saw id %d", i, node.sawID)
		}
	}
}

// ticker counts timer firings and measures local-time spacing.
type ticker struct {
	ticks  int
	limit  int
	locals []float64
}

func (p *ticker) Init(ctx *Context) {
	ctx.SetLocalTimerFunc(1, 0)
}

func (p *ticker) OnMessage(*Context, int, any) {}

func (p *ticker) OnTimer(ctx *Context, kind int) {
	p.ticks++
	p.locals = append(p.locals, ctx.LocalTime())
	if p.ticks >= p.limit {
		ctx.StopNetwork("done ticking")
		return
	}
	ctx.SetLocalTimerFunc(1, 0)
}

func TestLocalTimersFollowLocalClocks(t *testing.T) {
	net, err := New(Config{
		Graph:  topology.Ring(2),
		Links:  channel.RandomDelayFactory(dist.NewDeterministic(1)),
		Clocks: clock.NewUniformFixedModel(2, 2), // all clocks run at 2x
		Seed:   3,
	}, func(i int) Node { return &ticker{limit: 10} })
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	// 10 local units at rate 2 = 5 real units.
	if got := float64(net.Now()); got < 4.99 || got > 5.01 {
		t.Fatalf("10 local ticks at rate 2 ended at real %v, want 5", got)
	}
	node, ok := net.NodeAt(0).(*ticker)
	if !ok {
		t.Fatal("unexpected node type")
	}
	for i, lt := range node.locals {
		want := float64(i + 1)
		if lt < want-1e-9 || lt > want+1e-9 {
			t.Fatalf("tick %d at local time %v, want %v", i, lt, want)
		}
	}
}

// funcNode adapts closures to the Node interface for small tests.
type funcNode struct {
	init      func(*Context)
	onMessage func(*Context, int, any)
	onTimer   func(*Context, int)
}

func (f *funcNode) Init(ctx *Context) {
	if f.init != nil {
		f.init(ctx)
	}
}

func (f *funcNode) OnMessage(ctx *Context, port int, payload any) {
	if f.onMessage != nil {
		f.onMessage(ctx, port, payload)
	}
}

func (f *funcNode) OnTimer(ctx *Context, kind int) {
	if f.onTimer != nil {
		f.onTimer(ctx, kind)
	}
}

func TestProcessingDelaySerialisesEvents(t *testing.T) {
	// Node 1 receives two messages at the same instant; with deterministic
	// processing time 1 they must complete at t=2 and t=3 (busy server),
	// not both at t=2.
	var completions []simtime.Time
	receiver := &funcNode{
		onMessage: func(ctx *Context, _ int, _ any) {
			completions = append(completions, ctx.Now())
		},
	}
	net, err := New(Config{
		Graph:      topology.Ring(2),
		Links:      channel.RandomDelayFactory(dist.NewDeterministic(1)),
		Processing: dist.NewDeterministic(1),
		Seed:       5,
	}, func(i int) Node {
		if i == 1 {
			return receiver
		}
		return &funcNode{init: func(ctx *Context) {
			ctx.Send(0, "a")
			ctx.Send(0, "b")
		}}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	if len(completions) != 2 {
		t.Fatalf("completions = %v", completions)
	}
	if completions[0] != 2 || completions[1] != 3 {
		t.Fatalf("busy-server completions = %v, want [2 3]", completions)
	}
}

func TestABEParameterReporting(t *testing.T) {
	net, err := New(Config{
		Graph:      topology.Ring(4),
		Links:      channel.RandomDelayFactory(dist.NewExponential(2.5)),
		Clocks:     clock.NewUniformFixedModel(0.5, 2),
		Processing: dist.NewDeterministic(0.25),
		Seed:       6,
	}, func(int) Node { return &funcNode{} })
	if err != nil {
		t.Fatal(err)
	}
	if got := net.MaxLinkMeanDelay(); got != 2.5 {
		t.Fatalf("δ = %v, want 2.5", got)
	}
	low, high := net.ClockBounds()
	if low != 0.5 || high != 2 {
		t.Fatalf("clock bounds = (%v, %v)", low, high)
	}
	if got := net.ProcessingMean(); got != 0.25 {
		t.Fatalf("γ = %v, want 0.25", got)
	}
}

func TestHeterogeneousDeltaIsMaxLinkMean(t *testing.T) {
	means := []float64{1, 3, 2, 0.5}
	net, err := New(Config{
		Graph: topology.Ring(4),
		Links: channel.HeterogeneousFactory(func(i int) dist.Dist {
			return dist.NewExponential(means[i%len(means)])
		}),
		Seed: 7,
	}, func(int) Node { return &funcNode{} })
	if err != nil {
		t.Fatal(err)
	}
	if got := net.MaxLinkMeanDelay(); got != 3 {
		t.Fatalf("δ = %v, want 3 (the worst link)", got)
	}
}

// storeKind is a network on one kind of store.
type storeKind struct {
	name string
	cfg  Config
}

// storeKinds are networks on each kind of store: random-delay, FIFO, ARQ,
// heterogeneous random-delay and radio.
func storeKinds() []storeKind {
	means := []float64{0.5, 2.5, 1, 4, 0.25}
	return []storeKind{
		{"random-delay", Config{Graph: topology.Ring(5), Links: channel.RandomDelayFactory(dist.NewUniform(0, 3))}},
		{"fifo", Config{Graph: topology.BiRing(6), Links: channel.FIFOFactory(dist.NewExponential(1.5))}},
		{"arq", Config{Graph: topology.Complete(4), Links: channel.ARQFactory(0.25, 0.5)}},
		{"heterogeneous", Config{Graph: topology.Complete(5), Links: channel.HeterogeneousFactory(func(k int) dist.Dist {
			return dist.NewExponential(means[k*7%len(means)])
		})}},
		{"radio", Config{Graph: topology.Complete(4), LocalBroadcast: true, BroadcastDelay: dist.NewDeterministic(0.75)}},
	}
}

// TestMaxLinkMeanDelayIsThePerLinkWalk pins the δ the store computes once,
// when it lays out its rows, to the walk over every link it replaces, on both
// media and under every discipline.
func TestMaxLinkMeanDelayIsThePerLinkWalk(t *testing.T) {
	for _, tc := range storeKinds() {
		t.Run(tc.name, func(t *testing.T) {
			net, err := New(tc.cfg, func(int) Node { return idleNode{} })
			if err != nil {
				t.Fatal(err)
			}
			walk := 0.0
			for k := range net.store.Links() {
				if m := net.store.MeanDelay(k); m > walk {
					walk = m
				}
			}
			if got := net.MaxLinkMeanDelay(); got != walk || walk == 0 {
				t.Fatalf("δ = %v, the walk over %d links reads %v", got, net.store.Links(), walk)
			}
		})
	}
}

// TestStoreStatsPerLink pins every link's Stats — sent, delivered,
// transmissions and total delay — after a gossip run on each kind of store,
// as readable lines in testdata/store_stats.golden. The lines were recorded
// when a row still kept its own Transmissions: a row that counts only what it
// must reports the same Stats on every discipline, ARQ's retries included.
func TestStoreStatsPerLink(t *testing.T) {
	var lines strings.Builder
	for _, tc := range storeKinds() {
		tc.cfg.Seed = 3
		// Every node speaks once at Init, and a message is passed on, to a
		// random out-port or over the radio, until it has made 4 hops.
		pass := func(ctx *Context, hops int) {
			if degree := ctx.OutDegree(); degree > 0 {
				ctx.Send(ctx.Rand().Intn(degree), hops)
			} else {
				ctx.Broadcast(hops)
			}
		}
		net, err := New(tc.cfg, func(int) Node {
			return &funcNode{
				init: func(ctx *Context) { pass(ctx, 0) },
				onMessage: func(ctx *Context, _ int, payload any) {
					if hops := payload.(int); hops < 4 {
						pass(ctx, hops+1)
					}
				},
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := net.Run(simtime.Forever, 0); err != nil {
			t.Fatal(err)
		}
		total := uint64(0)
		for k := range net.store.Links() {
			st := net.store.Stats(k)
			fmt.Fprintf(&lines, "%s link %d: sent %d delivered %d transmissions %d total delay %v\n",
				tc.name, k, st.Sent, st.Delivered, st.Transmissions, st.TotalDelay)
			total += st.Transmissions
		}
		if m := net.Metrics(); m.Transmissions != total || m.MessagesSent == 0 {
			t.Errorf("%s: the network counts %d transmissions of %d messages, its links %d", tc.name, m.Transmissions, m.MessagesSent, total)
		}
	}
	golden.Check(t, "store_stats.golden", lines.String())
}

func TestConfigValidation(t *testing.T) {
	good := Config{
		Graph: topology.Ring(2),
		Links: channel.RandomDelayFactory(dist.NewDeterministic(1)),
	}
	mk := func(int) Node { return &funcNode{} }

	if _, err := New(Config{Links: good.Links}, mk); err == nil {
		t.Fatal("missing graph accepted")
	}
	if _, err := New(Config{Graph: good.Graph}, mk); err == nil {
		t.Fatal("missing link factory accepted")
	}
	if _, err := New(good, nil); err == nil {
		t.Fatal("nil node constructor accepted")
	}
	if _, err := New(good, func(int) Node { return nil }); err == nil {
		t.Fatal("nil node accepted")
	}
}

func TestSendOnBadPortPanics(t *testing.T) {
	net, err := New(Config{
		Graph: topology.Ring(2),
		Links: channel.RandomDelayFactory(dist.NewDeterministic(1)),
		Seed:  8,
	}, func(int) Node {
		return &funcNode{init: func(ctx *Context) {
			defer func() {
				if recover() == nil {
					t.Error("send on port 5 did not panic")
				}
			}()
			ctx.Send(5, "x")
		}}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
}

func TestDegreesAndPorts(t *testing.T) {
	var outDeg, inDeg int
	net, err := New(Config{
		Graph: topology.Star(4),
		Links: channel.RandomDelayFactory(dist.NewDeterministic(1)),
		Seed:  9,
	}, func(i int) Node {
		if i != 0 {
			return &funcNode{}
		}
		return &funcNode{init: func(ctx *Context) {
			outDeg = ctx.OutDegree()
			inDeg = ctx.InDegree()
		}}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	if outDeg != 3 || inDeg != 3 {
		t.Fatalf("centre degrees = out %d in %d, want 3/3", outDeg, inDeg)
	}
}

func TestInPortIdentifiesSender(t *testing.T) {
	// On a bidirectional ring each node has two in-ports; check the port
	// passed to OnMessage matches the topology's In() ordering.
	type portRecord struct{ port int }
	records := make(map[int][]portRecord)
	net, err := New(Config{
		Graph: topology.BiRing(3),
		Links: channel.RandomDelayFactory(dist.NewDeterministic(1)),
		Seed:  10,
	}, func(i int) Node {
		return &funcNode{
			init: func(ctx *Context) {
				for p := 0; p < ctx.OutDegree(); p++ {
					ctx.Send(p, i)
				}
			},
			onMessage: func(ctx *Context, port int, payload any) {
				records[i] = append(records[i], portRecord{port: port})
			},
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if len(records[i]) != 2 {
			t.Fatalf("node %d received %d messages, want 2", i, len(records[i]))
		}
		if records[i][0].port == records[i][1].port {
			t.Fatalf("node %d saw the same in-port twice", i)
		}
	}
}

// countingTracer counts callbacks and mints sequential refs, recording the
// cause ref handed in with each so tests can check exact attribution.
type countingTracer struct {
	sent, delivered, timers, decisions int
	next                               EventID
	causes                             []TraceRef
}

func (c *countingTracer) ref() TraceRef {
	c.next++
	return TraceRef{ID: c.next}
}

func (c *countingTracer) MessageSent(_ simtime.Time, _, _ int, _ any, cause TraceRef) TraceRef {
	c.sent++
	c.causes = append(c.causes, cause)
	return c.ref()
}

func (c *countingTracer) MessageDelivered(_ simtime.Time, _, _ int, _ any, send TraceRef) TraceRef {
	c.delivered++
	c.causes = append(c.causes, send)
	return c.ref()
}

func (c *countingTracer) TimerFired(_ simtime.Time, _, _ int, cause TraceRef) TraceRef {
	c.timers++
	c.causes = append(c.causes, cause)
	return c.ref()
}

func (c *countingTracer) Decision(_ simtime.Time, _ int, _ string, cause TraceRef) TraceRef {
	c.decisions++
	c.causes = append(c.causes, cause)
	return c.ref()
}

func TestTracerSeesEverything(t *testing.T) {
	tr := &countingTracer{}
	net, err := New(Config{
		Graph:  topology.Ring(2),
		Links:  channel.RandomDelayFactory(dist.NewDeterministic(1)),
		Seed:   11,
		Tracer: tr,
	}, func(i int) Node {
		return &funcNode{
			init: func(ctx *Context) {
				ctx.Send(0, "x")
				ctx.SetLocalTimerFunc(1, 0)
			},
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	if tr.sent != 2 || tr.delivered != 2 || tr.timers != 2 {
		t.Fatalf("tracer = %+v", tr)
	}
	m := net.Metrics()
	if m.MessagesSent != 2 || m.MessagesDelivered != 2 || m.TimersFired != 2 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestHorizonLimitsRun(t *testing.T) {
	net := ringOfRelays(t, 5, 12)
	if err := net.Run(10, 0); err != nil {
		t.Fatal(err)
	}
	if net.Now() != 10 {
		t.Fatalf("time = %v, want horizon 10", net.Now())
	}
}

// idleNode does nothing and occupies no memory, so an allocation measured
// around New is the network layer's own.
// keeper keeps the *Context its Init got and, in every later callback, reads
// itself through it: its identity, and a draw from its stream, which must be
// the next draw of node id's stream wherever that is kept (want).
type keeper struct {
	t     *testing.T
	id    int
	kept  *Context
	want  []rng.Source
	ticks int
	calls *int
}

func (k *keeper) Init(ctx *Context) {
	k.kept = ctx
	k.check("Init")
	ctx.SetLocalTimerFunc(1, 0)
}

func (k *keeper) OnMessage(_ *Context, _ int, _ any) { k.check("OnMessage") }

func (k *keeper) OnTimer(_ *Context, _ int) {
	k.check("OnTimer")
	if k.ticks++; k.ticks < 6 {
		k.kept.Send(0, k.id)
		k.kept.SetLocalTimerFunc(1, 0)
	}
}

func (k *keeper) check(callback string) {
	k.t.Helper()
	*k.calls++
	if got := k.kept.ID(); got != k.id {
		k.t.Fatalf("%s of node %d: the kept Context names node %d", callback, k.id, got)
	}
	if got, want := k.kept.Rand().Uint64(), k.want[k.id].Uint64(); got != want {
		k.t.Fatalf("%s of node %d: the kept Context draws %#x, node %d's stream %#x", callback, k.id, got, k.id, want)
	}
}

// TestContextNamesTheDispatchedNode: a network has one Context, pointed at
// each node for its callbacks, so a node that keeps the *Context its Init got
// reads its own identity and its own stream in every later callback — on the
// plain path, through a processing queue, and as a new incarnation after a
// churn restart, whose stream carries on from the dead one's.
func TestContextNamesTheDispatchedNode(t *testing.T) {
	const n, seed = 5, 11
	for _, tc := range []struct {
		name string
		cfg  func(*Config)
	}{
		{"plain", func(*Config) {}},
		{"processing", func(cfg *Config) { cfg.Processing = dist.NewExponential(0.5) }},
		{"churn restart", func(cfg *Config) {
			cfg.Faults = &faults.Plan{Events: []faults.Event{faults.CrashAt(1.5, 2), faults.RecoverAt(2.5, 2)}}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Graph: topology.Ring(n), Links: channel.RandomDelayFactory(dist.NewExponential(1)), Seed: seed}
			tc.cfg(&cfg)
			want := make([]rng.Source, n)
			streams := rng.New(seed).Indexed("node")
			for i := range want {
				want[i] = streams.At(i)
			}
			calls, made := 0, 0
			net, err := New(cfg, func(i int) Node {
				made++
				return &keeper{t: t, id: i, want: want, calls: &calls}
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := net.Run(simtime.Forever, 0); err != nil {
				t.Fatal(err)
			}
			if calls < 10*n {
				t.Fatalf("%d callbacks, want at least %d", calls, 10*n)
			}
			if cfg.Faults != nil && (made != n+1 || net.FaultTelemetry().Recoveries != 1) {
				t.Fatalf("%d incarnations made, %d recoveries; want %d and 1", made, net.FaultTelemetry().Recoveries, n+1)
			}
		})
	}
}

type idleNode struct{}

func (idleNode) Init(*Context)                {}
func (idleNode) OnMessage(*Context, int, any) {}
func (idleNode) OnTimer(*Context, int)        {}

// TestAllocationBudget holds the flat construction: building a ring costs a
// fixed number of allocations per layer, not one per node or edge, so the same
// number of objects at n = 10³ and 10⁴ (20, with and without the race
// detector). Measured at this commit: 132 B per node (the node stream 32 — the
// network's one Context names the node being dispatched, so no node has a
// Context of its own —, link row 24 — sent, delivered and total delay; only an
// ARQ store counts transmissions, in a column of its own —, link stream 32, the
// run lane's reservation 24 — one timer per node; the heap lane is not
// reserved —, 16 for the node table; 131 B under the race detector), against a
// budget of 140 B (139 B under the race detector). The graph's edges
// are not copied: New reads their heads and in-ports off the graph's arrays. A
// link or a clock per node — an object behind an interface (a link was 112 B
// and a 16-B table entry), a clock stream, a closure — does not fit it, nor a
// Context per node (48 B). The slab of deferred handler calls is not reserved
// here: it grows to a run's backlog on first use.
func TestAllocationBudget(t *testing.T) {
	links := channel.RandomDelayFactory(dist.NewExponential(1))
	build := func(n int) func() {
		graph := topology.Ring(n)
		return func() {
			net, err := New(Config{Graph: graph, Links: links, Seed: 1}, func(int) Node { return idleNode{} })
			if err != nil {
				t.Fatal(err)
			}
			runtime.KeepAlive(net)
		}
	}
	small, objects := allocbudget.Objects(build)
	bytes := allocbudget.BytesPerNode(10_000, build)
	budget := 140.0
	if allocbudget.Race {
		budget = 139
	}

	t.Logf("network.New on Ring(n): %.0f objects at n = 10³, %.0f at n = 10⁴, %.0f B per node", small, objects, bytes)
	if objects != small {
		t.Errorf("New allocates %.0f objects at n = 10⁴ and %.0f at n = 10³: something is built per node or edge", objects, small)
	}
	if bytes > budget {
		t.Errorf("New allocates %.0f B per node, budget %.0f", bytes, budget)
	}
}

// countingNode counts handler calls and nothing else.
type countingNode struct{ got *int }

func (countingNode) Init(*Context)                   {}
func (nd countingNode) OnMessage(*Context, int, any) { *nd.got++ }
func (nd countingNode) OnTimer(*Context, int)        { *nd.got++ }

// TestDeliveryDoesNotAllocate pins the message path end to end — Send, the
// link's delay sample, the store slot, the kernel event, the pop, the
// store's batch walk, deliverTo, OnMessage — at zero heap objects per
// message on a network with no tracer, no fault plan and no processing
// model, given a payload that is already boxed (boxing one is the sender's
// choice of type, not the path's). deliverTo is where this broke silently
// before: a closure on another branch of it, capturing its payload parameter
// by reference, moved the parameter to the heap on every call.
// Every discipline is a row of the same store, on the same path.
func TestDeliveryDoesNotAllocate(t *testing.T) {
	for _, tc := range []struct {
		name  string
		links channel.Factory
	}{
		{"random-delay", channel.RandomDelayFactory(dist.NewExponential(1))},
		{"fifo", channel.FIFOFactory(dist.NewExponential(1))},
		{"arq", channel.ARQFactory(0.5, 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mustNotAllocate(t, Config{Graph: topology.Ring(8), Links: tc.links, Seed: 1},
				func(c *Context, payload any) { c.Send(0, payload) }, 1)
		})
	}
}

// TestRadioTransmissionDoesNotAllocate is the same pin on the other medium:
// a radio transmission rides a store slot like any message (it used to be a
// kernel closure of its own, one heap object per Broadcast), and its fan-out
// to seven receivers is seven plain deliverTo calls.
func TestRadioTransmissionDoesNotAllocate(t *testing.T) {
	mustNotAllocate(t, Config{
		Graph:          topology.Complete(8),
		LocalBroadcast: true,
		Seed:           1,
	}, (*Context).Broadcast, 7)
}

// TestDeferredWorkDoesNotAllocate is the same pin off the plain path, which
// nothing held: under a fault plan, a tracer or a processing model every set
// timer and every queued delivery used to be one to five closures. Each is a
// slab record now, so a set-and-fired timer and a sent, queued and handled
// message cost zero heap objects once the slab has warmed up — also for a
// timer kind past the per-kind handler table on an otherwise plain network.
// The tracer row has no message leg: a traced send boxes its causal tag on
// its way into the link, one object per message, on the send side. A message
// held back before its link — by a plan's reorder axis or a stalling node —
// was the last closure per event (one heap object each); it is a record too.
// Under a fault plan a timer parks nowhere; the crash-plan row has a node
// crash and recover before the measured rounds, so every timer there is
// checked against a crash sequence number.
func TestDeferredWorkDoesNotAllocate(t *testing.T) {
	setTimer := func(kind int) func(*Context, any) {
		return func(c *Context, _ any) { c.SetLocalTimerFunc(1, kind) }
	}
	send := func(c *Context, payload any) { c.Send(0, payload) }
	for _, path := range append([]configPath{faultsPath}, deferredPaths...) {
		t.Run(path.name+"/timer", func(t *testing.T) {
			mustNotAllocate(t, ringConfig(8, path), setTimer(0), 1)
		})
		if path.name == "tracer" {
			continue
		}
		t.Run(path.name+"/message", func(t *testing.T) {
			mustNotAllocate(t, ringConfig(8, path), send, 1)
		})
	}
	for _, path := range []configPath{
		{"a reorder-held send", func(c *Config) { c.Faults = &faults.Plan{Reorder: 1} }},
		{"a stalled send", func(c *Config) {
			c.Byzantine = &byzantine.Plan{Roles: []byzantine.Role{
				{Node: 0, Behavior: byzantine.Stall}, {Node: 1, Behavior: byzantine.Stall},
			}}
		}},
	} {
		t.Run(path.name, func(t *testing.T) { mustNotAllocate(t, ringConfig(8, path), send, 1) })
	}
	t.Run("kind past the handler table/timer", func(t *testing.T) {
		mustNotAllocate(t, ringConfig(8, plainPath), setTimer(maxTimerKinds), 1)
	})
	t.Run("crash plan/timer", func(t *testing.T) {
		cfg := ringConfig(8, plainPath)
		cfg.Faults = &faults.Plan{Events: []faults.Event{faults.CrashAt(0.5, 0), faults.RecoverAt(0.75, 0)}}
		tel := mustNotAllocate(t, cfg, setTimer(0), 1).FaultTelemetry()
		if tel.Crashes != 1 || tel.Recoveries != 1 || tel.TimersSuppressed != 1 {
			t.Fatalf("telemetry %+v; want node 0's warm-up timer suppressed by one crash and recovery", tel)
		}
	})
}

// mustNotAllocate builds cfg over counting nodes, has every node emit once
// per round and runs each round to quiescence: zero heap objects per round
// once the store and the slab have warmed up, and fanout handler calls per
// emission. The warm-up round goes through Network.Run, so a fault plan's
// timeline plays out in it; the network is returned for further checks.
func mustNotAllocate(t *testing.T, cfg Config, emit func(c *Context, payload any), fanout int) *Network {
	t.Helper()
	var got int
	net, err := New(cfg, func(int) Node { return countingNode{&got} })
	if err != nil {
		t.Fatal(err)
	}
	var payload any = uint64(1 << 40) // too large for the runtime's small-value table: boxed here, once
	emitAll := func() {
		for i := range net.nodes {
			net.ctx.id = i // as the dispatch of node i's callback does
			emit(&net.ctx, payload)
		}
	}
	roundTrip := func() {
		emitAll()
		if err := net.kernel.Run(simtime.Forever, 0); err != nil {
			t.Fatal(err)
		}
	}
	emitAll() // the store's and the slab's slots and free lists reach their size
	if err := net.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	got = 0
	if avg := testing.AllocsPerRun(100, roundTrip); avg != 0 {
		t.Errorf("emit → run → handler allocates %g objects per %d emissions, want 0", avg, len(net.nodes))
	}
	if want := 101 * len(net.nodes) * fanout; got != want { // AllocsPerRun warms up once
		t.Fatalf("%d handler calls, want %d", got, want)
	}
	return net
}

// TestDegreeReadsDoNotAllocate pins the non-copying accessors: protocols
// read their degrees inside handlers, millions of times a run.
func TestDegreeReadsDoNotAllocate(t *testing.T) {
	net, err := New(Config{
		Graph: topology.Complete(16),
		Links: channel.RandomDelayFactory(dist.NewDeterministic(1)),
	}, func(int) Node { return idleNode{} })
	if err != nil {
		t.Fatal(err)
	}
	net.ctx.id = 3
	ctx := &net.ctx
	var in, out int
	if avg := testing.AllocsPerRun(100, func() { in, out = ctx.InDegree(), ctx.OutDegree() }); avg != 0 {
		t.Errorf("InDegree+OutDegree allocate %g objects per call, want 0", avg)
	}
	if in != 15 || out != 15 {
		t.Fatalf("degrees = in %d out %d, want 15/15", in, out)
	}
}
