package network

import (
	"testing"

	"abenet/internal/channel"
	"abenet/internal/dist"
	"abenet/internal/faults"
	"abenet/internal/simtime"
	"abenet/internal/topology"
)

// nullTracer mints refs and stores nothing: the hook's own cost.
type nullTracer struct{ next EventID }

func (t *nullTracer) ref() TraceRef {
	t.next++
	return TraceRef{ID: t.next, Lamport: uint64(t.next)}
}

func (t *nullTracer) MessageSent(simtime.Time, int, int, any, TraceRef) TraceRef      { return t.ref() }
func (t *nullTracer) MessageDelivered(simtime.Time, int, int, any, TraceRef) TraceRef { return t.ref() }
func (t *nullTracer) TimerFired(simtime.Time, int, int, TraceRef) TraceRef            { return t.ref() }
func (t *nullTracer) Decision(simtime.Time, int, string, TraceRef) TraceRef           { return t.ref() }

// configPath is one way to configure a network, by name: apply sets the
// feature on a Config that already has its graph, links and seed.
type configPath struct {
	name  string
	apply func(*Config)
}

var plainPath = configPath{"plain", func(*Config) {}}

// faultsPath and crashingPath attach a fault plan and nothing else, so a timer
// rides the plain per-kind handler, which reads staleness off the kernel
// event: an empty plan, which injects nothing, and a churn plan, under which
// every node crashes about once per 100 time units and recovers about 10
// later.
var (
	faultsPath   = configPath{"faults", func(c *Config) { c.Faults = &faults.Plan{} }}
	crashingPath = configPath{"crashing", func(c *Config) { c.Faults = &faults.Plan{CrashRate: 0.01, RecoverRate: 0.1} }}
)

// deferredPaths are the features that make a handler call wait in the slab
// instead of riding the plain per-kind handler.
var deferredPaths = []configPath{
	{"tracer", func(c *Config) { c.Tracer = &nullTracer{} }},
	{"processing", func(c *Config) { c.Processing = dist.NewExponential(0.1) }},
	{"faults+processing", func(c *Config) {
		c.Faults = &faults.Plan{}
		c.Processing = dist.NewExponential(0.1)
	}},
}

// ringConfig is the plain network the paths are applied to.
func ringConfig(n int, path configPath) Config {
	cfg := Config{
		Graph: topology.Ring(n),
		Links: channel.RandomDelayFactory(dist.NewExponential(1)),
		Seed:  1,
	}
	path.apply(&cfg)
	return cfg
}

// metronome re-arms one unit timer forever.
type metronome struct{}

func (metronome) Init(ctx *Context)              { ctx.SetLocalTimerFunc(1, 0) }
func (metronome) OnMessage(*Context, int, any)   {}
func (metronome) OnTimer(ctx *Context, kind int) { ctx.SetLocalTimerFunc(1, kind) }

// BenchmarkTimerPath prices a set-and-fired timer on ring n = 64 with unit
// ticks: on the plain path (one registered handler per kind, the node as the
// event argument), under a fault plan, which keeps that path, and under each
// feature that parks the timer in the slab. The ratio of a row to plain is
// what the feature costs; allocs/op is per fired timer and reads 0 on every
// row once the slab has warmed up. The crashing row also pays for the churn:
// its crash and recovery events, scheduled far ahead, push the re-armed ticks
// off the kernel's sorted run into its heap, and each allocates a closure
// (a few bytes per timer).
func BenchmarkTimerPath(b *testing.B) {
	for _, path := range append([]configPath{plainPath, faultsPath, crashingPath}, deferredPaths...) {
		b.Run(path.name, func(b *testing.B) {
			net, err := New(ringConfig(64, path), func(int) Node { return metronome{} })
			if err != nil {
				b.Fatal(err)
			}
			if err := net.Run(4, 0); err != nil { // the slab and the queue reach their size
				b.Fatal(err)
			}
			target := net.metrics.TimersFired + uint64(b.N)
			b.ReportAllocs()
			b.ResetTimer()
			for net.metrics.TimersFired < target && net.kernel.Step() {
			}
			b.StopTimer()
			if net.metrics.TimersFired != target {
				b.Fatalf("the tick loop ran dry %d timers short", target-net.metrics.TimersFired)
			}
		})
	}
}

// TestFaultPlanTimersDoNotPark pins that a fault plan alone parks no timer: a
// ring of metronomes ticks under an empty plan and under a plan that crashes
// node 1 at 2.5 and recovers it at 5.5, and the slab is never allocated. The
// empty plan fires what the plain path fires; the crash plan suppresses node
// 1's tick due at 3, and its second incarnation ticks from 6.5 on — the counts
// a traced run of the same plan, whose timers do wait in the slab, reads too.
func TestFaultPlanTimersDoNotPark(t *testing.T) {
	const n, horizon = 8, 10
	run := func(plan *faults.Plan, tracer Tracer) *Network {
		cfg := ringConfig(n, plainPath)
		cfg.Faults, cfg.Tracer = plan, tracer
		net, err := New(cfg, func(int) Node { return metronome{} })
		if err != nil {
			t.Fatal(err)
		}
		if err := net.Run(horizon, 0); err != nil {
			t.Fatal(err)
		}
		return net
	}
	crash := &faults.Plan{Events: []faults.Event{faults.CrashAt(2.5, 1), faults.RecoverAt(5.5, 1)}}
	for _, tc := range []struct {
		name              string
		plan              *faults.Plan
		fired, suppressed uint64
	}{
		{"empty plan", &faults.Plan{}, n * horizon, 0},
		{"crash plan", crash, (n-1)*horizon + 2 + 4, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				var tracer Tracer
				if traced {
					tracer = &nullTracer{}
				}
				net := run(tc.plan, tracer)
				if !traced && cap(net.slab) != 0 {
					t.Errorf("the slab grew to %d records without a tracer", cap(net.slab))
				}
				tel := net.FaultTelemetry()
				if got := net.Metrics().TimersFired; got != tc.fired || tel.TimersSuppressed != tc.suppressed || tel.DeadLetters != 0 {
					t.Errorf("traced %v: %d timers fired, %d suppressed, %d dead letters; want %d, %d, 0",
						traced, got, tel.TimersSuppressed, tel.DeadLetters, tc.fired, tc.suppressed)
				}
			}
		})
	}
	if got := run(nil, nil).Metrics().TimersFired; got != n*horizon {
		t.Fatalf("the plain path fired %d timers, want %d", got, n*horizon)
	}
}
