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

// deferredPaths are the features that make a handler call wait in the slab
// instead of riding the plain per-kind handler. The fault plan is empty — it
// injects nothing, so every timer fires — because what costs is carrying the
// crash epoch, not crashing.
var plainPath = configPath{"plain", func(*Config) {}}

var deferredPaths = []configPath{
	{"faults", func(c *Config) { c.Faults = &faults.Plan{} }},
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
// event argument) and under each feature that parks the timer in the slab.
// The ratio of a row to plain is what the robust path costs; allocs/op is per
// fired timer and reads 0 on every row once the slab has warmed up.
func BenchmarkTimerPath(b *testing.B) {
	for _, path := range append([]configPath{plainPath}, deferredPaths...) {
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
