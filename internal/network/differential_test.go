package network_test

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"abenet/internal/channel"
	"abenet/internal/dist"
	"abenet/internal/faults"
	"abenet/internal/network"
	"abenet/internal/topology"
	"abenet/internal/trace"
)

// note is the chatter payload: who first said it, which of their ticks it
// was, and how many times it has been passed on.
type note struct{ origin, seq, hop int }

func (n note) HopCount() int { return n.hop }

// chatter exercises every way a network defers a handler call: a unit tick
// that sends (timer kind 0, the per-kind handler table), a slower timer of a
// kind past that table, and messages that are passed on at random. It folds
// everything it handles, in order, into sum, and stops the network once it
// has heard enough.
type chatter struct {
	id, ticks, heard int
	sum              uint64
}

const (
	slowKind   = 70 // ≥ the network's per-kind handler table
	slowPeriod = 1.75
	heardLimit = 60
)

func (c *chatter) mix(vals ...uint64) {
	for _, v := range vals {
		c.sum = (c.sum ^ v) * 1099511628211
	}
}

func (c *chatter) Init(ctx *network.Context) {
	ctx.SetLocalTimerFunc(1, 0)
	ctx.SetLocalTimerFunc(slowPeriod, slowKind)
	ctx.Send(0, note{origin: c.id})
}

func (c *chatter) OnTimer(ctx *network.Context, kind int) {
	c.mix(1, uint64(kind), math.Float64bits(float64(ctx.Now())))
	if kind == slowKind {
		ctx.SetLocalTimerFunc(slowPeriod, slowKind)
		return
	}
	c.ticks++
	ctx.SetLocalTimerFunc(1, 0)
	ctx.Send(c.ticks%ctx.OutDegree(), note{origin: c.id, seq: c.ticks})
}

func (c *chatter) OnMessage(ctx *network.Context, inPort int, payload any) {
	n := payload.(note)
	c.mix(2, uint64(inPort), uint64(n.origin), uint64(n.seq), uint64(n.hop), math.Float64bits(float64(ctx.Now())))
	if c.heard++; c.heard == heardLimit {
		ctx.StopNetwork("heard enough")
		return
	}
	if ctx.Rand().Bool(0.5) {
		n.hop++
		ctx.Send(ctx.Rand().Intn(ctx.OutDegree()), n)
	}
}

// differentialPlans are the fault axes of the differential, by name; each is
// built fresh per run for a graph of at least six nodes.
var differentialPlans = []struct {
	name string
	plan func() *faults.Plan
}{
	{"none", func() *faults.Plan { return nil }},
	{"loss+dup", func() *faults.Plan { return &faults.Plan{Loss: 0.15, Duplicate: 0.1} }},
	{"churn", func() *faults.Plan {
		// Scripted crashes land between ticks, while handlers wait in the
		// processing queue; node 2 comes back, node 4 does not, and the
		// stochastic chain churns the rest.
		return &faults.Plan{
			CrashRate:   0.004,
			RecoverRate: 0.5,
			Events: []faults.Event{
				faults.CrashAt(6.3, 2), faults.RecoverAt(9.1, 2), faults.CrashAt(14.2, 4),
			},
		}
	}},
	{"partition", func() *faults.Plan {
		return &faults.Plan{Events: faults.PartitionDuring(5, 15, 0, 1, 2)}
	}},
}

// differentialRow runs one cell of the table and renders everything the
// network reports about it as one line, plus a hash of the exported trace
// when traced.
func differentialRow(t *testing.T, graph *topology.Graph, plan *faults.Plan, processing, traced bool, seed uint64) (line, traceHash string) {
	t.Helper()
	cfg := network.Config{
		Graph:  graph,
		Links:  channel.RandomDelayFactory(dist.NewExponential(0.5)),
		Seed:   seed,
		Faults: plan,
	}
	if processing {
		cfg.Processing = dist.NewExponential(0.2)
	}
	var rec *trace.Recorder
	if traced {
		rec = trace.NewRecorder(0)
		cfg.Tracer = rec
	}
	nodes := map[int]*chatter{}
	net, err := network.New(cfg, func(i int) network.Node {
		// A restarted node folds into the sum of the instance it replaces,
		// so the line covers every incarnation.
		c := &chatter{id: i}
		if old := nodes[i]; old != nil {
			c.sum = old.sum
		}
		nodes[i] = c
		return c
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Run(80, 0); err != nil {
		t.Fatal(err)
	}
	var state uint64
	for i := 0; i < net.N(); i++ {
		state = (state ^ nodes[i].sum) * 1099511628211
	}
	if traced {
		raw, err := json.Marshal(rec.Export())
		if err != nil {
			t.Fatal(err)
		}
		traceHash = fmt.Sprintf("%x", sha256.Sum256(raw))[:16]
	}
	tel := "-"
	if ft := net.FaultTelemetry(); ft != nil {
		tel = fmt.Sprintf("%+v", *ft)
	}
	m := net.Metrics()
	return fmt.Sprintf("events=%d sent=%d delivered=%d timers=%d time=%v stop=%q state=%016x tel=%s",
		net.Kernel().Executed(), m.MessagesSent, m.MessagesDelivered, m.TimersFired,
		float64(net.Now()), net.StopCause(), state, tel), traceHash
}

// TestDifferentialAgainstRecordedRuns holds every combination of fault plan,
// processing model and tracer to the line it printed before deferred handler
// calls became slab records (the closures of PR ≤ 20): events, messages,
// timers, end time, per-node handling order, the whole fault telemetry and the
// exported trace.
func TestDifferentialAgainstRecordedRuns(t *testing.T) {
	graphs := []struct {
		name  string
		graph *topology.Graph
	}{{"ring8", topology.Ring(8)}, {"complete6", topology.Complete(6)}}
	for _, g := range graphs {
		for _, p := range differentialPlans {
			for _, processing := range []bool{false, true} {
				for seed := uint64(1); seed <= 4; seed++ {
					key := fmt.Sprintf("%s/%s/processing=%t/seed=%d", g.name, p.name, processing, seed)
					untraced, _ := differentialRow(t, g.graph, p.plan(), processing, false, seed)
					got, hash := differentialRow(t, g.graph, p.plan(), processing, true, seed)
					if got != untraced {
						t.Errorf("%s: the recorder changed the run\n  traced %s\nuntraced %s", key, got, untraced)
					}
					if got += " trace=" + hash; got != differentialPins[key] {
						t.Errorf("%s\n got %s\nwant %s", key, got, differentialPins[key])
					}
				}
			}
		}
	}
}
