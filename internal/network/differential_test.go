package network_test

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"abenet/internal/byzantine"
	"abenet/internal/channel"
	"abenet/internal/dist"
	"abenet/internal/faults"
	"abenet/internal/golden"
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

// differentialGraphs are the topologies both differentials run on.
var differentialGraphs = []struct {
	name  string
	graph *topology.Graph
}{{"ring8", topology.Ring(8)}, {"complete6", topology.Complete(6)}}

// differentialCell is one run of a differential: chatter nodes on graph over
// the links factory builds, under a fault plan and a Byzantine plan (nil for
// none), with or without a processing model and a recorder.
type differentialCell struct {
	graph      *topology.Graph
	links      channel.Factory
	plan       *faults.Plan
	byz        *byzantine.Plan
	processing bool
	traced     bool
	seed       uint64
}

// randomDelayLinks are the links of the first differential's cells.
func randomDelayLinks() channel.Factory {
	return channel.RandomDelayFactory(dist.NewExponential(0.5))
}

// run executes the cell and renders everything the network reports about it
// as one line, plus what the second differential adds to it (physical
// transmissions and the adversary's telemetry) and a hash of the exported
// trace when traced.
func (c differentialCell) run(t *testing.T) (line, more, traceHash string) {
	t.Helper()
	cfg := network.Config{
		Graph:     c.graph,
		Links:     c.links,
		Seed:      c.seed,
		Faults:    c.plan,
		Byzantine: c.byz,
	}
	if c.processing {
		cfg.Processing = dist.NewExponential(0.2)
	}
	var rec *trace.Recorder
	if c.traced {
		rec = trace.NewRecorder(0)
		cfg.Tracer = rec
	}
	nodes := map[int]*chatter{}
	net, err := network.New(cfg, func(i int) network.Node {
		// A restarted node folds into the sum of the instance it replaces,
		// so the line covers every incarnation.
		node := &chatter{id: i}
		if old := nodes[i]; old != nil {
			node.sum = old.sum
		}
		nodes[i] = node
		return node
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
	if c.traced {
		raw, err := json.Marshal(rec.Export())
		if err != nil {
			t.Fatal(err)
		}
		traceHash = fmt.Sprintf("%x", sha256.Sum256(raw))[:16]
	}
	tel, byz := "-", "-"
	if ft := net.FaultTelemetry(); ft != nil {
		if ft.Byzantine != nil {
			byz = fmt.Sprintf("%+v", *ft.Byzantine)
			ft.Byzantine = nil // a pointer prints as its address
		}
		if c.plan != nil {
			tel = fmt.Sprintf("%+v", *ft)
		}
	}
	m := net.Metrics()
	return fmt.Sprintf("events=%d sent=%d delivered=%d timers=%d time=%v stop=%q state=%016x tel=%s",
			net.Kernel().Executed(), m.MessagesSent, m.MessagesDelivered, m.TimersFired,
			float64(net.Now()), net.StopCause(), state, tel),
		fmt.Sprintf(" transmissions=%d byz=%s", m.Transmissions, byz), traceHash
}

// TestDifferentialAgainstRecordedRuns holds every combination of fault plan,
// processing model and tracer to the line it printed before deferred handler
// calls became slab records (the closures of PR ≤ 20): events, messages,
// timers, end time, per-node handling order, the whole fault telemetry and the
// exported trace — except that delivered counts handled messages: a processing
// cell's count leaves out what was still queued at the stop and what died in a
// queue.
func TestDifferentialAgainstRecordedRuns(t *testing.T) {
	var runs strings.Builder
	for _, g := range differentialGraphs {
		for _, p := range differentialPlans {
			for _, processing := range []bool{false, true} {
				for seed := uint64(1); seed <= 4; seed++ {
					key := fmt.Sprintf("%s/%s/processing=%t/seed=%d", g.name, p.name, processing, seed)
					cell := differentialCell{graph: g.graph, links: randomDelayLinks(), plan: p.plan(), processing: processing, seed: seed}
					untraced, _, _ := cell.run(t)
					cell.traced = true
					got, _, hash := cell.run(t)
					if got != untraced {
						t.Errorf("%s: the recorder changed the run\n  traced %s\nuntraced %s", key, got, untraced)
					}
					fmt.Fprintf(&runs, "%s %s trace=%s\n", key, got, hash)
				}
			}
		}
	}
	golden.Check(t, "differential_runs.golden", runs.String())
}

// heldPlans are the fault axes of the second differential: every way a plan
// holds a message back — the hold drawn from an explicit law, from the nil
// default and from a constant, with and without loss and duplication in front
// of it — and one plan where held messages meet churn, a partition and a
// scripted outage of edge 0→1, which both graphs have.
var heldPlans = []struct {
	name string
	plan func() *faults.Plan
}{
	{"none", func() *faults.Plan { return nil }},
	{"reorder", func() *faults.Plan {
		return &faults.Plan{Reorder: 0.3, ReorderDelay: dist.NewUniform(0, 2)}
	}},
	{"loss+dup+reorder", func() *faults.Plan {
		return &faults.Plan{Loss: 0.1, Duplicate: 0.15, Reorder: 0.25}
	}},
	{"dup+fixed-hold", func() *faults.Plan {
		return &faults.Plan{Duplicate: 0.3, Reorder: 0.5, ReorderDelay: dist.NewDeterministic(0.75)}
	}},
	{"reorder+churn+cuts", func() *faults.Plan {
		events := append(faults.PartitionDuring(5, 15, 0, 1, 2),
			faults.LinkDownAt(3.5, 0, 1), faults.LinkUpAt(11.5, 0, 1),
			faults.CrashAt(6.3, 2), faults.RecoverAt(9.1, 2))
		return &faults.Plan{
			Reorder: 0.2, ReorderDelay: dist.NewExponential(0.8),
			CrashRate: 0.004, RecoverRate: 0.5,
			Events: events,
		}
	}},
}

// heldAdversaries are its Byzantine axis: nobody, or two stalling nodes — one
// that stalls four sends in ten, one with a hold law of its own — and a node
// that mutes every other send.
var heldAdversaries = []struct {
	name string
	plan func() *byzantine.Plan
}{
	{"honest", func() *byzantine.Plan { return nil }},
	{"stall+mute", func() *byzantine.Plan {
		return &byzantine.Plan{Roles: []byzantine.Role{
			{Node: 1, Behavior: byzantine.Stall, Prob: 0.4},
			{Node: 3, Behavior: byzantine.Stall, StallDelay: dist.NewUniform(0.5, 3)},
			{Node: 5, Behavior: byzantine.Mute, Prob: 0.5},
		}}
	}},
}

// heldLinks are the disciplines underneath: a held message samples its link
// only when it is released, whatever the link.
var heldLinks = []struct {
	name  string
	links channel.Factory
}{
	{"random", randomDelayLinks()},
	{"fifo", channel.FIFOFactory(dist.NewExponential(0.5))},
	{"arq", channel.ARQFactory(0.6, 0.3)},
}

// TestDifferentialHeldMessages holds the two paths on which a message waits
// before its link sees it — a fault plan's reorder hold-back and a Byzantine
// stall — to what they printed while each was a kernel closure (2e717b9):
// graph × link discipline × fault plan × adversary × processing model × seed,
// every cell run traced and untraced, which must agree.
func TestDifferentialHeldMessages(t *testing.T) {
	var cells strings.Builder
	for _, g := range differentialGraphs {
		for _, l := range heldLinks {
			for _, p := range heldPlans {
				for _, a := range heldAdversaries {
					for _, processing := range []bool{false, true} {
						for seed := uint64(1); seed <= 3; seed++ {
							key := fmt.Sprintf("%s/%s/%s/%s/processing=%t/seed=%d", g.name, l.name, p.name, a.name, processing, seed)
							cell := differentialCell{graph: g.graph, links: l.links, plan: p.plan(), byz: a.plan(), processing: processing, seed: seed}
							line, more, _ := cell.run(t)
							untraced := line + more
							cell.traced = true
							line, more, hash := cell.run(t)
							if got := line + more; got != untraced {
								t.Errorf("%s: the recorder changed the run\n  traced %s\nuntraced %s", key, got, untraced)
							}
							fmt.Fprintf(&cells, "%s %s%s trace=%s\n", key, line, more, hash)
						}
					}
				}
			}
		}
	}
	golden.Check(t, "differential_cells.golden", cells.String())
}
