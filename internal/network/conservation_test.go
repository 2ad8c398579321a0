package network

import (
	"fmt"
	"testing"

	"abenet/internal/byzantine"
	"abenet/internal/channel"
	"abenet/internal/dist"
	"abenet/internal/faults"
	"abenet/internal/topology"
)

// gossip broadcasts on a unit tick and passes on a third of what it hears, two
// hops at most; the node that has heard enough stops the network, so a run
// ends with traffic still on the wires. Broadcast is the send both media have.
type gossip struct{ heard int }

const gossipHeardLimit = 300

func (g *gossip) Init(ctx *Context) {
	ctx.SetLocalTimerFunc(1, 0)
	ctx.Broadcast(0)
}

func (g *gossip) OnTimer(ctx *Context, kind int) {
	ctx.SetLocalTimerFunc(1, kind)
	ctx.Broadcast(0)
}

func (g *gossip) OnMessage(ctx *Context, _ int, payload any) {
	if g.heard++; g.heard == gossipHeardLimit {
		ctx.StopNetwork("heard enough")
		return
	}
	if hop := payload.(int); hop < 2 && ctx.Rand().Bool(0.3) {
		ctx.Broadcast(hop + 1)
	}
}

// TestConservation accounts for every message at every kernel event of runs
// that mix loss, duplication, reorder hold-backs, churn, a partition, a link
// outage, two stalling nodes and a mute one, on both media, with and without a
// processing model. A message that was sent is in exactly one place:
//
//	(a) up to the wire   sent + duplicated = muted + outage-dropped + lost + held + Σ link.Sent
//	(b) on the wire      Σ link.Sent = Σ link.Delivered + store.InFlight()
//	(c) off the wire     Σ link.Delivered = delivered + dead-lettered + queued
//
// held counts messages, so a duplicated reorder-held send is 2. On the radio a
// message is a transmission up to and on the wire; outages are met per
// receiver, after the wire, so they leave (a) and enter (c), where a
// transmission counts once per receiver. (b) holds until the kernel is stopped
// — a Stop abandons the rest of a same-instant batch. In (c) delivered means
// handled: a message waiting in a processing queue is queued, and one that
// dies there with its node's incarnation is a dead letter only.
func TestConservation(t *testing.T) {
	adversary := func() *byzantine.Plan {
		return &byzantine.Plan{Roles: []byzantine.Role{
			{Node: 1, Behavior: byzantine.Stall, Prob: 0.4},
			{Node: 3, Behavior: byzantine.Stall, StallDelay: dist.NewUniform(0.5, 3)},
			{Node: 5, Behavior: byzantine.Mute, Prob: 0.5},
		}}
	}
	cuts := func() *faults.Plan {
		return &faults.Plan{
			CrashRate: 0.01, RecoverRate: 0.5,
			Events: append(faults.PartitionDuring(5, 15, 0, 1, 2),
				faults.LinkDownAt(3.5, 0, 1), faults.LinkUpAt(11.5, 0, 1),
				faults.CrashAt(6.3, 2), faults.RecoverAt(9.1, 2)),
		}
	}
	media := []struct {
		name string
		cfg  func() Config
	}{
		{"point-to-point", func() Config {
			plan := cuts()
			plan.Loss, plan.Duplicate, plan.Reorder = 0.1, 0.2, 0.3
			return Config{Links: channel.FIFOFactory(dist.NewExponential(0.5)), Faults: plan}
		}},
		{"radio", func() Config {
			return Config{LocalBroadcast: true, BroadcastDelay: dist.NewExponential(0.5), Faults: cuts()}
		}},
	}
	for _, medium := range media {
		for _, processing := range []bool{false, true} {
			for seed := uint64(1); seed <= 5; seed++ {
				t.Run(fmt.Sprintf("%s/processing=%t/seed=%d", medium.name, processing, seed), func(t *testing.T) {
					cfg := medium.cfg()
					cfg.Graph, cfg.Seed, cfg.Byzantine = topology.Complete(6), seed, adversary()
					if processing {
						cfg.Processing = dist.NewExponential(0.2)
					}
					net, err := New(cfg, func(int) Node { return &gossip{} })
					if err != nil {
						t.Fatal(err)
					}
					var ticks, heldTicks, queuedTicks int
					net.kernel.SetObserver(func() {
						ticks++
						if net.held > 0 {
							heldTicks++
						}
						if net.queued > 0 {
							queuedTicks++
						}
						checkConservation(t, net)
					})
					if err := net.Run(60, 0); err != nil {
						t.Fatal(err)
					}
					tel := net.FaultTelemetry()
					if ticks == 0 || heldTicks == 0 || tel.Byzantine.Omissions == 0 || tel.DeadLetters == 0 || tel.LinkDrops == 0 {
						t.Fatalf("the run exercised too little: %d ticks, %d with held messages, telemetry %+v %+v",
							ticks, heldTicks, *tel, *tel.Byzantine)
					}
					if processing && queuedTicks == 0 {
						t.Fatal("no message ever waited in a processing queue")
					}
					if !cfg.LocalBroadcast && (tel.MessagesDropped == 0 || tel.MessagesDuplicated == 0 || tel.MessagesDelayed == 0) {
						t.Fatalf("the plan's link faults did not all fire: %+v", *tel)
					}
				})
			}
		}
	}
}

// checkConservation asserts TestConservation's identities on net as it stands.
func checkConservation(t *testing.T, net *Network) {
	t.Helper()
	radio := net.cfg.LocalBroadcast
	var sent, delivered, received uint64
	for k := range net.store.Links() {
		st := net.store.Stats(k)
		sent += st.Sent
		delivered += st.Delivered
		received += st.Delivered
		if radio {
			received += st.Delivered * uint64(net.adj.OutStart[k+1]-net.adj.OutStart[k]-1)
		}
	}
	tel, adv := net.life.tel, net.adv.tel
	at := float64(net.kernel.Now())

	gone := adv.Omissions + tel.MessagesDropped
	if !radio {
		gone += tel.LinkDrops
	}
	if in, out := net.metrics.MessagesSent+tel.MessagesDuplicated, gone+uint64(net.held)+sent; in != out {
		t.Fatalf("t=%g up to the wire: %d sent + duplicated, %d muted + dropped + lost + held (%d) + on a link", at, in, out, net.held)
	}
	if inFlight := uint64(net.store.InFlight()); !net.kernel.Stopped() && sent != delivered+inFlight {
		t.Fatalf("t=%g on the wire: links took %d, delivered %d, %d in flight", at, sent, delivered, inFlight)
	}
	handed := net.metrics.MessagesDelivered + tel.DeadLetters + uint64(net.queued)
	if radio {
		handed += tel.LinkDrops
	}
	if received != handed {
		t.Fatalf("t=%g off the wire: links delivered %d receptions, %d handled + dead-lettered + queued (%d) + cut off", at, received, handed, net.queued)
	}
}
