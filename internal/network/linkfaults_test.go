package network

import (
	"testing"

	"abenet/internal/channel"
	"abenet/internal/dist"
	"abenet/internal/faults"
	"abenet/internal/rng"
	"abenet/internal/sim"
	"abenet/internal/simtime"
	"abenet/internal/topology"
)

// volley builds Ring(2) over links under plan, has node 0 send count messages
// at time zero, runs until nothing is left and returns the instants at which
// node 1 heard them. Edge 0 is the link the volley crosses.
func volley(t *testing.T, links channel.Factory, plan *faults.Plan, count int) (*Network, []simtime.Time) {
	t.Helper()
	var heard []simtime.Time
	net, err := New(Config{Graph: topology.Ring(2), Links: links, Seed: 11, Faults: plan}, func(i int) Node {
		if i == 0 {
			return &funcNode{init: func(ctx *Context) {
				for m := 0; m < count; m++ {
					ctx.Send(0, m)
				}
			}}
		}
		return &funcNode{onMessage: func(ctx *Context, _ int, _ any) { heard = append(heard, ctx.Now()) }}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	return net, heard
}

// TestLinkLossRate: a plan's per-message link faults are drawn in Network.put,
// in front of the link, so a lost message never reaches it. (That an
// out-of-range probability is refused is faults.Plan.Validate's test,
// TestValidateRejectsBrokenPlans, and reaches New through
// TestInvalidPlanRejectedAtBuild.)
func TestLinkLossRate(t *testing.T) {
	const n = 20000
	net, heard := volley(t, channel.RandomDelayFactory(dist.NewDeterministic(1)), &faults.Plan{Loss: 0.25}, n)
	tel := net.FaultTelemetry()
	if tel.MessagesDropped == 0 || tel.MessagesDuplicated != 0 || tel.MessagesDelayed != 0 {
		t.Fatalf("telemetry = %+v", tel)
	}
	if rate := float64(tel.MessagesDropped) / n; rate < 0.23 || rate > 0.27 {
		t.Fatalf("drop rate %.4f far from 0.25", rate)
	}
	if got := uint64(len(heard)) + tel.MessagesDropped; got != n {
		t.Fatalf("delivered %d + dropped %d != sent %d", len(heard), tel.MessagesDropped, n)
	}
	// The physical link never saw the dropped messages.
	if sent := net.store.Stats(0).Sent; sent != uint64(len(heard)) {
		t.Fatalf("link Sent = %d, want %d", sent, len(heard))
	}
}

// TestLinkDuplicateAndHold: every copy of a duplicated message arrives, held
// back or not, and nothing is left waiting once the run has drained.
func TestLinkDuplicateAndHold(t *testing.T) {
	const n = 10000
	net, heard := volley(t, channel.RandomDelayFactory(dist.NewExponential(1)),
		&faults.Plan{Duplicate: 0.5, Reorder: 0.5, ReorderDelay: dist.NewDeterministic(10)}, n)
	tel := net.FaultTelemetry()
	if tel.MessagesDuplicated == 0 || tel.MessagesDelayed == 0 {
		t.Fatalf("telemetry = %+v", tel)
	}
	if got, want := uint64(len(heard)), n+tel.MessagesDuplicated; got != want {
		t.Fatalf("delivered %d, want %d (n + duplicates)", got, want)
	}
	if rate := float64(tel.MessagesDuplicated) / n; rate < 0.46 || rate > 0.54 {
		t.Fatalf("duplicate rate %.4f far from 0.5", rate)
	}
	if net.held != 0 || net.store.InFlight() != 0 {
		t.Fatalf("the run drained with %d messages held and %d in flight", net.held, net.store.InFlight())
	}
}

// TestLinkFaultsComposeWithARQ: loss in front of a lossy ARQ link is loss the
// retransmission scheme cannot see, and the ARQ's own retransmission
// accounting keeps working underneath.
func TestLinkFaultsComposeWithARQ(t *testing.T) {
	const n = 5000
	net, heard := volley(t, channel.ARQFactory(0.5, 1), &faults.Plan{Loss: 0.2}, n)
	if st := net.store.Stats(0); st.Transmissions <= st.Sent {
		t.Fatalf("ARQ under a fault plan lost its retries: %+v", st)
	}
	if dropped := net.FaultTelemetry().MessagesDropped; uint64(len(heard))+dropped != n {
		t.Fatalf("delivered %d + dropped %d != %d", len(heard), dropped, n)
	}
	if got := net.MaxLinkMeanDelay(); got != 2 { // slot/p = 1/0.5
		t.Fatalf("MaxLinkMeanDelay = %g, want the ARQ mean 2", got)
	}
}

// TestDisabledLinkFaultsDrawNothing pins the determinism contract behind
// replay stability across plans: a plan without link faults changes no
// delivery and leaves the edge stream where no plan leaves it, and under a
// plan that only holds back, by a constant, the disabled axes and the certain
// one consume no randomness — every delivery moves by exactly the hold.
func TestDisabledLinkFaultsDrawNothing(t *testing.T) {
	links := channel.RandomDelayFactory(dist.NewExponential(1))
	bare, plain := volley(t, links, nil, 200)
	zero, same := volley(t, links, &faults.Plan{}, 200)
	if len(same) != len(plain) || zero.linkRNG[0] != bare.linkRNG[0] {
		t.Fatalf("a zero plan perturbed the link: %d deliveries against %d, edge stream moved: %t",
			len(same), len(plain), zero.linkRNG[0] != bare.linkRNG[0])
	}
	for i := range plain {
		if plain[i] != same[i] {
			t.Fatalf("delivery %d at %v without a plan, %v under a zero plan", i, plain[i], same[i])
		}
	}

	hold := &faults.Plan{Reorder: 1, ReorderDelay: dist.NewDeterministic(2)}
	held, late := volley(t, links, hold, 200)
	unused, _ := volley(t, links, hold, 0)
	if len(late) != len(plain) || held.linkRNG[0] != bare.linkRNG[0] || held.life.impairRNG[0] != unused.life.impairRNG[0] {
		t.Fatalf("a hold-only plan perturbed the link: %d deliveries against %d, edge stream moved: %t, fault stream moved: %t",
			len(late), len(plain), held.linkRNG[0] != bare.linkRNG[0], held.life.impairRNG[0] != unused.life.impairRNG[0])
	}
	for i := range plain {
		if late[i] != plain[i].Add(2) {
			t.Fatalf("delivery %d at %v held back by 2, %v without a plan", i, late[i], plain[i])
		}
	}
}

// arrival is one delivery as TestLoneLinkIsANetworkRow records it.
type arrival struct {
	at      simtime.Time
	payload any
}

// TestLoneLinkIsANetworkRow: a link built on its own is a one-row store on the
// network's send path, so given edge 0's stream and the same sends at the same
// instants — a volley at t = 0 and another at t = 3 — it delivers the same
// payloads at the same instants as edge 0 of a network under the same
// discipline, with the same Stats and the same declared mean, and the delay
// each Send returns is the one its message takes.
func TestLoneLinkIsANetworkRow(t *testing.T) {
	const volleySize, seed = 100, 5
	for _, tc := range []struct {
		name  string
		links channel.Factory
		lone  func(*sim.Kernel, *rng.Source, channel.DeliverFunc) channel.Link
	}{
		{"random-delay", channel.RandomDelayFactory(dist.NewExponential(1)), func(k *sim.Kernel, r *rng.Source, d channel.DeliverFunc) channel.Link {
			return channel.NewRandomDelay(k, dist.NewExponential(1), r, d)
		}},
		{"fifo", channel.FIFOFactory(dist.NewExponential(1)), func(k *sim.Kernel, r *rng.Source, d channel.DeliverFunc) channel.Link {
			return channel.NewFIFO(k, dist.NewExponential(1), r, d)
		}},
		{"arq", channel.ARQFactory(0.4, 0.7), func(k *sim.Kernel, r *rng.Source, d channel.DeliverFunc) channel.Link {
			return channel.NewARQ(k, 0.4, 0.7, r, d)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var row []arrival
			sendVolley := func(ctx *Context, from int) {
				for m := from; m < from+volleySize; m++ {
					ctx.Send(0, m)
				}
			}
			net, err := New(Config{Graph: topology.Ring(2), Links: tc.links, Seed: seed}, func(i int) Node {
				if i == 0 {
					return &funcNode{
						init:    func(ctx *Context) { sendVolley(ctx, 0); ctx.SetLocalTimerFunc(3, 0) },
						onTimer: func(ctx *Context, _ int) { sendVolley(ctx, volleySize) },
					}
				}
				return &funcNode{onMessage: func(ctx *Context, _ int, p any) { row = append(row, arrival{ctx.Now(), p}) }}
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := net.Run(simtime.Forever, 0); err != nil {
				t.Fatal(err)
			}

			k := sim.New()
			var lone []arrival
			stream := rng.New(seed).Indexed("edge").At(0)
			l := tc.lone(k, &stream, func(p any) { lone = append(lone, arrival{k.Now(), p}) })
			due := make(map[any]simtime.Time)
			loneVolley := func(from int) {
				for m := from; m < from+volleySize; m++ {
					due[m] = k.Now().Add(l.Send(m))
				}
			}
			loneVolley(0)
			k.AtFunc(3, func() { loneVolley(volleySize) })
			if err := k.Run(simtime.Forever, 0); err != nil {
				t.Fatal(err)
			}

			if len(row) != 2*volleySize || len(lone) != len(row) {
				t.Fatalf("delivered %d on the network row, %d on the lone link, want %d", len(row), len(lone), 2*volleySize)
			}
			for i := range row {
				if lone[i] != row[i] {
					t.Fatalf("delivery %d: %+v on the lone link, %+v on the network row", i, lone[i], row[i])
				}
				if due[lone[i].payload] != lone[i].at {
					t.Fatalf("message %v: Send said %v, delivered at %v", lone[i].payload, due[lone[i].payload], lone[i].at)
				}
			}
			if got, want := l.Stats(), net.store.Stats(0); got != want {
				t.Fatalf("stats: %+v on the lone link, %+v on the network row", got, want)
			}
			if got, want := l.MeanDelay(), net.store.MeanDelay(0); got != want {
				t.Fatalf("declared mean: %v on the lone link, %v on the network row", got, want)
			}
		})
	}
}
