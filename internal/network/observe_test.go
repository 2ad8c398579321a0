package network

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"abenet/internal/channel"
	"abenet/internal/dist"
	"abenet/internal/probe"
	"abenet/internal/sim"
	"abenet/internal/topology"
)

// tallyTicker counts its ring's timer events in a shared tally, sends on every
// tick and stops the network at the stopAt-th tick, if stopAt is positive.
type tallyTicker struct{ tally *tickTally }

type tickTally struct{ ticks, heard, stopAt int }

func (n tallyTicker) Init(ctx *Context)            { ctx.SetLocalTimerFunc(0.7, 0) }
func (n tallyTicker) OnMessage(*Context, int, any) { n.tally.heard++ }
func (t *tickTally) ProbeGauges() []probe.Gauge    { return []probe.Gauge{{Name: "ticks", Read: t.read}} }
func (t *tickTally) read() float64                 { return float64(t.ticks*1000 + t.heard) }
func (n tallyTicker) OnTimer(ctx *Context, kind int) {
	n.tally.ticks++
	if n.tally.ticks == n.tally.stopAt {
		ctx.StopNetwork("enough")
	}
	ctx.SetLocalTimerFunc(0.7, 0)
	ctx.Send(0, n.tally.ticks)
}

// TestProbeSamplesBetweenEvents: Run takes each sample between two events of
// a run paused where the sample is due, and the series is exactly the one a
// collector called after every event records — the same rows, each seeing
// its event's handler effects, the clock on that event's instant and the
// executed count — whether the run ends at its horizon, by a Stop inside a
// due event or by a spent budget. The reference steps an unobserved twin
// one event at a time and calls Observe after each.
func TestProbeSamplesBetweenEvents(t *testing.T) {
	build := func(stopAt int) (*Network, *tickTally) {
		tally := &tickTally{stopAt: stopAt}
		net, err := New(Config{
			Graph: topology.Ring(4),
			Links: channel.RandomDelayFactory(dist.NewExponential(0.5)),
			Seed:  9,
		}, func(int) Node { return tallyTicker{tally} })
		if err != nil {
			t.Fatal(err)
		}
		return net, tally
	}
	cadences := []probe.Config{{EveryEvents: 1}, {EveryEvents: 3}, {Interval: 0.25}, {Interval: 2.1}, {EveryEvents: 5, Interval: 0.7}, {EveryEvents: 1, MaxSamples: 4}}
	ends := []struct {
		name      string
		stopAt    int
		maxEvents uint64
		err       error
	}{
		{"horizon", 0, 0, nil},
		{"stop", 37, 0, nil},
		{"budget", 0, 61, sim.ErrMaxEvents},
	}
	const horizon = 30
	for _, cfg := range cadences {
		for _, end := range ends {
			t.Run(fmt.Sprintf("every=%d,interval=%g,max=%d/%s", cfg.EveryEvents, cfg.Interval, cfg.MaxSamples, end.name), func(t *testing.T) {
				net, tally := build(end.stopAt)
				c, err := probe.NewCollector(cfg, net, tally)
				if err != nil {
					t.Fatal(err)
				}
				net.InstallProbe(c)
				if err := net.Run(horizon, end.maxEvents); !errors.Is(err, end.err) || (err == nil) != (end.err == nil) {
					t.Fatalf("Run = %v, want %v", err, end.err)
				}
				c.Final(net.Now(), net.kernel.Executed())

				twin, twinTally := build(end.stopAt)
				want, err := probe.NewCollector(cfg, twin, twinTally)
				if err != nil {
					t.Fatal(err)
				}
				if err := twin.Run(0, 0); err != nil { // Init only: the first tick is at 0.7
					t.Fatal(err)
				}
				k := twin.kernel
				for (end.maxEvents == 0 || k.Executed() < end.maxEvents) && k.StepWithin(horizon) {
					want.Observe(k.Now(), k.Executed())
				}
				want.Final(twin.Now(), k.Executed())

				got, ref := c.Series(), want.Series()
				if len(ref.Samples) < 3 || !reflect.DeepEqual(got, ref) {
					t.Fatalf("%d rows, want the %d a collector after every event records:\n got %v\nwant %v",
						len(got.Samples), len(ref.Samples), got.Samples, ref.Samples)
				}
				if net.Now() != twin.Now() || net.kernel.Executed() != k.Executed() || tally.ticks != twinTally.ticks {
					t.Fatalf("the observed run ended at %v after %d events, its twin at %v after %d", net.Now(), net.kernel.Executed(), twin.Now(), k.Executed())
				}
			})
		}
	}
}
