package runner

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"abenet/internal/byzantine"
	"abenet/internal/channel"
	"abenet/internal/clock"
	"abenet/internal/dist"
	"abenet/internal/faults"
	"abenet/internal/network"
	"abenet/internal/probe"
	"abenet/internal/sim"
	"abenet/internal/simtime"
	"abenet/internal/synchronizer"
	"abenet/internal/topology"
	"abenet/internal/trace"
)

// nopTracer is a network.Tracer that records nothing.
type nopTracer struct{}

func (nopTracer) MessageSent(simtime.Time, int, int, any, network.TraceRef) network.TraceRef {
	return network.TraceRef{}
}
func (nopTracer) MessageDelivered(simtime.Time, int, int, any, network.TraceRef) network.TraceRef {
	return network.TraceRef{}
}
func (nopTracer) TimerFired(simtime.Time, int, int, network.TraceRef) network.TraceRef {
	return network.TraceRef{}
}
func (nopTracer) Decision(simtime.Time, int, string, network.TraceRef) network.TraceRef {
	return network.TraceRef{}
}

// TestNetworkConfigMapsEveryEnvField is the guard against a half-plumbed
// capability: with every Env field set, the one Env → network.Config
// mapping must leave no network.Config field at its zero value, except the
// documented ones — Anonymous (the protocol's, not the environment's) and
// whichever of the two mutually exclusive media the env did not select
// (Links under LocalBroadcast, BroadcastDelay and LocalBroadcast itself
// without it). A field added to network.Config without a line in the
// mapping fails here; so does an Env field this test forgot to fill.
func TestNetworkConfigMapsEveryEnvField(t *testing.T) {
	full := Env{
		Graph:          topology.Complete(4),
		N:              4,
		Delay:          dist.NewUniform(0, 2),
		Links:          channel.FIFOFactory(dist.NewExponential(1)),
		Delta:          1,
		Clocks:         clock.NewUniformFixedModel(0.5, 2),
		Processing:     dist.NewDeterministic(0.1),
		Seed:           7,
		Scheduler:      sim.SchedulerCalendar,
		Horizon:        10,
		MaxEvents:      1000,
		MaxRounds:      5,
		tracer:         nopTracer{},
		Faults:         &faults.Plan{CrashRate: 0.1},
		Byzantine:      byzantine.Equivocators(1),
		LocalBroadcast: true,
		Observe:        &probe.Config{EveryEvents: 1},
		Trace:          &trace.Config{},
	}
	envValue := reflect.ValueOf(full)
	for i := 0; i < envValue.NumField(); i++ {
		if envValue.Field(i).IsZero() {
			t.Fatalf("Env.%s is not filled: extend this test with the new field", envValue.Type().Field(i).Name)
		}
	}

	for _, tc := range []struct {
		name      string
		broadcast bool
		mayBeZero map[string]bool
	}{
		{"local-broadcast", true, map[string]bool{"Anonymous": true, "Links": true}},
		{"point-to-point", false, map[string]bool{"Anonymous": true, "LocalBroadcast": true, "BroadcastDelay": true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := full
			env.LocalBroadcast = tc.broadcast
			cfg := reflect.ValueOf(env.networkConfig(env.Graph, channel.RandomDelayFactory))
			for i := 0; i < cfg.NumField(); i++ {
				name := cfg.Type().Field(i).Name
				if zero := cfg.Field(i).IsZero(); zero != tc.mayBeZero[name] {
					t.Errorf("network.Config.%s zero = %v, want %v", name, zero, tc.mayBeZero[name])
				}
			}
		})
	}

	horizon, maxEvents := full.bounds()
	if horizon != full.Horizon || maxEvents != full.MaxEvents {
		t.Fatalf("bounds() = (%v, %d), want the env's (%v, %d)", horizon, maxEvents, full.Horizon, full.MaxEvents)
	}
	if horizon, maxEvents := (Env{}).bounds(); horizon != simtime.Forever || maxEvents != defaultMaxEvents {
		t.Fatalf("zero bounds() = (%v, %d), want (Forever, %d)", horizon, maxEvents, defaultMaxEvents)
	}
}

// floodNode broadcasts once per round, forever: a synchronous protocol that
// only a bound can stop.
type floodNode struct{}

func (floodNode) Round(ctx synchronizer.NodeContext, round int, _ []synchronizer.Message) {
	for port := 0; port < ctx.OutDegree(); port++ {
		ctx.Send(port, round)
	}
}

// TestSynchronizedRecordsTraceAndSeries is the positive case of what was
// TestSynchronizedRejectsTrace. Synchronized is unregistered: a name-keyed
// capability table once had no row for it and Run handed back err == nil
// with a zero-event trace for a 44-message run, so until the synchronizers
// ran on the substrate the request was refused. Now the trace holds every
// send and the series the round front after the network gauges.
func TestSynchronizedRecordsTraceAndSeries(t *testing.T) {
	proto := Synchronized{MakeNode: func(int) synchronizer.Node { return floodNode{} }}
	rep, err := Run(Env{N: 4, Seed: 1, Horizon: 10, Trace: &trace.Config{}, Observe: &probe.Config{EveryEvents: 1}}, proto)
	if err != nil {
		t.Fatal(err)
	}
	sends := uint64(0)
	for _, e := range rep.Trace.Events {
		if e.Kind == trace.KindSend {
			sends++
		}
	}
	if sends == 0 || sends != rep.Messages {
		t.Fatalf("trace holds %d sends for a %d-message run", sends, rep.Messages)
	}
	names, last := rep.Series.Names, rep.Series.Samples[len(rep.Series.Samples)-1].Values
	if k := len(names) - 2; names[k] != "rounds_min" || names[k+1] != "rounds_max" {
		t.Fatalf("series names %v do not end in the round front", names)
	}
	if lo, hi := int(last[len(last)-2]), int(last[len(last)-1]); lo != rep.Extra.(SyncExtra).MinRounds || hi != rep.Rounds {
		t.Fatalf("final round front [%d, %d], report says [%d, %d]", lo, hi, rep.Extra.(SyncExtra).MinRounds, rep.Rounds)
	}
}

// pingNode sends once on every out-port at time zero and ignores what it
// receives.
type pingNode struct{}

func (pingNode) Init(ctx *network.Context) {
	for port := 0; port < ctx.OutDegree(); port++ {
		ctx.Send(port, port)
	}
}
func (pingNode) OnMessage(*network.Context, int, any) {}
func (pingNode) OnTimer(*network.Context, int)        {}

// substrateOnly declares no capability: its Run is a bare runNetwork over
// pingNodes, with no gauges and nothing to collect.
type substrateOnly struct{}

func (substrateOnly) Name() string { return "substrate-only" }

func (substrateOnly) Run(env Env) (Report, error) {
	return runNetwork(env, netProtocol{
		links:    channel.RandomDelayFactory,
		makeNode: func(int, int) (network.Node, error) { return pingNode{}, nil },
		collect:  func(*Report) error { return nil },
	})
}

// TestSubstrateObservesAndTraces: observing and tracing are the
// substrate's, so a protocol that declares nothing and only supplies nodes
// to runNetwork is observed and traced, and its report is otherwise the
// plain run's.
func TestSubstrateObservesAndTraces(t *testing.T) {
	run := func(obs *probe.Config, tc *trace.Config) Report {
		t.Helper()
		rep, err := Run(Env{N: 5, Seed: 3, Observe: obs, Trace: tc}, substrateOnly{})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	plain := run(nil, nil)
	observed := run(&probe.Config{EveryEvents: 1}, nil)
	traced := run(nil, &trace.Config{})
	if observed.Series == nil || len(observed.Series.Samples) == 0 {
		t.Fatalf("observed run carries no series: %+v", observed.Series)
	}
	if traced.Trace == nil || len(traced.Trace.Events) == 0 {
		t.Fatalf("traced run carries no trace: %+v", traced.Trace)
	}
	observed.Series, traced.Trace = nil, nil
	if !reflect.DeepEqual(plain, observed) {
		t.Errorf("observed report differs from plain:\n  %+v\n  %+v", plain, observed)
	}
	if !reflect.DeepEqual(plain, traced) {
		t.Errorf("traced report differs from plain:\n  %+v\n  %+v", plain, traced)
	}
}

// TestSynchronizerProtocolsHonourEnvBounds pins that the three protocols
// running a synchronizer over the ABE kernel take Processing, Horizon and
// MaxEvents from the environment like every other kernel-backed protocol:
// before they ran on the substrate's network.Config they dropped all three.
func TestSynchronizerProtocolsHonourEnvBounds(t *testing.T) {
	t.Run("processing", func(t *testing.T) {
		env := Env{N: 6, Seed: 1}
		instant, err := Run(env, SynchronizedElection{})
		if err != nil {
			t.Fatal(err)
		}
		env.Processing = dist.NewDeterministic(5)
		slow, err := Run(env, SynchronizedElection{})
		if err != nil {
			t.Fatal(err)
		}
		if !(slow.Time > instant.Time) {
			t.Fatalf("5 time units of processing per event left Time at %g (instantaneous: %g)", slow.Time, instant.Time)
		}
		// The synchronizer hides timing from the protocol: the synchronous
		// execution, and so the winner, is the same.
		if slow.LeaderIndex != instant.LeaderIndex {
			t.Fatalf("processing delay changed the synchronous execution: leader %d vs %d", slow.LeaderIndex, instant.LeaderIndex)
		}
	})

	flood := Synchronized{MakeNode: func(int) synchronizer.Node { return floodNode{} }}
	protocols := []Protocol{flood, SynchronizedElection{Q: 1}, ClockSync{}}

	t.Run("horizon", func(t *testing.T) {
		for _, p := range protocols {
			rep, err := Run(Env{N: 4, Seed: 2, Horizon: 3}, p)
			if err != nil {
				t.Fatalf("%s: %v", p.Name(), err)
			}
			if rep.Time > 3 {
				t.Errorf("%s ran to t = %g past Horizon 3", p.Name(), rep.Time)
			}
			if rep.Messages == 0 {
				t.Errorf("%s sent nothing before the horizon", p.Name())
			}
		}
		// A cut clock-sync run reports the rounds every node started, not
		// the configured count; an un-cut one still reports the latter.
		cut, err := Run(Env{N: 4, Seed: 2, Horizon: 5}, ClockSync{Rounds: 50})
		if err != nil {
			t.Fatal(err)
		}
		if cut.Rounds != 2 {
			t.Errorf("clock-sync cut at Horizon 5 (period 2) reports Rounds = %d, want the 2 rounds every node started", cut.Rounds)
		}
		full, err := Run(Env{N: 4, Seed: 2}, ClockSync{Rounds: 50})
		if err != nil {
			t.Fatal(err)
		}
		if full.Rounds != 50 {
			t.Errorf("un-cut clock-sync reports Rounds = %d, want 50", full.Rounds)
		}
	})

	// The common harvest: until these protocols ran on runNetwork their
	// reports left Events, Transmissions and Params at zero although every
	// one of them runs on the event kernel.
	t.Run("harvest", func(t *testing.T) {
		for _, p := range protocols {
			rep, err := Run(Env{N: 4, Seed: 2, Horizon: 3, Delay: dist.NewExponential(0.5)}, p) // mean 0.5
			if err != nil {
				t.Fatalf("%s: %v", p.Name(), err)
			}
			if rep.Events == 0 {
				t.Errorf("%s reports no kernel events for a %d-message run", p.Name(), rep.Messages)
			}
			if rep.Params.Delta != 0.5 {
				t.Errorf("%s reports δ = %g on exponential links of mean 0.5", p.Name(), rep.Params.Delta)
			}
			rep, err = Run(Env{N: 4, Seed: 2, Horizon: 3, Links: channel.ARQFactory(0.5, 0.5)}, p)
			if err != nil {
				t.Fatalf("%s: %v", p.Name(), err)
			}
			if rep.Transmissions <= rep.Messages {
				t.Errorf("%s on ARQ(0.5) links reports %d transmissions of %d messages", p.Name(), rep.Transmissions, rep.Messages)
			}
		}
	})

	t.Run("max-events", func(t *testing.T) {
		for _, p := range protocols {
			_, err := Run(Env{N: 4, Seed: 2, MaxEvents: 10}, p)
			if !errors.Is(err, sim.ErrMaxEvents) {
				t.Errorf("%s with MaxEvents 10: Run = %v, want sim.ErrMaxEvents", p.Name(), err)
			}
		}
	})
}

// TestReportDecodesToWhatItEncoded: a report read back from JSON holds its
// protocol's typed Extra (so it re-encodes to the same bytes) — also for
// Synchronized, which reports under a name the registry does not hold. A
// protocol name this build does not know keeps the generic value; an Extra
// that does not fit its protocol's type fails the read.
func TestReportDecodesToWhatItEncoded(t *testing.T) {
	rep, err := Run(Env{N: 4, Seed: 1, Horizon: 10}, Synchronized{MakeNode: func(int) synchronizer.Node { return floodNode{} }})
	if err != nil {
		t.Fatal(err)
	}
	first, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(first, &back); err != nil {
		t.Fatal(err)
	}
	if _, typed := back.Extra.(SyncExtra); !typed || !reflect.DeepEqual(back.Extra, rep.Extra) {
		t.Fatalf("decoded Extra = %#v, want %#v", back.Extra, rep.Extra)
	}
	if again, _ := json.Marshal(back); !bytes.Equal(again, first) {
		t.Fatalf("re-encoded report differs:\nfirst: %s\nagain: %s", first, again)
	}

	var unknown Report
	if err := json.Unmarshal([]byte(`{"Protocol": "not-in-this-build", "Messages": 7, "Extra": {"B": 1, "A": 2}}`), &unknown); err != nil {
		t.Fatalf("unknown protocol name failed the read: %v", err)
	}
	if m, generic := unknown.Extra.(map[string]any); !generic || len(m) != 2 || unknown.Messages != 7 {
		t.Fatalf("unknown protocol decoded to %#v", unknown)
	}
	if err := json.Unmarshal([]byte(`{"Protocol": "election", "Extra": {"Activations": "many"}}`), new(Report)); err == nil {
		t.Fatal("an Extra that does not fit ElectionExtra decoded without error")
	}
	var none Report
	if err := json.Unmarshal([]byte(`{"Protocol": "election", "Extra": null}`), &none); err != nil || none.Extra != nil {
		t.Fatalf("null Extra decoded to %#v, %v", none.Extra, err)
	}
}
