package runner

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"abenet/internal/core"
	"abenet/internal/faults"
	"abenet/internal/probe"
	"abenet/internal/synchronizer"
	"abenet/internal/topology"
	"abenet/internal/trace"
)

// TestObserveMetadataMatchesEngines: observation is the substrate's, so
// every registered protocol returns a series under an observe config.
func TestObserveMetadataMatchesEngines(t *testing.T) {
	for _, name := range Protocols() {
		p, _ := NewInstance(name)
		env := Env{N: 4, Seed: 1, Horizon: 2000,
			Observe: &probe.Config{EveryEvents: 2}}
		if rep, err := Run(env, p); err != nil || rep.Series == nil {
			t.Errorf("%s: Run = %v with series %v, want a series", name, err, rep.Series)
		}
	}
}

// identityRow is one run of the observed-vs-plain and traced-vs-plain
// identity tables.
type identityRow struct {
	name  string
	env   Env
	proto Protocol
}

// identityRows lists the runs both identity tables cover: every registered
// protocol, with default options on the default ring, plus
// synchronized-election under each synchronizer kind on a bidirectional
// ring (α, β and γ reject the unidirectional default).
func identityRows() []identityRow {
	var rows []identityRow
	for _, name := range Protocols() {
		p, _ := NewInstance(name)
		rows = append(rows, identityRow{name, Env{N: 5, Seed: 7, Horizon: 5000}, p})
	}
	for _, kind := range []synchronizer.Kind{synchronizer.KindRound, synchronizer.KindAlpha, synchronizer.KindBeta, synchronizer.KindGamma} {
		rows = append(rows, identityRow{
			"synchronized-election/" + kind.String(),
			Env{Graph: topology.BiRing(5), Seed: 7, Horizon: 5000},
			SynchronizedElection{Kind: kind},
		})
	}
	return rows
}

// TestObservedRunByteIdentical is the golden pin behind the probe design:
// the collector samples between two events and never schedules,
// so an observed run must be byte-identical to an unobserved one at the
// same (Env, seed) — same report, same metrics, same full message trace —
// for every protocol, at an aggressive cadence (a sample after every single
// event).
func TestObservedRunByteIdentical(t *testing.T) {
	for _, row := range identityRows() {
		name := row.name
		execute := func(obs *probe.Config) (Report, *trace.Export) {
			rec := trace.NewRecorder(0)
			env := row.env
			env.tracer, env.Observe = rec, obs
			rep, err := Run(env, row.proto)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return rep, rec.Export()
		}
		plain, plainTrace := execute(nil)
		observed, obsTrace := execute(&probe.Config{EveryEvents: 1, Interval: 0.25})

		if observed.Series == nil || len(observed.Series.Samples) == 0 {
			t.Errorf("%s: observed run produced no samples", name)
			continue
		}
		if plain.Series != nil {
			t.Errorf("%s: unobserved run carries a series", name)
		}
		if !reflect.DeepEqual(plain.Metrics(), observed.Metrics()) {
			t.Errorf("%s: observed metrics differ from unobserved:\n  %v\n  %v",
				name, plain.Metrics(), observed.Metrics())
		}
		observed.Series = nil
		if !reflect.DeepEqual(plain, observed) {
			t.Errorf("%s: observed report differs from unobserved:\n  %+v\n  %+v", name, plain, observed)
		}
		if !reflect.DeepEqual(plainTrace, obsTrace) {
			t.Errorf("%s: observed trace differs from unobserved (%d vs %d events)",
				name, len(plainTrace.Events), len(obsTrace.Events))
		}
	}
}

// TestObserveSeriesShape pins the engine-level gauge schema: the network
// columns are always present, in order, followed by the protocol's own.
func TestObserveSeriesShape(t *testing.T) {
	rep, err := Run(Env{N: 6, Seed: 2, Observe: &probe.Config{EveryEvents: 1}}, Election{})
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Series
	want := []string{"in_flight", "sent", "delivered", "timers_fired", "crashed",
		"byz_interventions", "candidates", "passive", "elected"}
	if !reflect.DeepEqual(s.Names, want) {
		t.Fatalf("series names = %v, want %v", s.Names, want)
	}
	last := s.Samples[len(s.Samples)-1]
	if len(last.Values) != len(want) {
		t.Fatalf("sample width %d != %d names", len(last.Values), len(want))
	}
	// At the end of a correct election exactly one node is elected and the
	// cumulative counters match the report.
	byName := func(name string) float64 {
		for i, n := range s.Names {
			if n == name {
				return last.Values[i]
			}
		}
		t.Fatalf("no gauge %q", name)
		return 0
	}
	if got := byName("elected"); got != 1 {
		t.Errorf("final elected gauge = %g, want 1", got)
	}
	if got := byName("sent"); got != float64(rep.Messages) {
		t.Errorf("final sent gauge = %g, want %d (report messages)", got, rep.Messages)
	}
	if got := byName("in_flight"); got != 0 {
		t.Errorf("final in_flight = %g, want 0 after the run drained", got)
	}
}

// TestInFlightReadsWhatIsInFlight: the gauge counts the messages on a wire
// or held back on their way to one, not sent − delivered. On the radio a
// transmission is sent once and delivered once per receiver, so that
// difference underflowed at every sample (1.8e19); under loss it stayed
// positive for the rest of the run — a lost message was in flight forever.
func TestInFlightReadsWhatIsInFlight(t *testing.T) {
	column := func(s *probe.Series, name string) int {
		for i, n := range s.Names {
			if n == name {
				return i
			}
		}
		t.Fatalf("no gauge %q", name)
		return 0
	}
	t.Run("local broadcast", func(t *testing.T) {
		rep, err := Run(Env{Graph: topology.Complete(6), Seed: 1, LocalBroadcast: true,
			Observe: &probe.Config{EveryEvents: 1}}, BenOr{})
		if err != nil {
			t.Fatal(err)
		}
		s := rep.Series
		inFlight, sent := column(s, "in_flight"), column(s, "sent")
		for _, sample := range s.Samples {
			if v := sample.Values[inFlight]; !(v >= 0 && v <= sample.Values[sent]) {
				t.Fatalf("t=%g: in_flight %g with %g transmissions sent", sample.Time, v, sample.Values[sent])
			}
		}
	})
	t.Run("loss", func(t *testing.T) {
		rep, err := Run(Env{N: 8, Seed: 1, Horizon: 1000, Faults: &faults.Plan{Loss: 0.3},
			Observe: &probe.Config{Interval: 5}}, Election{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Faults.MessagesDropped == 0 {
			t.Fatal("the plan lost nothing: pick a seed that does")
		}
		s := rep.Series
		last := s.Samples[len(s.Samples)-1].Values
		if gap := last[column(s, "sent")] - last[column(s, "delivered")]; gap != float64(rep.Faults.MessagesDropped) {
			t.Fatalf("sent − delivered = %g at the horizon, want the %d lost messages", gap, rep.Faults.MessagesDropped)
		}
		if v := last[column(s, "in_flight")]; v != 0 {
			t.Errorf("in_flight = %g at the horizon with every wire empty, want 0", v)
		}
	})
}

// TestObservedSeriesDeterministic: the samples themselves are a pure
// function of (Env, seed) — two observed runs produce identical series.
func TestObservedSeriesDeterministic(t *testing.T) {
	run := func() *probe.Series {
		p, _ := NewInstance("election")
		rep, err := Run(Env{N: 8, Seed: 11, Horizon: 5000,
			Observe: &probe.Config{EveryEvents: 3, Interval: 0.5}}, p)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Series
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.Names, b.Names) || !reflect.DeepEqual(a.Samples, b.Samples) {
		t.Fatalf("repeated observed runs diverged: %d vs %d samples", len(a.Samples), len(b.Samples))
	}
}

// TestEnvValidateObserve pins the environment-level typed error.
func TestEnvValidateObserve(t *testing.T) {
	bad := Env{N: 4, Observe: &probe.Config{}}
	if err := Check(bad, Election{}); !errors.Is(err, ErrEnvObserve) {
		t.Fatalf("cadence-less observe: Check = %v, want ErrEnvObserve", err)
	}
	if err := Check(Env{N: 4, Observe: &probe.Config{Interval: 0.5}}, Election{}); err != nil {
		t.Fatalf("valid observe env rejected: %v", err)
	}
}

// TestElectionGaugesCountTheRing: the election's gauges read the counts its
// ring's Tally keeps at every state change and churn restart, and after
// every event they equal a count over every node's current incarnation —
// through crashes and restarts, and through re-candidacy waves under loss.
func TestElectionGaugesCountTheRing(t *testing.T) {
	cases := []struct {
		name string
		env  Env
		p    Election
	}{
		{"churn", Env{N: 12, Seed: 3, Horizon: 600, Faults: &faults.Plan{CrashRate: 0.02, RecoverRate: 0.2}}, Election{KeepRunning: true}},
		{"re-candidacy under loss", Env{N: 10, Seed: 5, Horizon: 3000, Faults: &faults.Plan{Loss: 0.3}}, Election{KeepRunning: true, RecandidacyTimeout: 60}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := check(tc.env, tc.p)
			if err != nil {
				t.Fatal(err)
			}
			env := tc.env
			env.Graph = s.graph()
			cfg, err := tc.p.config(env, env.Graph.N())
			if err != nil {
				t.Fatal(err)
			}
			ring, err := newElectionRing(env.Graph.N(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			var samples, moves int
			var prev [3]float64
			env.Observe = &probe.Config{EveryEvents: 1, MaxSamples: math.MaxInt, Sink: func(names []string, s probe.Sample) {
				var want [3]float64 // candidates, passive, elected
				for i := range ring.first {
					switch ring.node(i).State() {
					case core.Active:
						want[0]++
					case core.Passive:
						want[1]++
					case core.Leader:
						want[2] = 1
					}
				}
				got := [3]float64{s.Values[len(names)-3], s.Values[len(names)-2], s.Values[len(names)-1]}
				if got != want {
					t.Fatalf("event %d: gauges read %v, the ring holds %v", s.Event, got, want)
				}
				if samples++; got != prev {
					moves++
				}
				prev = got
			}}
			rep, err := runNetwork(env, ring.protocol())
			if err != nil {
				t.Fatal(err)
			}
			ex := rep.Extra.(ElectionExtra)
			if samples == 0 || moves < 10 || (tc.env.Faults.CrashRate > 0 && ring.restarted == nil) ||
				(tc.p.RecandidacyTimeout > 0 && ex.Recandidacies == 0) {
				t.Fatalf("the run exercised too little: %d samples, %d gauge moves, restarts %t, %+v", samples, moves, ring.restarted != nil, ex)
			}
		})
	}
}
