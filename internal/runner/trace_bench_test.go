package runner

import (
	"testing"

	"abenet/internal/channel"
	"abenet/internal/clock"
	"abenet/internal/dist"
	"abenet/internal/network"
	"abenet/internal/simtime"
	"abenet/internal/trace"
)

// Tracer-overhead benchmarks, in two pairs mirroring the observer pair in
// internal/sim:
//
//   - TracerDetached / TracerAttached is the gated pair. The attached leg
//     installs a null Tracer — interface dispatch, ID assignment, and the
//     network's current-cause threading run on every kernel event, but
//     nothing is stored or exported. CI fails the build if this leg costs
//     more than a few percent over the detached one: like the kernel's
//     observer hook, the trace hook is a nil check when detached and must
//     stay near-free when attached, so any real gap is a regression in the
//     network hot path.
//
//   - ElectionUntraced / ElectionTraced is the published pair. The traced
//     leg runs the real Recorder and Export — full event storage, Lamport
//     bookkeeping, and the final serialisable trace. That is inherently
//     allocation-bound (a 32-node run stores ~2k events), so the pair
//     shows the honest price of collecting a trace and is not gated at the
//     hook threshold.
//
// The environment is a full ABE instance (ARQ links, drifting clocks, a
// processing-time model), not the all-defaults ring: the numbers price the
// tracer against what a simulated event actually costs in the
// configurations the paper studies, where condition 1–3 machinery (per-hop
// retransmission sampling, clock conversion, processing delays) runs on
// every event. On the all-defaults ring most events are bare timer fires
// that do almost no work, and the ratio would measure the emptiness of the
// baseline rather than the cost of the tracer.
func traceBenchEnv(i int) Env {
	return Env{
		N:          32,
		Seed:       uint64(i),
		Horizon:    1e6,
		Links:      channel.ARQFactory(0.5, 0.5),
		Delta:      1,
		Clocks:     clock.NewWanderingModel(1, 1.1, 1),
		Processing: dist.NewExponential(0.1),
	}
}

// nullTracer assigns IDs and threads causes like the real Recorder but
// stores nothing: it isolates the per-event hook cost (interface dispatch
// plus TraceRef plumbing) from the cost of collecting the trace.
type nullTracer struct {
	next   network.EventID
	events int
}

func (t *nullTracer) ref() network.TraceRef {
	t.next++
	t.events++
	return network.TraceRef{ID: t.next, Lamport: uint64(t.next)}
}

func (t *nullTracer) MessageSent(at simtime.Time, from, to int, payload any, cause network.TraceRef) network.TraceRef {
	return t.ref()
}

func (t *nullTracer) MessageDelivered(at simtime.Time, from, to int, payload any, send network.TraceRef) network.TraceRef {
	return t.ref()
}

func (t *nullTracer) TimerFired(at simtime.Time, node, kind int, cause network.TraceRef) network.TraceRef {
	return t.ref()
}

func (t *nullTracer) Decision(at simtime.Time, node int, reason string, cause network.TraceRef) network.TraceRef {
	return t.ref()
}

func benchTracerHook(b *testing.B, attach bool) {
	var events int
	for i := 0; i < b.N; i++ {
		env := traceBenchEnv(i)
		var nt *nullTracer
		if attach {
			nt = &nullTracer{}
			env.tracer = nt
		}
		rep, err := Run(env, Election{})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Leaders != 1 {
			b.Fatalf("leaders = %d", rep.Leaders)
		}
		if attach {
			events += nt.events
		}
	}
	if attach && events == 0 {
		b.Fatal("tracer hook never fired")
	}
}

// BenchmarkTracerDetached is the baseline leg of the gated hook pair.
func BenchmarkTracerDetached(b *testing.B) { benchTracerHook(b, false) }

// BenchmarkTracerAttached runs the same workload with a null Tracer
// installed: every event pays the hook dispatch and cause threading, but
// nothing is recorded.
func BenchmarkTracerAttached(b *testing.B) { benchTracerHook(b, true) }

// TestTracerHookAllocations is the gated pair's signal that a loaded machine
// still resolves: heap objects per run, which do not depend on the clock. A
// null tracer may cost the causal tag a traced send carries across its link
// (one object per message, a few dozen here) and nothing per event — a timer
// or a queued delivery that allocates under a tracer shows up as thousands
// (6 851 against 3 879 detached, when each was a chain of closures).
func TestTracerHookAllocations(t *testing.T) {
	run := func(attach bool) float64 {
		seed := 0 // both legs average over the same runs
		return testing.AllocsPerRun(20, func() {
			env := traceBenchEnv(seed)
			seed++
			if attach {
				env.tracer = &nullTracer{}
			}
			if _, err := Run(env, Election{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	detached, attached := run(false), run(true)
	t.Logf("objects per run: %.0f detached, %.0f with a null tracer attached", detached, attached)
	if attached-detached > 64 {
		t.Errorf("a null tracer costs %.0f objects per run over %.0f detached, budget 64", attached-detached, detached)
	}
}

func benchTracedElection(b *testing.B, traced bool) {
	var events int
	for i := 0; i < b.N; i++ {
		env := traceBenchEnv(i)
		if traced {
			env.Trace = &trace.Config{}
		}
		rep, err := Run(env, Election{})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Leaders != 1 {
			b.Fatalf("leaders = %d", rep.Leaders)
		}
		if traced {
			events += len(rep.Trace.Events)
		}
	}
	if traced && events == 0 {
		b.Fatal("traced runs recorded no events")
	}
}

// BenchmarkElectionUntraced is the baseline leg of the published pair.
func BenchmarkElectionUntraced(b *testing.B) { benchTracedElection(b, false) }

// BenchmarkElectionTraced records every kernel event with full causal
// attribution and exports the trace.
func BenchmarkElectionTraced(b *testing.B) { benchTracedElection(b, true) }
