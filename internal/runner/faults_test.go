package runner

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"abenet/internal/channel"
	"abenet/internal/core"
	"abenet/internal/dist"
	"abenet/internal/faults"
	"abenet/internal/network"
	"abenet/internal/sim"
	"abenet/internal/simtime"
	"abenet/internal/synchronizer"
	"abenet/internal/topology"
	"abenet/internal/trace"
)

// TestEnvValidateErrorPaths covers each structured validation error.
func TestEnvValidateErrorPaths(t *testing.T) {
	cases := []struct {
		name string
		env  Env
		want error
	}{
		{"empty", Env{}, ErrEnvSize},
		{"n=1", Env{N: 1}, ErrEnvSize},
		{"n/graph mismatch", Env{N: 5, Graph: topology.Ring(6)}, ErrEnvSize},
		{"negative delta", Env{N: 4, Delta: -1}, ErrEnvDelta},
		{"links+delay without delta", Env{
			N:     4,
			Delay: dist.NewExponential(1),
			Links: channel.FIFOFactory(dist.NewExponential(1)),
		}, ErrEnvAmbiguousDelay},
		{"broken fault plan", Env{
			N:      4,
			Faults: &faults.Plan{Loss: 2},
		}, ErrEnvFaults},
		{"fault event outside graph", Env{
			N:      4,
			Faults: &faults.Plan{Events: []faults.Event{faults.CrashAt(1, 7)}},
		}, ErrEnvFaults},
		{"link event on absent edge", Env{
			// The unidirectional Ring(4) has 1->2 but not the reverse.
			N:      4,
			Faults: &faults.Plan{Events: []faults.Event{faults.LinkDownAt(1, 2, 1)}},
		}, ErrEnvFaults},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := Check(c.env, Election{})
			if err == nil {
				t.Fatalf("Check accepted %+v", c.env)
			}
			if !errors.Is(err, c.want) {
				t.Fatalf("error %q is not %q", err, c.want)
			}
			// Run must reject the same environment identically.
			if _, runErr := Run(c.env, Election{}); runErr == nil || !errors.Is(runErr, c.want) {
				t.Fatalf("Run error %q is not %q", runErr, c.want)
			}
		})
	}
}

// TestEnvValidateAcceptsResolvedAmbiguity pins the escape hatch: Links and
// Delay may coexist once Delta declares the governing δ.
func TestEnvValidateAcceptsResolvedAmbiguity(t *testing.T) {
	env := Env{
		N:     4,
		Delay: dist.NewExponential(1),
		Links: channel.ARQFactory(0.5, 1),
		Delta: 2,
	}
	if err := Check(env, Election{}); err != nil {
		t.Fatal(err)
	}
	rep, err := Run(env, Election{})
	if err != nil {
		t.Fatal(err)
	}
	if err := RequireElected(rep); err != nil {
		t.Fatal(err)
	}
}

// TestElectionUnderLossThroughEnv drives the tentpole end to end: a lossy
// plan on the unified runner yields fault telemetry on the report, and the
// run stays deterministic.
func TestElectionUnderLossThroughEnv(t *testing.T) {
	env := Env{
		N:       16,
		Seed:    5,
		Horizon: simtime.Time(5000),
		Faults:  &faults.Plan{Loss: 0.1, Duplicate: 0.05},
	}
	first, err := Run(env, Election{})
	if err != nil {
		t.Fatal(err)
	}
	if first.Faults == nil {
		t.Fatal("no fault telemetry on the report")
	}
	if first.Faults.MessagesDropped == 0 {
		t.Fatal("10% loss dropped nothing")
	}
	m := first.Metrics()
	for _, key := range []string{"fault_dropped", "fault_duplicated", "fault_crashes", "elected"} {
		if _, ok := m[key]; !ok {
			t.Fatalf("metrics missing %q: %v", key, m)
		}
	}
	second, err := Run(env, Election{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("fault-injected run not deterministic:\n a: %+v\n b: %+v", first, second)
	}
}

// TestFaultPlansOnAsyncRingProtocols smoke-tests every fault-capable
// protocol on ring and hypercube, each under a plan its channel
// assumptions tolerate: the election and Chang–Roberts accept arbitrary
// loss/reorder/outage mixes; Itai–Rodeh async requires per-link FIFO, so
// it gets the order-preserving axes (loss, duplication) only.
func TestFaultPlansOnAsyncRingProtocols(t *testing.T) {
	mixed := &faults.Plan{Loss: 0.05, Reorder: 0.1, Events: []faults.Event{
		faults.LinkDownAt(3, 0, 1), faults.LinkUpAt(6, 0, 1),
	}}
	fifoSafe := &faults.Plan{Loss: 0.05, Duplicate: 0.05}
	cases := []struct {
		proto Protocol
		plan  *faults.Plan
	}{
		{Election{}, mixed},
		{ChangRoberts{}, mixed},
		{ItaiRodehAsync{}, fifoSafe},
	}
	graphs := map[string]*topology.Graph{"ring": nil, "hypercube": topology.Hypercube(3)}
	for _, c := range cases {
		for gname, g := range graphs {
			t.Run(fmt.Sprintf("%s/%s", c.proto.Name(), gname), func(t *testing.T) {
				env := Env{Graph: g, Seed: 17, Horizon: simtime.Time(20000), Faults: c.plan}
				if g == nil {
					env.N = 8
				}
				rep, err := Run(env, c.proto)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Faults == nil {
					t.Fatal("no telemetry")
				}
				if rep.Leaders > 1 {
					// Loss can break termination but these small runs
					// should not mint extra leaders; if one ever does,
					// that is a finding worth looking at, not a flake.
					t.Fatalf("%d leaders under loss", rep.Leaders)
				}
			})
		}
	}
}

// TestFaultsRejectedByUnsupportingProtocols pins the explicit contract: a
// protocol without a fault-capable engine refuses to pretend.
func TestFaultsRejectedByUnsupportingProtocols(t *testing.T) {
	plan := &faults.Plan{Loss: 0.1}
	unsupported := []Protocol{
		ItaiRodehSync{},
		SynchronizedElection{},
		ClockSync{},
		Peterson{}, // reliable-FIFO step protocol: every fault axis breaks it
		Synchronized{MakeNode: func(int) synchronizer.Node { return floodNode{} }},
	}
	for _, p := range unsupported {
		t.Run(p.Name(), func(t *testing.T) {
			_, err := Run(Env{N: 4, Seed: 1, Faults: plan}, p)
			if !errors.Is(err, ErrFaultsUnsupported) {
				t.Fatalf("%s with a fault plan: Run = %v, want ErrFaultsUnsupported", p.Name(), err)
			}
		})
	}
}

// TestElectionViolationText pins the report's violation lines for tokens no
// correct run carries — a hop outside [1, n], at either end and at the 32-bit
// extremes, and a foreign payload — in node order, then arrival order: the
// lines a run recorded when a hop was a machine int and every node carried
// its own log.
func TestElectionViolationText(t *testing.T) {
	ring, err := newElectionRing(3, core.ElectionNodeConfig{RingSize: 3, A0: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range 3 {
		if _, err := ring.spawn(i, 0); err != nil {
			t.Fatal(err)
		}
	}
	// With re-candidacy off, a rejected token never reaches the Context.
	ring.node(2).OnMessage(nil, 0, core.HopMessage{Hop: 4})
	ring.node(2).OnMessage(nil, 0, "token")
	ring.node(0).OnMessage(nil, 0, core.HopMessage{Hop: 0})
	ring.node(0).OnMessage(nil, 0, core.HopMessage{Hop: math.MinInt32, Epoch: 7})
	ring.node(1).OnMessage(nil, 0, core.HopMessage{Hop: math.MaxInt32})
	var rep Report
	ring.collect(&rep)
	want := []string{
		"hop 0 outside [1, 3]",
		"hop -2147483648 outside [1, 3]",
		"hop 2147483647 outside [1, 3]",
		"hop 4 outside [1, 3]",
		"foreign payload string",
	}
	if !reflect.DeepEqual(rep.Violations, want) {
		t.Fatalf("violations %q, want %q", rep.Violations, want)
	}
	if rep.Leaders != 0 || rep.LeaderIndex != -1 || rep.Elected {
		t.Fatalf("leaders %d at %d (elected %v), want none", rep.Leaders, rep.LeaderIndex, rep.Elected)
	}
	if x := rep.Extra.(ElectionExtra); x != (ElectionExtra{}) {
		t.Fatalf("rejected tokens moved the counters: %+v", x)
	}
}

// TestElectionRestartLeavesTheSlab pins what churn does to the election's
// node storage: the first incarnation of a node is its slab slot, a restart
// is a fresh object — the slab slot is never reset in place, so the dead
// incarnation keeps its final state — and the dead incarnation's violations
// are folded into the run's totals before it is replaced. The
// table of restarted incarnations exists from the first restart on, and
// node(i) — what the gauges and collect read — is the current
// incarnation throughout. An invalid config is refused once, when the ring is
// made, and a negative send port when a node is spawned.
func TestElectionRestartLeavesTheSlab(t *testing.T) {
	ring, err := newElectionRing(3, core.ElectionNodeConfig{RingSize: 3, A0: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	first, err := ring.spawn(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if first != network.Node(&ring.first[1]) || ring.node(1) != &ring.first[1] {
		t.Fatal("first incarnation does not live in the slab")
	}
	if ring.restarted != nil {
		t.Fatal("a first incarnation made the table of restarted incarnations")
	}
	dead := ring.node(1)
	dead.OnMessage(nil, 0, "seen by the dead incarnation") // a foreign payload is a violation

	second, err := ring.spawn(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if second == first || ring.node(1) == dead || second != network.Node(ring.node(1)) {
		t.Fatal("restart reused the slab slot in place")
	}
	if len(dead.Violations()) != 1 {
		t.Fatalf("restart reset the dead incarnation: %+v", dead)
	}
	if len(ring.violations) != 1 {
		t.Fatalf("dead incarnation not folded before replacement: violations %v", ring.violations)
	}
	if fresh := ring.node(1); fresh.State() != core.Idle || fresh.D() != 1 || len(fresh.Violations()) != 0 {
		t.Fatalf("restarted node is not fresh: %+v", fresh)
	}
	if _, err := newElectionRing(3, core.ElectionNodeConfig{RingSize: 1, A0: 0.5}); err == nil ||
		err.Error() != "core: ring size 1 must be at least 2" {
		t.Fatalf("invalid node config: newElectionRing = %v, want the ring-size error", err)
	}
	if _, err := ring.spawn(2, -1); err == nil || err.Error() != "core: send port -1 must be non-negative" {
		t.Fatalf("negative send port: spawn = %v, want the send-port error", err)
	}

	// The gauges read the current incarnation: elect a leader on a live ring,
	// then restart it — the dead leader keeps its state in the slab, and
	// "elected" reads 0 once the fresh, idle incarnation has replaced it.
	live, err := newElectionRing(3, core.ElectionNodeConfig{RingSize: 3, A0: 0.5, StopOnLeader: true})
	if err != nil {
		t.Fatal(err)
	}
	net, err := network.New(network.Config{Graph: topology.Ring(3), Links: channel.RandomDelayFactory(dist.NewExponential(1)), Seed: 1},
		func(i int) network.Node {
			node, err := live.spawn(i, 0)
			if err != nil {
				t.Fatal(err)
			}
			return node
		})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Run(simtime.Forever, 0); err != nil && !errors.Is(err, sim.ErrStopped) {
		t.Fatal(err)
	}
	gauges := map[string]func() float64{}
	for _, g := range (electionGauges{live.params}).ProbeGauges() {
		gauges[g.Name] = g.Read
	}
	leader := -1
	for i := range 3 {
		if live.node(i).State() == core.Leader {
			leader = i
		}
	}
	if leader < 0 || gauges["elected"]() != 1 {
		t.Fatalf("no leader on the live ring (elected gauge %g)", gauges["elected"]())
	}
	idle := func() (n int) {
		for i := range 3 {
			if live.node(i).State() == core.Idle {
				n++
			}
		}
		return n
	}
	before, passive := idle(), gauges["passive"]()
	if _, err := live.spawn(leader, 0); err != nil {
		t.Fatal(err)
	}
	if live.first[leader].State() != core.Leader {
		t.Fatalf("restart changed the dead leader's state to %v", live.first[leader].State())
	}
	if gauges["elected"]() != 0 || gauges["passive"]() != passive || idle() != before+1 {
		t.Fatalf("gauges after the leader's restart: elected %g, passive %g (was %g), idle %d (was %d); want the fresh incarnation",
			gauges["elected"](), gauges["passive"](), passive, idle(), before)
	}
}

// TestElectionChurnCountsEachActivationOnce runs rings whose nodes crash and
// restart and checks the reported activations against the trace: every
// activation is one send of hop 1 (a relay sends d+1 ≥ 2), so the tally of
// the ring's nodes and all their incarnations must equal that count — an
// incarnation's activations neither lost at its restart nor counted twice.
func TestElectionChurnCountsEachActivationOnce(t *testing.T) {
	restarts := 0
	for seed := uint64(1); seed <= 8; seed++ {
		rep, err := Run(Env{
			N: 8, Seed: seed, Horizon: 300,
			Faults: &faults.Plan{CrashRate: 0.02, RecoverRate: 0.2},
			Trace:  &trace.Config{},
		}, Election{KeepRunning: true})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Trace.Dropped != 0 {
			t.Fatalf("seed %d: the trace dropped %d events", seed, rep.Trace.Dropped)
		}
		hop1 := 0
		for _, e := range rep.Trace.Events {
			if e.Kind == trace.KindSend && e.Hop == 1 {
				hop1++
			}
		}
		if got := rep.Extra.(ElectionExtra).Activations; got != hop1 {
			t.Errorf("seed %d: %d activations reported over %d restarts, %d in the trace",
				seed, got, rep.Faults.Recoveries, hop1)
		}
		restarts += rep.Faults.Recoveries
	}
	if restarts == 0 {
		t.Fatal("no node restarted: the test exercised no churn")
	}
}
