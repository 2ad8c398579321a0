package runner

import (
	"testing"

	"abenet/internal/allocbudget"
	"abenet/internal/channel"
	"abenet/internal/core"
	"abenet/internal/dist"
	"abenet/internal/network"
	"abenet/internal/simtime"
	"abenet/internal/topology"
)

// Each test below reads a tracked path through allocbudget.Figures: in the
// plain build the path's line of testdata/alloc.golden at the module root,
// which pins it exactly, and under -race a measurement, made once per test
// binary for a path that tests share. A budget is the -race build's, which
// pads what a path allocates, so it holds in both builds.

// sparseRun is a whole sparseElection run at n nodes that must elect one
// leader.
func sparseRun(t *testing.T, n int) func() {
	return func() {
		rep, err := Run(Env{N: n, Seed: 1}, sparseElection(n))
		if err != nil || rep.Leaders != 1 {
			t.Fatalf("%v, %d leaders", err, rep.Leaders)
		}
	}
}

// TestElectionAllocationBudget holds a whole election in the ring-sparse
// shape, cold, to 205 B per node at n = 10⁴ and to the same objects at
// n = 10³ and 10⁴: what it builds per node, and nothing per message.
func TestElectionAllocationBudget(t *testing.T) {
	small, _ := allocbudget.Figures(t, "election ring-sparse n=1000", sparseRun(t, 1_000))
	large, _ := allocbudget.Figures(t, "election ring-sparse n=10000", sparseRun(t, 10_000))
	if small.Objects != large.Objects {
		t.Errorf("an election run allocates %d objects at n = 10³ and %d at 10⁴: something per message or node", small.Objects, large.Objects)
	}
	if large.Bytes > 205*10_000 {
		t.Errorf("an election run allocates %d B at n = 10⁴, budget 205 B per node", large.Bytes)
	}
}

// TestWarmElectionAllocationBudget holds a repeated election in the
// ring-sparse shape at n = 10⁴, whose arrays come from the runs before it,
// to 0.325 B per node.
func TestWarmElectionAllocationBudget(t *testing.T) {
	_, warm := allocbudget.Figures(t, "election ring-sparse n=10000", sparseRun(t, 10_000))
	if float64(warm.Bytes) > 0.325*10_000 {
		t.Errorf("a repeated election run allocates %d B at n = 10⁴, budget 0.325 B per node", warm.Bytes)
	}
}

// TestWarmElectionAllocatesNothingPerNode holds a repeated election in the
// ring-sparse shape to the same bytes and objects at n = 10³ and 10⁴: once
// the runs before it have handed on their arrays, a run lays out nothing
// whose size grows with the network.
func TestWarmElectionAllocatesNothingPerNode(t *testing.T) {
	_, small := allocbudget.Figures(t, "election ring-sparse n=1000", sparseRun(t, 1_000))
	_, large := allocbudget.Figures(t, "election ring-sparse n=10000", sparseRun(t, 10_000))
	if small != large {
		t.Errorf("a repeated election run allocates %+v at n = 10³ and %+v at 10⁴: something laid out per node", small, large)
	}
}

// TestStandaloneElectionAllocationBudget holds a network of 10⁴ standalone
// core.NewElectionNode nodes in the ring-sparse shape, built and run cold as
// the repo benchmark's replica builds its ring-sparse unit, to 2 998 808 B.
// A ring's params lay out one table of n tokens; a standalone node's params
// must not, or this network would hold n tables, n²·8 bytes.
func TestStandaloneElectionAllocationBudget(t *testing.T) {
	const n = 10_000
	cold, _ := allocbudget.Figures(t, "standalone election nodes n=10000", func() {
		nodes := make([]*core.ElectionNode, n)
		net, err := network.New(network.Config{
			Graph:     topology.Ring(n),
			Links:     channel.RandomDelayFactory(dist.NewExponential(1)),
			Seed:      1,
			Anonymous: true,
		}, func(i int) network.Node {
			node, err := core.NewElectionNode(core.ElectionNodeConfig{RingSize: n, A0: 1 / float64(n), TickInterval: n, StopOnLeader: true})
			if err != nil {
				t.Fatal(err)
			}
			nodes[i] = node
			return node
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := net.Run(simtime.Forever, 50_000_000); err != nil {
			t.Fatal(err)
		}
		leaders := 0
		for _, node := range nodes {
			if node.State() == core.Leader {
				leaders++
			}
		}
		if leaders != 1 {
			t.Fatalf("%d leaders, want 1", leaders)
		}
	})
	if cold.Bytes > 2_998_808 {
		t.Errorf("a network of %d standalone election nodes allocates %d B, budget 2 998 808", n, cold.Bytes)
	}
}

// benOrRun is one Ben-Or run on Complete(64) for 100 rounds, the repo
// benchmark's benor-complete-64 unit, where each of 806 400 events is a
// message.
func benOrRun(t *testing.T) func() {
	return func() {
		rep, err := Run(Env{N: 64, MaxRounds: 100, Seed: 1}, BenOr{})
		if err != nil {
			t.Fatal(err)
		}
		if res := rep.Extra.(ConsensusExtra); !res.Agreement || !res.Validity {
			t.Fatalf("ben-or lost agreement or validity: %+v", res)
		}
	}
}

// TestBenOrAllocationBudget holds a cold Ben-Or run, a message path, to
// 755 000 B in 955 objects.
func TestBenOrAllocationBudget(t *testing.T) {
	cold, _ := allocbudget.Figures(t, "ben-or Complete(64) 100 rounds", benOrRun(t))
	if cold.Bytes > 755_000 || cold.Objects > 955 {
		t.Errorf("a ben-or run allocates %d B in %d objects, budget 755 000 B in 955", cold.Bytes, cold.Objects)
	}
}

// TestWarmBenOrAllocationBudget holds a repeated Ben-Or run, whose kernel,
// store, network and graph arrays come from the runs before it, to 62 500 B
// in 835 objects: Ben-Or's own state and a few kB the network and the
// kernel lay out per run.
func TestWarmBenOrAllocationBudget(t *testing.T) {
	_, warm := allocbudget.Figures(t, "ben-or Complete(64) 100 rounds", benOrRun(t))
	if warm.Bytes > 62_500 || warm.Objects > 835 {
		t.Errorf("a repeated ben-or run allocates %d B in %d objects, budget 62 500 B in 835", warm.Bytes, warm.Objects)
	}
}

// TestCalendarAllocationBudget holds the calendar queue to its storage: a
// cold election on a ring of 64 under the calendar scheduler, 52 500 B in
// 160 objects. A drained bucket's storage goes to the next bucket to fill;
// left behind the cursor, with every bucket ahead growing its own, it read
// about ten times that.
func TestCalendarAllocationBudget(t *testing.T) {
	cold, _ := allocbudget.Figures(t, "election ring 64, calendar", func() {
		rep, err := Run(Env{N: 64, Scheduler: "calendar", Seed: 1}, Election{})
		if err != nil || rep.Leaders != 1 {
			t.Fatalf("%v, %d leaders", err, rep.Leaders)
		}
	})
	if cold.Bytes > 52_500 || cold.Objects > 160 {
		t.Errorf("a calendar election allocates %d B in %d objects, budget 52 500 B in 160", cold.Bytes, cold.Objects)
	}
}
