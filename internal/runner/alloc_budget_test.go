package runner

import (
	"testing"

	"abenet/internal/allocbudget"
)

// TestElectionAllocationBudget holds a whole election run to a byte budget
// per node, in the shape of the repo benchmark's ring-sparse-100k at n = 10⁴:
// A0 = 1/n and a tick every n time units, so a run is a few events per node
// and its cost is what it builds per node. Measured at this commit: 197 B per
// node (the graph 16, the network 132, the node slab 32 — no counter on a
// node, the ring's tally is in its shared params, and no pointer table: a
// node's current incarnation is its slab slot until it restarts —, 16 for the
// boxed 8-B tokens and the rest; 213 B under the race detector, which pads
// each token to 16 B) against a budget of 212 B (229 B under the race
// detector).
func TestElectionAllocationBudget(t *testing.T) {
	build := func(n int) func() {
		p := Election{A0: 1 / float64(n), TickInterval: float64(n)}
		return func() {
			rep, err := Run(Env{N: n, Seed: 1}, p)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Leaders != 1 {
				t.Fatalf("%d leaders, want 1", rep.Leaders)
			}
		}
	}
	bytes := allocbudget.BytesPerNode(10_000, build)
	budget := 212.0
	if allocbudget.Race {
		budget = 229
	}
	t.Logf("runner.Run(Election) on a ring of 10⁴: %.0f B per node", bytes)
	if bytes > budget {
		t.Errorf("an election run allocates %.0f B per node, budget %.0f", bytes, budget)
	}
}

// TestBenOrAllocationBudget holds a message path to a budget: one Ben-Or run
// on Complete(64) for 100 rounds, the repo benchmark's benor-complete-64
// unit, where each of 806 400 events is a message. Measured at this commit,
// with the collector off: 953 792 B in 921 objects (953 808 B in 921 under
// the race detector), of
// which the kernel's out-of-order lane is 420 kB, the store's slot pool
// 177 kB in pages never copied, the graph's CSR 50 kB laid out with no edge
// list beside it, and the votes 16 kB, each distinct vote boxed once. An
// edge list filled before the CSR read 988 048 B in 924 objects; a slot
// pool that copied itself as it grew read 581 kB there, beside a 70 kB free
// list, and a box per broadcast 204 kB in 12 864 objects: 1 661 520 B in
// 13 410 objects in all.
func TestBenOrAllocationBudget(t *testing.T) {
	bytes, objects := allocbudget.Run(func() {
		rep, err := Run(Env{N: 64, MaxRounds: 100, Seed: 1}, BenOr{})
		if err != nil {
			t.Fatal(err)
		}
		if res := rep.Extra.(ConsensusExtra); !res.Agreement || !res.Validity {
			t.Fatalf("ben-or lost agreement or validity: %+v", res)
		}
	})
	byteBudget, objectBudget := uint64(975_000), uint64(960)
	if allocbudget.Race {
		byteBudget, objectBudget = 980_000, 965
	}
	t.Logf("runner.Run(BenOr) on Complete(64), 100 rounds: %d B in %d objects", bytes, objects)
	if bytes > byteBudget || objects > objectBudget {
		t.Errorf("a ben-or run allocates %d B in %d objects, budget %d B in %d", bytes, objects, byteBudget, objectBudget)
	}
}
