package runner

import (
	"testing"

	"abenet/internal/allocbudget"
)

// TestElectionAllocationBudget holds a whole election run to a byte budget
// per node, in the shape of the repo benchmark's ring-sparse-100k at n = 10⁴:
// A0 = 1/n and a tick every n time units, so a run is a few events per node
// and its cost is what it builds per node. Measured at this commit: 237 B per
// node (the graph 16, the network 140, the node slab 64 — one cache line a
// node, and no pointer table: a node's current incarnation is its slab slot
// until it restarts —, 16 for the boxed 8-B tokens and the rest; 253 B under
// the race detector, which pads each token to 16 B) against a budget of 252 B
// (269 B under the race detector).
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
	budget := 252.0
	if allocbudget.Race {
		budget = 269
	}
	t.Logf("runner.Run(Election) on a ring of 10⁴: %.0f B per node", bytes)
	if bytes > budget {
		t.Errorf("an election run allocates %.0f B per node, budget %.0f", bytes, budget)
	}
}
