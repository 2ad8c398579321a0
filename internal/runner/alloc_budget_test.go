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
