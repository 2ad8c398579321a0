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
// with the collector off: 732 824 B in 912 objects (732 840 B in 912 under
// the race detector). In kB of 1 024 B, as pprof counts: the kernel's
// out-of-order lane is 222 kB of it — the 4 022 opening broadcasts the run
// lane does not take, staged before the first pop (102 kB), and the one heap
// the first pop loads them into, their count plus a quarter (5 027 events,
// 120 kB), which holds the run's peak of 4 861. The store's slot pool is
// 159 kB in pages of 71 slots that fill their 2 304-B size class, never
// copied; the graph's CSR 50 kB laid out with no edge list beside it; and the
// votes 16 kB, each distinct vote boxed once. A heap grown by append to that
// peak read 420 kB, and 64-slot pages, which left 248 B of each class unused,
// 177 kB: 953 792 B in 921 objects. A slot pool that copied itself as it grew
// read 581 kB there, beside a 70 kB free list, and a box per broadcast 204 kB
// in 12 864 objects: 1 661 520 B in 13 410 objects in all. The budget is
// 750 000 B in 950 objects (755 000 B in 955 under the race detector).
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
	byteBudget, objectBudget := uint64(750_000), uint64(950)
	if allocbudget.Race {
		byteBudget, objectBudget = 755_000, 955
	}
	t.Logf("runner.Run(BenOr) on Complete(64), 100 rounds: %d B in %d objects", bytes, objects)
	if bytes > byteBudget || objects > objectBudget {
		t.Errorf("a ben-or run allocates %d B in %d objects, budget %d B in %d", bytes, objects, byteBudget, objectBudget)
	}
}

// TestCalendarAllocationBudget holds the calendar queue to its storage: an
// election on a ring of 64 under the calendar scheduler. Measured at this
// commit, with the collector off: 50 280 B in 149 objects (50 840 B in 149
// under the race detector). The wheel does not wrap: between two rebuilds the
// cursor passes each bucket once, so a bucket's storage is used for one
// window and then, drained, goes to a spare list that the next bucket to
// fill from empty takes from. Storage left in the drained buckets behind the
// cursor, with every bucket ahead growing its own from nil — 771 growths over
// 2 rebuilds — read 496 024 B in 959 objects. The budget is 52 000 B in 160
// objects (52 500 B in 160 under the race detector).
func TestCalendarAllocationBudget(t *testing.T) {
	bytes, objects := allocbudget.Run(func() {
		rep, err := Run(Env{N: 64, Scheduler: "calendar", Seed: 1}, Election{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Leaders != 1 {
			t.Fatalf("%d leaders, want 1", rep.Leaders)
		}
	})
	byteBudget, objectBudget := uint64(52_000), uint64(160)
	if allocbudget.Race {
		byteBudget, objectBudget = 52_500, 160
	}
	t.Logf("runner.Run(Election) on a ring of 64 under the calendar: %d B in %d objects", bytes, objects)
	if bytes > byteBudget || objects > objectBudget {
		t.Errorf("a calendar election allocates %d B in %d objects, budget %d B in %d", bytes, objects, byteBudget, objectBudget)
	}
}
