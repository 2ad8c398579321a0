package runner

import (
	"testing"
	"unsafe"

	"abenet/internal/allocbudget"
	"abenet/internal/channel"
	"abenet/internal/core"
	"abenet/internal/dist"
	"abenet/internal/network"
	"abenet/internal/simtime"
	"abenet/internal/topology"
)

// TestElectionAllocationBudget holds a whole election run to a byte budget
// per node, in the shape of the repo benchmark's ring-sparse-100k at n = 10⁴:
// A0 = 1/n and a tick every n time units, so a run is a few events per node
// and its cost is what it builds per node. It reads the cold path, a
// process's first run of the shape, which finds no array to reuse (see
// TestWarmElectionAllocationBudget for the runs after it). Measured: 189 B per
// node (the graph 16, the network 132, the node slab 32 — no counter on a
// node, the ring's tally is in its shared params, and no pointer table: a
// node's current incarnation is its slab slot until it restarts —, 8 for the
// ring's table of n 8-B tokens, laid out once, and the rest; 189 B under the
// race detector too) against a budget of 204 B (205 B under the race
// detector). A token boxed per send read 197 B (213 B under the race
// detector, which pads each box to 16 B).
func TestElectionAllocationBudget(t *testing.T) {
	bytes := allocbudget.BytesPerNode(10_000, sparseRun(t))
	budget := 204.0
	if allocbudget.Race {
		budget = 205
	}
	t.Logf("runner.Run(Election) on a ring of 10⁴: %.0f B per node", bytes)
	if bytes > budget {
		t.Errorf("an election run allocates %.0f B per node, budget %.0f", bytes, budget)
	}
}

// sparseElection is the repo benchmark's ring-sparse-100k election at n
// nodes: A0 = 1/n and a tick every n time units, so a run is a few events
// and about two messages per node.
func sparseElection(n int) Election {
	return Election{A0: 1 / float64(n), TickInterval: float64(n)}
}

// sparseRun builds, for allocbudget, a whole sparseElection run at n nodes
// that must elect one leader.
func sparseRun(t *testing.T) func(n int) func() {
	return func(n int) func() {
		return func() {
			rep, err := Run(Env{N: n, Seed: 1}, sparseElection(n))
			if err != nil {
				t.Fatal(err)
			}
			if rep.Leaders != 1 {
				t.Fatalf("%d leaders, want 1", rep.Leaders)
			}
		}
	}
}

// TestElectionAllocatesNoObjectPerMessage holds a whole election run in the
// ring-sparse shape to the same heap objects at n = 10³ and 10⁴, on the cold
// path and on the warm one: every token a correct run sends is an entry of
// the one table of n epoch-0 tokens the ring lays out at its first send: 45
// objects at both sizes on the cold path, 33 once the run's arrays come from
// the runs before it, where a token boxed per send read 2 043 and 20 043
// (cold). A twin run at n = 10³ whose nodes log
// each token delivered to them sees every token point into that table, at
// the entry of its hop, and every entry still reads {Hop: i+1, Epoch: 0}
// after the run: nothing writes through a token.
func TestElectionAllocatesNoObjectPerMessage(t *testing.T) {
	for _, path := range []struct {
		name    string
		objects func(build func(n int) func()) (small, large float64)
	}{{"cold", allocbudget.ObjectsCold}, {"warm", allocbudget.Objects}} {
		small, large := path.objects(sparseRun(t))
		t.Logf("runner.Run(Election) in the ring-sparse shape, %s: %.0f objects at n = 10³, %.0f at 10⁴", path.name, small, large)
		if small != large {
			t.Errorf("an election run allocates %.0f objects at n = 10³ and %.0f at 10⁴ on the %s path: something per message or node", small, large, path.name)
		}
	}

	const n = 1_000
	env := Env{N: n, Seed: 1}
	s, err := check(env, sparseElection(n))
	if err != nil {
		t.Fatal(err)
	}
	env.Graph = s.graph()
	cfg, err := sparseElection(n).config(env, n)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := newElectionRing(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	log := &tokenLog{first: make([]*core.HopMessage, n+1)}
	proto := ring.protocol()
	spawn := proto.makeNode
	proto.makeNode = func(i, sendPort int) (network.Node, error) {
		node, err := spawn(i, sendPort)
		return tokenSpy{node, log}, err
	}
	rep, err := runNetwork(env, proto)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Leaders != 1 || log.first[1] == nil || log.split != 0 {
		t.Fatalf("%d leaders, first token %v, %d deliveries of a hop as a second token", rep.Leaders, log.first[1], log.split)
	}
	table := unsafe.Slice(log.first[1], n) // a run sends ⟨1⟩ first, the table's first entry
	for h, tok := range log.first[1:] {
		if tok != nil && tok != &table[h] {
			t.Errorf("the token of hop %d is not the table's entry %d", h+1, h)
		}
	}
	for i, tok := range table {
		if tok != (core.HopMessage{Hop: int32(i) + 1}) {
			t.Fatalf("after the run, table entry %d reads %+v", i, tok)
		}
	}
}

// tokenLog is what a ring's tokenSpies saw delivered.
type tokenLog struct {
	first []*core.HopMessage // first[h]: the first token of hop h delivered
	split int                // deliveries of a hop as another token than its first
}

// tokenSpy hands each delivery on to its election node, after logging which
// token it carries.
type tokenSpy struct {
	network.Node
	log *tokenLog
}

func (s tokenSpy) OnMessage(ctx *network.Context, port int, payload any) {
	tok := payload.(*core.HopMessage)
	if first := s.log.first[tok.Hop]; first == nil {
		s.log.first[tok.Hop] = tok
	} else if first != tok {
		s.log.split++
	}
	s.Node.OnMessage(ctx, port, payload)
}

// TestStandaloneElectionAllocationBudget holds a network of 10⁴ standalone
// core.NewElectionNode nodes, built and run as the repo benchmark's replica
// builds its ring-sparse unit, to the bytes it allocated when every node's
// tokens were boxed per send, on the cold path (the replica never releases
// its network, so it takes from the pools only what runs before it left). A ring's params lay out a table of n tokens; a
// standalone node's own params must not, or this network would hold n
// tables, n²·8 bytes. Measured: 2 838 792 B (2 998 808 B under the race
// detector), at this change as before it, and that is the budget.
func TestStandaloneElectionAllocationBudget(t *testing.T) {
	const n = 10_000
	bytes, _ := allocbudget.RunCold(func() {
		nodes := make([]*core.ElectionNode, n)
		net, err := network.New(network.Config{
			Graph:     topology.Ring(n),
			Links:     channel.RandomDelayFactory(dist.NewExponential(1)),
			Seed:      1,
			Anonymous: true,
		}, func(i int) network.Node {
			node, err := core.NewElectionNode(core.ElectionNodeConfig{
				RingSize:     n,
				A0:           1 / float64(n),
				TickInterval: n,
				StopOnLeader: true,
			})
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
	budget := uint64(2_838_792)
	if allocbudget.Race {
		budget = 2_998_808
	}
	t.Logf("a network of %d standalone election nodes allocates %d B over construction and a run", n, bytes)
	if bytes > budget {
		t.Errorf("a network of %d standalone election nodes allocates %d B, budget %d", n, bytes, budget)
	}
}

// TestBenOrAllocationBudget holds a message path to a budget: one Ben-Or run
// on Complete(64) for 100 rounds, the repo benchmark's benor-complete-64
// unit, where each of 806 400 events is a message, on the cold path.
// Measured with the collector off: 732 824 B in 912 objects (732 840 B in 912 under
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
	bytes, objects := allocbudget.RunCold(func() {
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
// election on a ring of 64 under the calendar scheduler, on the cold path.
// Measured with the collector off: 50 304 B in 87 objects (50 352 B in 87
// under the race detector), the ring's tokens one table of 64. The wheel does not wrap: between two rebuilds the
// cursor passes each bucket once, so a bucket's storage is used for one
// window and then, drained, goes to a spare list that the next bucket to
// fill from empty takes from. Storage left in the drained buckets behind the
// cursor, with every bucket ahead growing its own from nil — 771 growths over
// 2 rebuilds — read 496 024 B in 959 objects. The budget is 52 000 B in 160
// objects (52 500 B in 160 under the race detector).
func TestCalendarAllocationBudget(t *testing.T) {
	bytes, objects := allocbudget.RunCold(func() {
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

// TestWarmElectionAllocationBudget holds a repeated election in the
// ring-sparse shape at n = 10⁴ to what a run costs once the runs before it
// have handed on their arrays: the node and link streams, the link rows, the
// node table, the run lane, the node slab, the ring the run builds from
// Env.N and its table of tokens all come from those runs, and what is left
// is a few thousand bytes of objects whose size does not depend on n.
// Measured: 3 120 B in 33 objects, 0.31 B per node (3 136 B under the
// race detector), against 1 887 328 B on the cold path; with the ring and
// the token table laid out per run, 248 880 B, 24.9 B per node. The budget
// is 0.325 B per node.
func TestWarmElectionAllocationBudget(t *testing.T) {
	bytes, objects := allocbudget.Run(sparseRun(t)(10_000))
	perNode := float64(bytes) / 10_000
	t.Logf("a repeated runner.Run(Election) on a ring of 10⁴: %d B in %d objects, %.3f B per node", bytes, objects, perNode)
	if perNode > 0.325 {
		t.Errorf("a repeated election run allocates %.3f B per node, budget 0.325", perNode)
	}
}

// TestWarmElectionAllocatesNothingPerNode holds a repeated election in the
// ring-sparse shape to the same bytes at n = 10³ and 10⁴, not only the same
// objects: once the runs before it have handed on their arrays — the ring's
// CSR and its token table among them — a run lays out nothing whose size
// grows with the network. Measured: 3 120 B at both sizes; with the ring and
// the token table laid out per run, 27 696 and 248 880 B.
func TestWarmElectionAllocatesNothingPerNode(t *testing.T) {
	small, _ := allocbudget.Run(sparseRun(t)(1_000))
	large, _ := allocbudget.Run(sparseRun(t)(10_000))
	t.Logf("a repeated runner.Run(Election) in the ring-sparse shape: %d B at n = 10³, %d B at 10⁴", small, large)
	if small != large {
		t.Errorf("a repeated election run allocates %d B at n = 10³ and %d B at 10⁴: something laid out per node", small, large)
	}
}

// TestWarmBenOrAllocationBudget holds a repeated Ben-Or run on Complete(64),
// the benor-complete-64 unit, to what it costs once the runs before it have
// handed on their arrays: the kernel's loaded heap and the slice and pages
// its opening burst was staged in, the store's rows and slot pages, the
// network's streams and the graph's CSR come from those runs. Left is
// Ben-Or's own state — the nodes' round records (24 kB), the boxed votes
// (16 kB), the nodes (8 kB) — and a few kB of objects the network and the
// kernel lay out per run. Measured: 60 848 B in 814 objects (60 864 B
// under the race detector), against 732 824 B in 912 on the cold path;
// with the staging arrays (102 kB) and the CSR (50 kB) laid out per run,
// 214 712 B in 831. The budget is 62 500 B in 835 objects.
func TestWarmBenOrAllocationBudget(t *testing.T) {
	bytes, objects := allocbudget.Run(func() {
		if _, err := Run(Env{N: 64, MaxRounds: 100, Seed: 1}, BenOr{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("a repeated runner.Run(BenOr) on Complete(64), 100 rounds: %d B in %d objects", bytes, objects)
	if bytes > 62_500 || objects > 835 {
		t.Errorf("a repeated ben-or run allocates %d B in %d objects, budget 62 500 B in 835", bytes, objects)
	}
}
