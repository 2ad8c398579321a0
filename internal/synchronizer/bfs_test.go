package synchronizer

import (
	"fmt"
	"testing"

	"abenet/internal/rng"
	"abenet/internal/simtime"
	"abenet/internal/topology"
)

// bfsAnnounce is the BFS protocol's only message: the sender's distance
// from the root.
type bfsAnnounce struct {
	Dist int
}

// bfsNode is synchronous breadth-first spanning-tree construction: the root
// announces distance 0 in round 0; every node adopts the first announced
// distance + 1 it hears and re-announces once. In a synchronous network this
// computes exact BFS distances in diameter+1 rounds with one message per
// edge overall in each direction — synchronous semantics checked on a
// protocol that is not an election. It never stops the network itself:
// the round budget is its exit.
type bfsNode struct {
	root bool

	// Dist is the computed distance from the root; -1 until known.
	Dist int
	// DecidedRound is the round in which Dist was fixed; -1 until known.
	DecidedRound int
}

func newBFSNode(root bool) *bfsNode {
	return &bfsNode{root: root, Dist: -1, DecidedRound: -1}
}

// Round implements Node.
func (p *bfsNode) Round(ctx NodeContext, round int, inbox []Message) {
	if round == 0 && p.root {
		p.Dist = 0
		p.DecidedRound = 0
		p.announce(ctx)
		return
	}
	if p.Dist >= 0 {
		return // already decided; BFS announcements are one-shot
	}
	for _, m := range inbox {
		a, ok := m.Payload.(bfsAnnounce)
		if !ok {
			panic(fmt.Sprintf("foreign payload %T in BFS", m.Payload))
		}
		if p.Dist == -1 || a.Dist+1 < p.Dist {
			p.Dist = a.Dist + 1
		}
	}
	if p.Dist >= 0 {
		p.DecidedRound = round
		p.announce(ctx)
	}
}

func (p *bfsNode) announce(ctx NodeContext) {
	for port := 0; port < ctx.OutDegree(); port++ {
		ctx.Send(port, bfsAnnounce{Dist: p.Dist})
	}
}

// runBFS runs BFS from root in the lock-step model for the given number of
// rounds and returns the nodes.
func runBFS(t *testing.T, g *topology.Graph, root, rounds int) []*bfsNode {
	t.Helper()
	nodes := make([]*bfsNode, g.N())
	_, err := Run(lockStep(g, 1), Options{Kind: KindClock, Period: 1, MaxRounds: rounds}, simtime.Forever, 0, func(i int) Node {
		nodes[i] = newBFSNode(i == root)
		return nodes[i]
	})
	if err == nil {
		t.Fatal("BFS never stops, yet the round budget was not reported")
	}
	return nodes
}

// checkDistances compares the nodes' distances with the graph's BFS.
func checkDistances(t *testing.T, name string, g *topology.Graph, nodes []*bfsNode) {
	t.Helper()
	_, want := g.BFSTree(0)
	for v := range want {
		if nodes[v].Dist != want[v] {
			t.Errorf("%s: node %d distance %d, want %d", name, v, nodes[v].Dist, want[v])
		}
	}
}

func TestBFSComputesExactDistances(t *testing.T) {
	graphs := map[string]*topology.Graph{
		"line":      topology.Line(7),
		"biring":    topology.BiRing(9),
		"star":      topology.Star(6),
		"complete":  topology.Complete(5),
		"hypercube": topology.Hypercube(4),
		"torus":     topology.Torus(3, 4),
	}
	for name, g := range graphs {
		checkDistances(t, name, g, runBFS(t, g, 0, g.N()+2))
	}
}

func TestBFSOnRandomGraphs(t *testing.T) {
	root := rng.New(11)
	for trial := 0; trial < 10; trial++ {
		n := 3 + root.Intn(20)
		g := topology.RandomConnected(n, 0.15, root.Derive("g"))
		checkDistances(t, fmt.Sprintf("trial %d", trial), g, runBFS(t, g, 0, n+2))
	}
}

func TestBFSDecidesInDistanceRounds(t *testing.T) {
	for v, node := range runBFS(t, topology.Line(6), 0, 10) {
		if node.DecidedRound != v {
			t.Fatalf("node %d decided in round %d, want %d", v, node.DecidedRound, v)
		}
	}
}

// TestBFSOverSynchronizers runs the synchronous BFS protocol over each
// message-driven synchronizer on an ABE network and checks the distances
// match the graph's true BFS — synchronous semantics preserved for a
// protocol that is not an election.
func TestBFSOverSynchronizers(t *testing.T) {
	g := topology.Hypercube(4)
	_, want := g.BFSTree(0)
	for _, kind := range []Kind{KindRound, KindAlpha, KindBeta, KindGamma} {
		nodes := make([]*bfsNode, g.N())
		_, err := Run(onNetwork(g, 3), Options{Kind: kind, MaxRounds: 64}, simtime.Forever, 0, func(i int) Node {
			nodes[i] = newBFSNode(i == 0)
			return nodes[i]
		})
		// The BFS protocol never stops the network itself; hitting the
		// round budget is the expected exit.
		if err == nil {
			t.Fatalf("%v: expected round-budget exit for non-terminating protocol", kind)
		}
		for v, node := range nodes {
			if node.Dist != want[v] {
				t.Fatalf("%v: node %d distance %d, want %d", kind, v, node.Dist, want[v])
			}
		}
	}
}

// TestBFSDecisionLatencyByKind compares how many rounds each synchronizer
// needed — all identical (the round structure is what synchronizers
// preserve), while their message costs differ.
func TestBFSDecisionLatencyByKind(t *testing.T) {
	g := topology.BiRing(10)
	costs := map[Kind]float64{}
	for _, kind := range []Kind{KindRound, KindAlpha, KindBeta} {
		nodes := make([]*bfsNode, g.N())
		res, err := Run(onNetwork(g, 4), Options{Kind: kind, MaxRounds: 20}, simtime.Forever, 0, func(i int) Node {
			nodes[i] = newBFSNode(i == 0)
			return nodes[i]
		})
		if err == nil {
			t.Fatalf("%v: expected budget exit", kind)
		}
		for v, node := range nodes {
			wantRound := node.Dist
			if node.DecidedRound != wantRound {
				t.Fatalf("%v: node %d decided at round %d, want %d", kind, v, node.DecidedRound, wantRound)
			}
		}
		costs[kind] = res.MessagesPerRound
	}
	if !(costs[KindRound] < costs[KindBeta] && costs[KindBeta] < costs[KindAlpha]) {
		// On a sparse bidirectional ring: round = |E| = 2n = 20/round;
		// beta = payload+ack+tree <= ~2·payload + 2(n-1); alpha = 3|E|.
		t.Logf("per-round costs: %v (ordering depends on payload density)", costs)
	}
	for kind, c := range costs {
		if c < float64(g.N()) {
			t.Fatalf("%v: %.1f msgs/round below Theorem 1 bound %d", kind, c, g.N())
		}
	}
}
