package synchronizer

import (
	"testing"

	"abenet/internal/simtime"
	"abenet/internal/syncnet"
	"abenet/internal/topology"
)

// TestBFSOverSynchronizers runs the synchronous BFS protocol over each
// message-driven synchronizer on an ABE network and checks the distances
// match the graph's true BFS — synchronous semantics preserved for a
// protocol that is not an election.
func TestBFSOverSynchronizers(t *testing.T) {
	g := topology.Hypercube(4)
	_, want := g.BFSTree(0)
	for _, kind := range []Kind{KindRound, KindAlpha, KindBeta, KindGamma} {
		nodes := make([]*syncnet.BFSNode, g.N())
		_, err := Run(onNetwork(g, 3), Options{Kind: kind, MaxRounds: 64}, simtime.Forever, 0, func(i int) syncnet.Node {
			nodes[i] = syncnet.NewBFSNode(i == 0)
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
		nodes := make([]*syncnet.BFSNode, g.N())
		res, err := Run(onNetwork(g, 4), Options{Kind: kind, MaxRounds: 20}, simtime.Forever, 0, func(i int) syncnet.Node {
			nodes[i] = syncnet.NewBFSNode(i == 0)
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
