package synchronizer

import (
	"strings"
	"testing"

	"abenet/internal/rng"
	"abenet/internal/simtime"
	"abenet/internal/topology"
)

func runGamma(t *testing.T, g *topology.Graph, radius, limit int, seed uint64) (Result, []*counterProto) {
	t.Helper()
	protos := make([]*counterProto, g.N())
	res, err := Run(onNetwork(g, seed), Options{Kind: KindGamma, ClusterRadius: radius}, simtime.Forever, 0, func(i int) Node {
		protos[i] = &counterProto{limit: limit}
		return protos[i]
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, protos
}

func TestGammaPreservesSynchronousSemantics(t *testing.T) {
	for _, radius := range []int{1, 2, 4} {
		res, protos := runGamma(t, topology.BiRing(9), radius, 8, 1)
		if !res.Stopped {
			t.Fatalf("radius %d: run did not stop: %+v", radius, res)
		}
		for i, p := range protos {
			if len(p.inboxes) < 6 {
				t.Fatalf("radius %d: node %d ran only %d rounds", radius, i, len(p.inboxes))
			}
			for r := 1; r < len(p.inboxes); r++ {
				inbox := p.inboxes[r]
				if len(inbox) != 2 {
					t.Fatalf("radius %d: node %d round %d inbox size %d, want 2", radius, i, r, len(inbox))
				}
				for _, m := range inbox {
					v, ok := m.Payload.(int)
					if !ok || v != r-1 {
						t.Fatalf("radius %d: node %d round %d payload %v, want %d", radius, i, r, m.Payload, r-1)
					}
				}
			}
		}
	}
}

func TestGammaOnVariousTopologies(t *testing.T) {
	graphs := map[string]*topology.Graph{
		"biring12":   topology.BiRing(12),
		"complete7":  topology.Complete(7),
		"hypercube4": topology.Hypercube(4),
		"torus3x4":   topology.Torus(3, 4),
		"star9":      topology.Star(9),
	}
	for name, g := range graphs {
		res, _ := runGamma(t, g, 2, 10, 2)
		if !res.Stopped {
			t.Fatalf("%s: did not stop: %+v", name, res)
		}
		if res.MessagesPerRound < float64(g.N())-1e-9 {
			t.Errorf("%s: %.2f msgs/round < n = %d — Theorem 1 bound broken",
				name, res.MessagesPerRound, g.N())
		}
	}
}

func TestGammaOnRandomGraphs(t *testing.T) {
	root := rng.New(17)
	for trial := 0; trial < 8; trial++ {
		n := 4 + root.Intn(20)
		g := topology.RandomConnected(n, 0.2, root.Derive("g"))
		res, _ := runGamma(t, g, 1+root.Intn(3), 8, uint64(trial))
		if !res.Stopped {
			t.Fatalf("trial %d (n=%d): did not stop: %+v", trial, n, res)
		}
	}
}

func TestGammaLargeRadiusReducesToBeta(t *testing.T) {
	// With radius >= diameter there is a single cluster: γ's cost should
	// equal β's exactly for the same workload.
	g := topology.BiRing(8)
	gammaRes, _ := runGamma(t, g, 10, 20, 3)
	betaRes, _ := runCounter(t, KindBeta, g, 20, 3)
	if gammaRes.MessagesPerRound != betaRes.MessagesPerRound {
		t.Fatalf("single-cluster γ (%.2f/round) differs from β (%.2f/round)",
			gammaRes.MessagesPerRound, betaRes.MessagesPerRound)
	}
}

func TestGammaInterpolatesBetweenAlphaAndBeta(t *testing.T) {
	// γ pays per tree edge and per adjacent cluster pair instead of α's
	// per-edge safe broadcast, so it wins where the graph is dense. Build
	// two 8-cliques joined by a bridge: radius-1 clustering yields two
	// clusters, and γ must land between β (single global tree) and α
	// (3 messages per edge).
	var edges []topology.Edge
	bi := func(u, v int) { edges = append(edges, topology.Edge{From: u, To: v}, topology.Edge{From: v, To: u}) }
	for a := 0; a < 8; a++ {
		for b := a + 1; b < 8; b++ {
			bi(a, b)
			bi(a+8, b+8)
		}
	}
	bi(0, 8)
	g := topology.FromEdges(16, edges)
	alphaRes, _ := runCounter(t, KindAlpha, g, 12, 4)
	betaRes, _ := runCounter(t, KindBeta, g, 12, 4)
	gammaRes, _ := runGamma(t, g, 1, 12, 4)
	if gammaRes.MessagesPerRound >= alphaRes.MessagesPerRound {
		t.Fatalf("γ (%.1f/round) should beat α (%.1f/round) on dense graphs",
			gammaRes.MessagesPerRound, alphaRes.MessagesPerRound)
	}
	if gammaRes.MessagesPerRound < betaRes.MessagesPerRound*0.95 {
		t.Fatalf("γ (%.1f/round) implausibly below β (%.1f/round)",
			gammaRes.MessagesPerRound, betaRes.MessagesPerRound)
	}
}

func TestGammaRejectsUnidirectionalGraphs(t *testing.T) {
	_, err := Run(onNetwork(topology.Ring(4), 0), Options{Kind: KindGamma}, simtime.Forever, 0,
		func(int) Node { return &counterProto{limit: 2} })
	if err == nil {
		t.Fatal("gamma on a unidirectional ring accepted")
	}
	// The rejection names the kind that was asked for, not α.
	if !strings.Contains(err.Error(), "gamma needs a bidirectional graph") {
		t.Fatalf("rejection %q does not name gamma", err)
	}
}

func TestGammaBFSOverIt(t *testing.T) {
	g := topology.Hypercube(3)
	_, want := g.BFSTree(0)
	nodes := make([]*bfsNode, g.N())
	_, err := Run(onNetwork(g, 5), Options{Kind: KindGamma, MaxRounds: 32}, simtime.Forever, 0, func(i int) Node {
		nodes[i] = newBFSNode(i == 0)
		return nodes[i]
	})
	if err == nil {
		t.Fatal("expected round-budget exit for non-terminating protocol")
	}
	for v, node := range nodes {
		if node.Dist != want[v] {
			t.Fatalf("node %d distance %d, want %d", v, node.Dist, want[v])
		}
	}
}
