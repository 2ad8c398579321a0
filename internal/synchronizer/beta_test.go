package synchronizer

import (
	"fmt"
	"strings"
	"testing"

	"abenet/internal/dist"
	"abenet/internal/golden"
	"abenet/internal/simtime"
	"abenet/internal/topology"
)

func TestBetaPreservesSynchronousSemantics(t *testing.T) {
	res, protos := runCounter(t, KindBeta, topology.BiRing(5), 10, 1)
	if !res.Stopped {
		t.Fatalf("run did not stop: %+v", res)
	}
	for i, p := range protos {
		// β releases rounds globally, so all nodes stay within one round
		// of each other.
		if len(p.inboxes) < 9 {
			t.Fatalf("node %d ran only %d rounds", i, len(p.inboxes))
		}
		for r := 1; r < len(p.inboxes); r++ {
			inbox := p.inboxes[r]
			if len(inbox) != 2 {
				t.Fatalf("node %d round %d inbox size %d, want 2", i, r, len(inbox))
			}
			for _, m := range inbox {
				v, ok := m.Payload.(int)
				if !ok || v != r-1 {
					t.Fatalf("node %d round %d payload %v, want %d", i, r, m.Payload, r-1)
				}
			}
		}
	}
}

func TestBetaOnVariousTopologies(t *testing.T) {
	graphs := map[string]*topology.Graph{
		"biring8":    topology.BiRing(8),
		"complete6":  topology.Complete(6),
		"hypercube3": topology.Hypercube(3),
		"star8":      topology.Star(8),
		"line6":      topology.Line(6),
	}
	for name, g := range graphs {
		res, _ := runCounter(t, KindBeta, g, 12, 2)
		if !res.Stopped {
			t.Fatalf("%s: did not stop: %+v", name, res)
		}
		if res.MessagesPerRound < float64(g.N())-1e-9 {
			t.Errorf("%s: %.2f msgs/round < n = %d — Theorem 1 bound broken",
				name, res.MessagesPerRound, g.N())
		}
	}
}

func TestBetaCheaperThanAlphaOnDenseGraphs(t *testing.T) {
	g := topology.Complete(10) // |E| = 90 directed edges
	alphaRes, _ := runCounter(t, KindAlpha, g, 20, 3)
	betaRes, _ := runCounter(t, KindBeta, g, 20, 3)
	if betaRes.MessagesPerRound >= alphaRes.MessagesPerRound {
		t.Fatalf("beta (%.1f/round) should beat alpha (%.1f/round) on dense graphs",
			betaRes.MessagesPerRound, alphaRes.MessagesPerRound)
	}
}

func TestBetaCostFormula(t *testing.T) {
	// Heartbeat workload on biring(6): per round 12 payload envelopes +
	// 12 acks + 2*(6-1) tree messages = 34.
	g := topology.BiRing(6)
	res, _ := runCounter(t, KindBeta, g, 30, 4)
	want := 34.0
	if res.MessagesPerRound < want*0.9 || res.MessagesPerRound > want*1.15 {
		t.Fatalf("beta msgs/round = %.2f, want about %v", res.MessagesPerRound, want)
	}
}

func TestBetaRejectsUnidirectionalGraphs(t *testing.T) {
	_, err := Run(onNetwork(topology.Ring(4), 0), Options{Kind: KindBeta}, simtime.Forever, 0,
		func(int) Node { return &counterProto{limit: 2} })
	if err == nil {
		t.Fatal("beta on a unidirectional ring accepted")
	}
	// The rejection names the kind that was asked for, not α.
	if !strings.Contains(err.Error(), "beta needs a bidirectional graph") {
		t.Fatalf("rejection %q does not name beta", err)
	}
}

func TestBetaWithHeavyTailedDelays(t *testing.T) {
	protos := make([]*counterProto, 6)
	res, err := Run(onLinks(topology.BiRing(6), 5, dist.ParetoWithMean(1, 1.5)), Options{Kind: KindBeta}, simtime.Forever, 0, func(i int) Node {
		protos[i] = &counterProto{limit: 10}
		return protos[i]
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Fatalf("heavy tails broke beta: %+v", res)
	}
}

func TestBetaSparseProtocolSendsNoEmptyEnvelopes(t *testing.T) {
	// A silent protocol generates zero payloads; β's cost per round must
	// then be exactly the 2(n−1) tree messages, unlike round/α which pay
	// per edge regardless.
	g := topology.Complete(8)
	protos := make([]*silentProto, 8)
	res, err := Run(onNetwork(g, 6), Options{Kind: KindBeta}, simtime.Forever, 0, func(i int) Node {
		protos[i] = &silentProto{limit: 20}
		return protos[i]
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 2.0 * (8 - 1)
	if res.MessagesPerRound < want*0.9 || res.MessagesPerRound > want*1.2 {
		t.Fatalf("silent-beta msgs/round = %.2f, want about %v", res.MessagesPerRound, want)
	}
}

// silentProto never sends; it just counts rounds.
type silentProto struct{ limit, rounds int }

func (p *silentProto) Round(ctx NodeContext, round int, _ []Message) {
	p.rounds++
	if round >= p.limit {
		ctx.StopNetwork("done")
	}
}

// TestBetaGoldenResults pins β against the dedicated β node it replaced:
// testdata/beta_results.golden was recorded at the last commit that still had
// beta.go (PR 13), before KindBeta became γ with one unbounded-radius
// cluster. The heavy-tailed case is the one where go(r) overtakes go(r-1).
func TestBetaGoldenResults(t *testing.T) {
	var results strings.Builder
	for _, g := range []struct {
		name  string
		graph *topology.Graph
		seed  uint64
		delay dist.Dist
	}{
		{"biring8", topology.BiRing(8), 3, dist.NewExponential(1)},
		{"complete7", topology.Complete(7), 5, dist.NewExponential(1)},
		{"hypercube4", topology.Hypercube(4), 2, dist.NewExponential(1)},
		{"biring6-pareto", topology.BiRing(6), 5, dist.ParetoWithMean(1, 1.5)},
	} {
		got, err := Run(onLinks(g.graph, g.seed, g.delay), Options{Kind: KindBeta}, simtime.Forever, 0, func(int) Node {
			return &counterProto{limit: 20}
		})
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		fmt.Fprintf(&results, "%s %+v\n", g.name, got)
	}
	golden.Check(t, "beta_results.golden", results.String())
}
