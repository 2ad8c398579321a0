package consensus

import (
	"strings"
	"testing"

	"abenet/internal/byzantine"
	"abenet/internal/channel"
	"abenet/internal/dist"
	"abenet/internal/faults"
	"abenet/internal/network"
	"abenet/internal/rng"
	"abenet/internal/simtime"
	"abenet/internal/topology"
)

// TestConsensusRejectsBadConfigs pins the constructor errors.
func TestConsensusRejectsBadConfigs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		graph *topology.Graph
		cfg   Config
		want  string
	}{
		{"nil graph", nil, Config{}, "needs a graph"},
		{"ring topology", topology.Ring(8), Config{}, "complete topology"},
		{"f too large", topology.Complete(8), Config{F: 3}, "3f < n"},
		{"negative f", topology.Complete(8), Config{F: -1}, "3f < n"},
		{"negative rounds", topology.Complete(4), Config{MaxRounds: -1}, "must be positive"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.cfg, tc.graph, 1, nil)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("New = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestCorruptibleMsg pins the forgery surface: a corrupted message keeps
// phase and round (so it still parses) and claims a bit value.
func TestCorruptibleMsg(t *testing.T) {
	m := Msg{Phase: 2, Round: 7, Value: Unknown}
	var c any = m
	if _, ok := c.(byzantine.Corruptible); !ok {
		t.Fatal("Msg must implement byzantine.Corruptible")
	}
	forged := m.Corrupt(rng.New(42)).(Msg)
	if forged.Phase != 2 || forged.Round != 7 {
		t.Fatalf("forgery changed the envelope: %+v", forged)
	}
	if forged.Value != 0 && forged.Value != 1 {
		t.Fatalf("forged value %d, want a bit", forged.Value)
	}
	if m.Value != Unknown {
		t.Fatal("Corrupt mutated the original message")
	}
}

// TestRoundWindowStaysBounded: a node holds a row per round still in flight —
// from its own round to the furthest round any node has sent for — and
// nothing for a round it has completed, however late that round's last
// values arrive (up to f per phase always do, duplicates on top here). The
// run is 100 rounds long because nobody stops it at the decision: deciders
// keep relaying up to MaxRounds.
//
// Mid-run, one node is handed a value for the last round — what a Byzantine
// sender may do at any time, and a valid message: an honest node may lag that
// far. The window stretches to it in 40-byte rows, and takes one table for it.
func TestRoundWindowStaysBounded(t *testing.T) {
	const n, rounds = 16, 100
	graph := topology.Complete(n)
	e, err := New(Config{F: 3, Init: InitHalf, MaxRounds: rounds}, graph, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	net, err := network.New(network.Config{
		Graph:  graph,
		Links:  channel.RandomDelayFactory(dist.NewExponential(1)),
		Seed:   1,
		Faults: &faults.Plan{Duplicate: 0.2},
	}, e.MakeNode)
	if err != nil {
		t.Fatal(err)
	}
	tables := func(nd *node) int {
		held := len(nd.spare)
		for _, row := range nd.rows {
			if row.vals != nil {
				held++
			}
		}
		return held
	}
	// far is the node holding a value for the last round, once there is one:
	// its window reaches that far, with one table more.
	check := func(when string, far *node) (lead int32) {
		t.Helper()
		for _, nd := range e.nodes {
			lead = max(lead, nd.round)
		}
		for _, nd := range e.nodes {
			reach, limit := lead, 4
			if nd == far {
				reach, limit = rounds, 5
			}
			if inFlight := int(reach-nd.round) + 1; len(nd.rows) > inFlight {
				t.Errorf("%s: node %d at round %d of %d holds %d rows, %d rounds in flight",
					when, nd.id, nd.round, reach, len(nd.rows), inFlight)
			}
			// Tables are made only when the rounds with values in hand
			// outnumber the tables recycled, so there are never more than
			// the widest such span.
			if held := tables(nd); held > limit {
				t.Errorf("%s: node %d holds %d round tables", when, nd.id, held)
			}
		}
		return lead
	}
	if err := net.Run(60, 0); err != nil {
		t.Fatal(err)
	}
	if lead := check("mid-run", nil); lead < 5 || lead >= rounds-10 {
		t.Fatalf("the mid-run check wants the run under way; lead round %d", lead)
	}
	victim := e.nodes[0]
	before := tables(victim)
	victim.OnMessage(nil, 0, Msg{Phase: 1, Round: rounds, Value: 0}) // advance has nothing to send on this
	if got, want := len(victim.rows), int(rounds-victim.round)+1; got != want {
		t.Errorf("a value for round %d at round %d: window of %d rows, want %d", rounds, victim.round, got, want)
	}
	if got := tables(victim); got > before+1 {
		t.Errorf("a value for round %d at round %d took %d tables, want at most 1", rounds, victim.round, got-before)
	}
	check("far-future value in hand", victim)
	if err := net.Kernel().Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	check("drained", victim)
	for _, nd := range e.nodes {
		if nd.round != rounds || !nd.halted {
			t.Fatalf("node %d stopped at round %d (halted %v), want all %d rounds", nd.id, nd.round, nd.halted, rounds)
		}
	}
}

// TestVotesAreBoxedOnce: every (round, phase, value) a node may broadcast is
// boxed as the Msg it names the first time it is asked for, and asking again
// allocates nothing; the boxes live in pages of voteRounds rounds.
func TestVotesAreBoxedOnce(t *testing.T) {
	e, err := New(Config{}, topology.Complete(4), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 2*voteRounds + 1
	all := func() {
		for round := int32(1); round <= rounds; round++ {
			for _, v := range []Msg{{1, round, 0}, {1, round, 1}, {2, round, Unknown}, {2, round, 0}, {2, round, 1}} {
				if got := e.vote(v.Phase, v.Round, v.Value); got != any(v) {
					t.Fatalf("vote(%d, %d, %d) = %v", v.Phase, v.Round, v.Value, got)
				}
			}
		}
	}
	all()
	if len(e.votes) != 3 {
		t.Fatalf("%d vote pages for %d rounds, want 3", len(e.votes), rounds)
	}
	if allocs := testing.AllocsPerRun(10, all); allocs != 0 {
		t.Fatalf("asking for boxed votes again allocates %g objects", allocs)
	}
}

// TestCommonCoinIsDerivedOnce: round r's common-coin bit is the coin
// stream's derivation for r, the same at every node, and a flip once the
// round's bit is known allocates nothing — the engine derives it once per
// round for every node and incarnation, not once per flip.
func TestCommonCoinIsDerivedOnce(t *testing.T) {
	const seed, n, rounds = 11, 4, 40
	e, err := New(Config{Coin: CoinCommon, MaxRounds: rounds}, topology.Complete(n), seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*node, n)
	for i := range nodes {
		nodes[i] = e.MakeNode(i).(*node)
	}
	coins := rng.New(rng.New(seed).Derive("consensus/coin").Uint64())
	for r := int32(1); r <= rounds; r++ {
		want := int8(coins.DeriveIndexed("round", int(r)).Uint64() & 1)
		for _, nd := range nodes {
			nd.round = r
			if got := nd.coinFlip(nil); got != want {
				t.Fatalf("node %d's coin in round %d = %d, want %d", nd.id, r, got, want)
			}
		}
	}
	flips := testing.AllocsPerRun(5, func() {
		for r := int32(1); r <= rounds; r++ {
			for _, nd := range nodes {
				nd.round = r
				nd.coinFlip(nil)
			}
		}
	})
	if flips != 0 {
		t.Errorf("%d flips over %d rounds allocate %.0f objects, want none", n*rounds, rounds, flips)
	}
}
