package runner

import (
	"testing"
	"unsafe"

	"abenet/internal/core"
	"abenet/internal/network"
)

// sparseElection is the repo benchmark's ring-sparse-100k election at n
// nodes: A0 = 1/n and a tick every n time units, so a run is a few events
// and about two messages per node.
func sparseElection(n int) Election {
	return Election{A0: 1 / float64(n), TickInterval: float64(n)}
}

// TestElectionAllocatesNoObjectPerMessage: every token a correct election
// run sends is an entry of the one table of n epoch-0 tokens the ring lays
// out at its first send, so a run allocates no object per message (its
// objects, the same at n = 10³ and 10⁴, are rows of testdata/alloc.golden at
// the module root). A run at n = 10³ in the ring-sparse shape whose nodes
// log each token delivered to them sees every token point into that table,
// at the entry of its hop, and every entry still reads {Hop: i+1, Epoch: 0}
// after the run: nothing writes through a token.
func TestElectionAllocatesNoObjectPerMessage(t *testing.T) {
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
