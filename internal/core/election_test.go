package core

import (
	"fmt"
	"math"
	"testing"
	"unsafe"
)

func TestA0ForRing(t *testing.T) {
	if got, want := DefaultA0(10), 0.01; math.Abs(got-want) > 1e-12 {
		t.Fatalf("DefaultA0(10) = %v, want %v", got, want)
	}
	// Clamped into (0, 1/2].
	if got := A0ForRing(2, 0.001, 1, 100); got != 0.5 {
		t.Fatalf("clamp failed: %v", got)
	}
	// Scales inversely with delta, proportionally with tick and c.
	base := A0ForRing(32, 1, 1, 1)
	if got := A0ForRing(32, 2, 1, 1); math.Abs(got-base/2) > 1e-15 {
		t.Fatalf("delta scaling wrong: %v vs %v", got, base/2)
	}
	if got := A0ForRing(32, 1, 1, 2); math.Abs(got-2*base) > 1e-15 {
		t.Fatalf("c scaling wrong: %v vs %v", got, 2*base)
	}
	mustPanicCore(t, func() { A0ForRing(1, 1, 1, 1) })
	mustPanicCore(t, func() { A0ForRing(4, 0, 1, 1) })
	mustPanicCore(t, func() { A0ForRing(4, 1, 0, 1) })
	mustPanicCore(t, func() { A0ForRing(4, 1, 1, 0) })
}

func mustPanicCore(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

func TestActivationProbabilityFormula(t *testing.T) {
	// At d = 1 the probability skips math.Pow: the very bits 1−(1−A0)^1
	// computes, for any A0.
	for _, a0 := range []float64{0.3, 0.1, 1e-10, DefaultA0(7), DefaultA0(100_000), 0.5, math.Nextafter(1, 0), math.SmallestNonzeroFloat64} {
		node, err := NewElectionNode(ElectionNodeConfig{RingSize: 8, A0: a0})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := node.ActivationProbability(), 1-math.Pow(1-a0, 1); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("A0 = %g, d = 1: p = %v, want %v", a0, got, want)
		}
	}
	node, err := NewElectionNode(ElectionNodeConfig{RingSize: 8, A0: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	node.d = 3
	want := 1 - math.Pow(0.7, 3)
	if got := node.ActivationProbability(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("d=3: p = %v, want %v", got, want)
	}
	node.d = 8
	if got := node.ActivationProbability(); got <= 1-math.Pow(0.7, 3) || got >= 1 {
		t.Fatalf("d=8: p = %v must grow with d but stay below 1", got)
	}
}

func TestActivationProbabilityConstantUnderAblation(t *testing.T) {
	node, err := NewElectionNode(ElectionNodeConfig{RingSize: 8, A0: 0.3, ConstantActivation: true})
	if err != nil {
		t.Fatal(err)
	}
	node.d = 5
	if got := node.ActivationProbability(); got != 0.3 {
		t.Fatalf("ablated p = %v, want constant 0.3", got)
	}
}

func TestInitialNodeState(t *testing.T) {
	node, err := NewElectionNode(ElectionNodeConfig{RingSize: 4, A0: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if node.State() != Idle {
		t.Fatalf("initial state = %v", node.State())
	}
	if node.D() != 1 {
		t.Fatalf("initial d = %d", node.D())
	}
}

func TestNewElectionNodeValidation(t *testing.T) {
	huge := math.MaxInt32
	huge++ // past the 32-bit node numbering
	cases := []ElectionNodeConfig{
		{RingSize: 1, A0: 0.5},
		{RingSize: 4, A0: 0},
		{RingSize: 4, A0: 1},
		{RingSize: 4, A0: -0.5},
		{RingSize: 4, A0: 0.5, TickInterval: -1},
		{RingSize: 4, A0: 0.5, TickInterval: math.Inf(1)},
		{RingSize: 4, A0: 0.5, SendPort: -1},
		{RingSize: huge, A0: 0.5},
	}
	for _, cfg := range cases {
		if _, err := NewElectionNode(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

// TestElectionNodeLayout pins what an election node costs: at most 32 B — a
// pointer to its ring's shared ElectionParams, a pointer to its NodeExtra, a
// 32-bit send port and d and a one-byte state, no counter of its own, since
// the ring's Tally is in the params — and NewElectionNode one heap object, the
// node and its own params together: the params, with their pointer to a
// ring's token table, stay within 80 B, so that object stays 112 B. A
// paper-default node has no NodeExtra until it records a violation; a
// re-candidacy node has one from the start, the slab entry its ring hands
// Node, reset there.
func TestElectionNodeLayout(t *testing.T) {
	if size := unsafe.Sizeof(ElectionNode{}); size > 32 {
		t.Errorf("ElectionNode is %d B, budget 32", size)
	}
	if size := unsafe.Sizeof(ElectionParams{}); size > 80 {
		t.Errorf("ElectionParams is %d B, budget 80", size)
	}
	var node *ElectionNode
	allocs := testing.AllocsPerRun(100, func() {
		node, _ = NewElectionNode(ElectionNodeConfig{RingSize: 8, A0: 0.3, SendPort: 2})
	})
	if allocs != 1 {
		t.Errorf("NewElectionNode allocates %g objects, want 1", allocs)
	}
	if node.State() != Idle || node.D() != 1 || node.sendPort != 2 || node.params.ringSize != 8 || node.extra != nil {
		t.Fatalf("NewElectionNode built %+v with params %+v", *node, *node.params)
	}
	node.OnMessage(nil, 0, &HopMessage{Hop: 9})
	if node.extra == nil || len(node.Violations()) != 1 {
		t.Fatalf("a violation left NodeExtra %+v", node.extra)
	}

	params, err := NewElectionParams(ElectionNodeConfig{RingSize: 8, A0: 0.3, RecandidacyTimeout: 50})
	if err != nil {
		t.Fatal(err)
	}
	slab := []NodeExtra{{epoch: 3, recandidacies: 2, violations: []string{"stale"}}}
	slot, err := params.Node(1, &slab[0])
	if err != nil {
		t.Fatal(err)
	}
	if slot.extra != &slab[0] || slab[0].epoch != 0 || slot.Recandidacies() != 0 || slot.Violations() != nil {
		t.Fatalf("Node kept the slab entry %+v as %p, want a reset &slab[0]", slab[0], slot.extra)
	}
	if own, _ := params.Node(1, nil); own.extra == nil || own.extra == &slab[0] {
		t.Fatalf("a re-candidacy node without a slab entry has NodeExtra %p", own.extra)
	}
}

// TestTokenPrintsAsItsValue: a trace records a payload as %+v prints it, and
// a token prints the same as a value, as an entry of a ring's table and as an
// allocated token of a later epoch. Only a ring's params hand out table
// entries — the same pointer each time, n of them, one per hop — while a
// standalone node's own params and a hop past n allocate.
func TestTokenPrintsAsItsValue(t *testing.T) {
	ring, err := NewElectionParams(ElectionNodeConfig{RingSize: 8, A0: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		payload any
		want    string
	}{
		{HopMessage{Hop: 3}, "{Hop:3 Epoch:0}"},
		{ring.token(3, 0), "{Hop:3 Epoch:0}"},
		{ring.token(3, 1), "{Hop:3 Epoch:1}"},
	} {
		if got := fmt.Sprintf("%+v", c.payload); got != c.want {
			t.Errorf("%%+v of a %T token = %q, want %q", c.payload, got, c.want)
		}
	}

	if ring.token(3, 0) != ring.token(3, 0) || ring.token(3, 1) == ring.token(3, 1) || ring.token(9, 0) == ring.token(9, 0) {
		t.Error("a ring's epoch-0 token is not one table entry, or another token is")
	}
	if len(*ring.tokens) != 8 {
		t.Fatalf("a ring of 8 laid out %d tokens", len(*ring.tokens))
	}
	for i, tok := range *ring.tokens {
		if tok != (HopMessage{Hop: int32(i) + 1}) || ring.token(int32(i)+1, 0) != &(*ring.tokens)[i] {
			t.Fatalf("table entry %d reads %+v", i, tok)
		}
	}
	node, err := NewElectionNode(ElectionNodeConfig{RingSize: 8, A0: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if node.params.token(3, 0) == node.params.token(3, 0) || node.params.tokens != nil {
		t.Error("a standalone node's params keep a token table")
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		Idle: "idle", Active: "active", Passive: "passive", Leader: "leader",
	} {
		if got := s.String(); got != want {
			t.Fatalf("State(%d).String() = %q, want %q", int(s), got, want)
		}
	}
	if got := State(0).String(); got != "state(0)" {
		t.Fatalf("unknown state string = %q", got)
	}
}
