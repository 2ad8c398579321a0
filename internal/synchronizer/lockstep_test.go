package synchronizer

import (
	"testing"

	"abenet/internal/dist"
	"abenet/internal/network"
	"abenet/internal/simtime"
	"abenet/internal/topology"
)

// lockStep states the synchronous model as runner.ItaiRodehSync runs it:
// under the clock synchronizer at period 1, links of delay ½ and perfect
// clocks land every message mid-round, so round r+1 sees exactly the
// messages of round r.
func lockStep(g *topology.Graph, seed uint64) network.Config {
	return onLinks(g, seed, dist.NewDeterministic(0.5))
}

// runLockStep runs makeNode's protocol in the lock-step model with the
// given round budget.
func runLockStep(g *topology.Graph, seed uint64, maxRounds int, makeNode func(i int) Node) (Result, error) {
	return Run(lockStep(g, seed), Options{Kind: KindClock, Period: 1, MaxRounds: maxRounds}, simtime.Forever, 0, makeNode)
}

// funcNode is a synchronous protocol given as a function.
type funcNode func(ctx NodeContext, round int, inbox []Message)

func (f funcNode) Round(ctx NodeContext, round int, inbox []Message) { f(ctx, round, inbox) }

// hopper forwards a counter once per round until it reaches 10.
type hopper struct {
	start bool
	got   []int
}

func (h *hopper) Round(ctx NodeContext, round int, inbox []Message) {
	if round == 0 && h.start {
		ctx.Send(0, 1)
		return
	}
	for _, m := range inbox {
		v := m.Payload.(int)
		h.got = append(h.got, v)
		if v >= 10 {
			ctx.StopNetwork("limit reached")
			return
		}
		ctx.Send(0, v+1)
	}
}

func TestTokenAdvancesOneHopPerRound(t *testing.T) {
	nodes := make([]*hopper, 4)
	res, err := runLockStep(topology.Ring(4), 1, 100, func(i int) Node {
		nodes[i] = &hopper{start: i == 0}
		return nodes[i]
	})
	if err != nil {
		t.Fatal(err)
	}
	// Token values 1..10 take 10 deliveries; one round each plus the
	// initial send round.
	if res.Rounds != 11 || res.Messages != 10 || res.StopCause != "limit reached" {
		t.Fatalf("rounds %d, messages %d, cause %q; want 11, 10, limit reached", res.Rounds, res.Messages, res.StopCause)
	}
	if res.Violations != 0 {
		t.Fatalf("%d late messages in the lock-step model", res.Violations)
	}
	// Node 1 receives the token at rounds 1, 5, 9 with values 1, 5, 9.
	if got := nodes[1].got; len(got) != 3 || got[0] != 1 || got[1] != 5 || got[2] != 9 {
		t.Fatalf("node 1 saw %v, want [1 5 9]", got)
	}
}

func TestRunBudgetErrors(t *testing.T) {
	if _, err := runLockStep(topology.Ring(3), 1, 3, func(i int) Node { return &hopper{start: i == 0} }); err == nil {
		t.Fatal("expected round-budget error")
	}
}

func TestSyncConfigValidation(t *testing.T) {
	if _, err := runLockStep(nil, 1, 10, func(int) Node { return &hopper{} }); err == nil {
		t.Fatal("missing graph accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("nil node accepted")
		}
	}()
	runLockStep(topology.Ring(2), 1, 10, func(int) Node { return nil })
}

func TestSyncAnonymityEnforced(t *testing.T) {
	cfg := lockStep(topology.Ring(2), 1)
	cfg.Anonymous = true
	defer func() {
		if recover() == nil {
			t.Fatal("anonymous ID read did not panic")
		}
	}()
	Run(cfg, Options{Kind: KindClock, Period: 1}, simtime.Forever, 0, func(int) Node {
		return funcNode(func(ctx NodeContext, _ int, _ []Message) { ctx.ID() })
	})
}

func TestRandStreamsIndependent(t *testing.T) {
	var draws [2]uint64
	runLockStep(topology.Ring(2), 5, 1, func(i int) Node {
		return funcNode(func(ctx NodeContext, _ int, _ []Message) { draws[i] = ctx.Rand().Uint64() })
	})
	if draws[0] == draws[1] {
		t.Fatal("two nodes drew identical random values")
	}
}

func TestSendOnBadPortPanics(t *testing.T) {
	runLockStep(topology.Ring(2), 1, 1, func(int) Node {
		return funcNode(func(ctx NodeContext, _ int, _ []Message) {
			defer func() {
				if recover() == nil {
					t.Error("bad port did not panic")
				}
			}()
			ctx.Send(3, "x")
		})
	})
}

func TestInPortNumbering(t *testing.T) {
	// On a bidirectional ring of 3, every node has 2 in-ports; messages
	// from distinct neighbours must arrive on distinct ports.
	ports := make([]map[int]bool, 3)
	runLockStep(topology.BiRing(3), 2, 2, func(i int) Node {
		ports[i] = make(map[int]bool)
		return funcNode(func(ctx NodeContext, round int, inbox []Message) {
			for p := 0; round == 0 && p < ctx.OutDegree(); p++ {
				ctx.Send(p, "hi")
			}
			for _, m := range inbox {
				ports[i][m.InPort] = true
			}
		})
	})
	for i, seen := range ports {
		if len(seen) != 2 {
			t.Fatalf("node %d saw ports %v, want 2 distinct", i, seen)
		}
	}
}
