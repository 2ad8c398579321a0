package network

import (
	"fmt"

	"abenet/internal/dist"
	"abenet/internal/faults"
	"abenet/internal/rng"
	"abenet/internal/simtime"
)

// lifecycle drives a faults.Plan against a running network: node up/down
// state, scripted events, stochastic crash/recovery processes, link outage
// state and the run's fault telemetry. A nil *lifecycle (Config.Faults ==
// nil) disables every hook, leaving the network byte-identical to a
// fault-free build.
type lifecycle struct {
	net  *Network
	plan *faults.Plan
	root *rng.Source // derived off the run root; never advanced elsewhere

	down    []bool // down[i]: node i is crashed
	crashed int    // how many down[i] are true
	// crashSeq[i] is kernel.ScheduleSeq() at node i's last crash: node work
	// whose event has a lower sequence number was scheduled by an earlier
	// incarnation and is suppressed (see Network.stale).
	crashSeq []uint64

	// Scripted outages are tracked per cause so a partition heal cannot
	// clobber an individually scripted link outage (and vice versa), and
	// the partition layer counts overlapping cuts so healing one
	// partition never raises an edge another still holds down. An edge is
	// down while either layer holds it.
	linkOut []bool // linkOut[e]: edge e is down via KindLinkDown
	cutOut  []int  // cutOut[e]: number of active partitions cutting edge e

	// openInterval[i] indexes tel.CrashIntervals while node i is down,
	// -1 otherwise.
	openInterval []int

	// impairRNG[e] is the stream edge e's per-message link faults are drawn
	// from and reorder the hold-back law; nil unless the plan has such faults.
	impairRNG []rng.Source
	reorder   dist.Dist

	// preInit is true while the t = 0 events run, before any node's Init:
	// a recovery in that window must not restart-and-Init a node that has
	// never run (Run's own Init loop is about to do it).
	preInit bool

	tel faults.Telemetry
}

// newLifecycle validates the plan against the graph and prepares the
// per-node state. Called from New after the topology is known but before
// links are wired (the caller sizes the per-edge state afterwards).
func newLifecycle(net *Network, plan *faults.Plan, root *rng.Source) (*lifecycle, error) {
	n := net.cfg.Graph.N()
	if err := plan.Validate(n); err != nil {
		return nil, err
	}
	// Explicit per-edge events must name edges the topology actually has:
	// a direction typo would otherwise validate clean and then no-op,
	// reporting a fault-free run as if the outage had happened. (Partition
	// groups legitimately cross non-adjacent pairs and stay unchecked.)
	for i, ev := range plan.Events {
		if ev.Kind != faults.KindLinkDown && ev.Kind != faults.KindLinkUp {
			continue
		}
		if !net.cfg.Graph.HasEdge(ev.From, ev.To) {
			return nil, fmt.Errorf("faults: event %d (%s at t=%g): edge %d->%d is not in the topology",
				i, ev.Kind, ev.At, ev.From, ev.To)
		}
	}
	life := &lifecycle{
		net:          net,
		plan:         plan,
		root:         root.Derive("faults"),
		down:         make([]bool, n),
		crashSeq:     make([]uint64, n),
		openInterval: make([]int, n),
	}
	for i := range life.openInterval {
		life.openInterval[i] = -1
	}
	return life, nil
}

// sizeLinkState allocates the per-edge outage layers and, under a plan with
// per-message link faults, the per-edge fault streams. Called once from New
// after the store is laid out. Each fault stream is derived off its edge's
// stream, which Derive does not advance and no link has sampled yet, so the
// links sample exactly as they would under no plan.
func (life *lifecycle) sizeLinkState() {
	life.linkOut = make([]bool, len(life.net.adj.Head))
	life.cutOut = make([]int, len(life.net.adj.Head))
	if !life.plan.HasLinkFaults() {
		return
	}
	life.impairRNG = make([]rng.Source, len(life.net.linkRNG))
	for e := range life.impairRNG {
		life.impairRNG[e] = *life.net.linkRNG[e].Derive("impair")
	}
	if life.reorder = life.plan.ReorderDelay; life.reorder == nil {
		life.reorder = dist.NewExponential(1)
	}
}

// impair draws the plan's per-message link faults for one message entering
// edge e: how many copies the link is to carry — 0 if lost, which on an ARQ
// link is loss the retransmission scheme cannot see; 2 if duplicated, each
// copy sampling its own delay, so duplicates also overtake — and whether they
// are first held back, which forces reorderings even on a FIFO link. The draw
// order is Loss, Duplicate, Reorder, hold; rng.Bool consumes nothing for
// p = 0, so a disabled axis leaves the stream untouched (replay stability
// across plans).
func (life *lifecycle) impair(e int) (copies int, held bool, hold simtime.Duration) {
	r, plan := &life.impairRNG[e], life.plan
	if r.Bool(plan.Loss) {
		life.tel.MessagesDropped++
		return 0, false, 0
	}
	copies = 1
	if r.Bool(plan.Duplicate) {
		life.tel.MessagesDuplicated++
		copies = 2
	}
	if held = r.Bool(plan.Reorder); held {
		life.tel.MessagesDelayed++
		hold = simtime.Duration(life.reorder.Sample(r))
	}
	return copies, held, hold
}

// edgeDown reports whether edge e is down for any cause.
func (life *lifecycle) edgeDown(e int) bool {
	return life.linkOut[e] || life.cutOut[e] > 0
}

// applyAtTimeZero applies the scripted events at t = 0 before any node
// runs Init: a node crashed from the very start must not send its Init
// messages, and a partition scripted from t = 0 must cut them. Called
// from Run ahead of the Init loop.
func (life *lifecycle) applyAtTimeZero() {
	life.preInit = true
	for _, ev := range life.plan.SortedEvents() {
		if ev.At == 0 {
			life.apply(ev)
		}
	}
	life.preInit = false
}

// install schedules the plan's scripted timeline (t > 0; instants at zero
// were applied by applyAtTimeZero) and the stochastic crash/recovery
// processes on the kernel. Called from Run before the kernel starts.
func (life *lifecycle) install() {
	for _, ev := range life.plan.SortedEvents() {
		if ev.At == 0 {
			continue
		}
		ev := ev
		life.net.kernel.AtFunc(simtime.Time(ev.At), func() { life.apply(ev) })
	}
	if life.plan.CrashRate > 0 {
		for i := 0; i < life.net.N(); i++ {
			life.scheduleCrash(i, life.root.DeriveIndexed("crash", i))
		}
	}
}

// scheduleCrash arms node i's next stochastic crash (and, under
// crash-recovery, the subsequent restart) using the node's private fault
// stream — the chain is deterministic regardless of event interleaving.
// The chain only recovers outages it caused: a crash attempt landing on a
// node already scripted down is a no-op and simply re-arms, so stochastic
// churn never cuts a scripted outage short.
func (life *lifecycle) scheduleCrash(i int, r *rng.Source) {
	wait := simtime.Duration(r.ExpFloat64() / life.plan.CrashRate)
	life.net.kernel.AfterFunc(wait, func() {
		if !life.crash(i) {
			life.scheduleCrash(i, r)
			return
		}
		if life.plan.RecoverRate <= 0 {
			return // crash-stop: the chain ends here
		}
		// The recovery belongs to this outage only: if a scripted event
		// recovered and re-crashed the node, or took the outage over, in the
		// meantime, the node's crash sequence number has moved on and the
		// stale recovery must not fire.
		seq := life.crashSeq[i]
		outage := simtime.Duration(r.ExpFloat64() / life.plan.RecoverRate)
		life.net.kernel.AfterFunc(outage, func() {
			if life.down[i] && life.crashSeq[i] == seq {
				life.recover(i)
			}
			life.scheduleCrash(i, r)
		})
	})
}

// apply executes one scripted event. Redundant transitions (crashing a
// node that is already down, raising a link that is already up) are no-ops,
// so scripted and stochastic faults compose without double counting.
func (life *lifecycle) apply(ev faults.Event) {
	switch ev.Kind {
	case faults.KindCrash:
		if !life.crash(ev.Node) {
			// The node is already down (a stochastic outage in progress).
			// The scripted crash takes ownership by moving the crash
			// sequence number on — the chain scheduled its recovery since
			// the crash, so the number differs — and the chain's pending
			// recovery cannot cut the scripted window short: only a
			// scripted RecoverAt ends it now.
			life.crashSeq[ev.Node] = life.net.kernel.ScheduleSeq()
		}
	case faults.KindRecover:
		life.recover(ev.Node)
	case faults.KindLinkDown:
		life.setLink(ev.From, ev.To, false)
	case faults.KindLinkUp:
		life.setLink(ev.From, ev.To, true)
	case faults.KindPartition:
		life.setCut(ev.Group, false)
	case faults.KindHeal:
		life.setCut(ev.Group, true)
	}
}

// crash takes node i down: everything it has scheduled so far — pending
// timers, queued processing — is stale from now on, because all of it has a
// sequence number below the kernel's next one, recorded here; and deliveries
// are suppressed until recovery. It reports whether the node actually
// transitioned (false: already down).
func (life *lifecycle) crash(i int) bool {
	if life.down[i] {
		return false
	}
	life.down[i] = true
	life.crashed++
	life.crashSeq[i] = life.net.kernel.ScheduleSeq()
	life.tel.Crashes++
	life.openInterval[i] = len(life.tel.CrashIntervals)
	life.tel.CrashIntervals = append(life.tel.CrashIntervals, faults.CrashInterval{
		Node:  i,
		Start: float64(life.net.kernel.Now()),
		End:   -1,
	})
	return true
}

// recover restarts node i as a fresh protocol instance (churn: the
// restarted process keeps no state, and timers of the old incarnation stay
// dead: they were scheduled before the crash, below its recorded sequence
// number, while everything the new incarnation schedules is above it).
func (life *lifecycle) recover(i int) {
	if !life.down[i] {
		return
	}
	life.down[i] = false
	life.crashed--
	life.tel.Recoveries++
	if idx := life.openInterval[i]; idx >= 0 {
		life.tel.CrashIntervals[idx].End = float64(life.net.kernel.Now())
		life.openInterval[i] = -1
	}
	if life.preInit {
		// Crash+recover scripted at t = 0, before any node ran: the
		// original instance is still fresh and Run's Init loop will
		// initialise it exactly once — no restart needed.
		return
	}
	// The dead incarnation's processing backlog died with it: its queued
	// completions are suppressed as stale, so the busy-server clock must not
	// make the fresh instance wait behind phantom work.
	if life.net.nextFree != nil {
		life.net.nextFree[i] = life.net.kernel.Now()
	}
	node := life.net.makeNode(i)
	if node == nil {
		panic(fmt.Sprintf("network: makeNode(%d) returned nil on fault recovery", i))
	}
	life.net.nodes[i] = node
	ctx, prev := life.net.enter(i)
	node.Init(ctx)
	life.net.ctx.id = prev
}

// setLink flips the scripted state of the directed edge from→to. An edge
// absent from the topology is ignored; newLifecycle has already rejected
// plans that script one.
func (life *lifecycle) setLink(from, to int, up bool) {
	adj := life.net.adj
	for e := adj.OutStart[from]; e < adj.OutStart[from+1]; e++ {
		if int(adj.Head[e]) == to {
			life.linkOut[e] = !up
			return
		}
	}
}

// setCut takes every directed edge between group and its complement down
// (or back up) on the partition layer. Cuts are counted per edge, so
// overlapping partitions compose: an edge flows again only when every
// partition cutting it has healed. Individually scripted link outages live
// on their own layer and survive any heal. A stray heal with no matching
// partition is a no-op (the count never goes negative).
func (life *lifecycle) setCut(group []int, up bool) {
	inGroup := make([]bool, life.net.N())
	for _, v := range group {
		inGroup[v] = true
	}
	adj := life.net.adj
	for e, to := range adj.Head {
		if inGroup[adj.Tail(e)] == inGroup[to] {
			continue
		}
		if !up {
			life.cutOut[e]++
		} else if life.cutOut[e] > 0 {
			life.cutOut[e]--
		}
	}
}

// telemetry snapshots the run's fault telemetry.
func (life *lifecycle) telemetry() *faults.Telemetry {
	tel := life.tel
	tel.CrashIntervals = append([]faults.CrashInterval(nil), life.tel.CrashIntervals...)
	return &tel
}
