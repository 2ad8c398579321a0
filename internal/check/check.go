// Package check exhaustively model-checks the paper's election algorithm
// on small rings.
//
// Monte-Carlo runs sample executions; they cannot prove safety. This
// checker enumerates every reachable global state of the protocol on an
// anonymous unidirectional ring of size n — under a fully nondeterministic
// scheduler (any idle node may activate at any moment, any in-flight
// message may be delivered next, in any order), which is exactly the
// support of the ABE probability space — and verifies:
//
//	V1  at most one node is ever a leader;
//	V2  every in-flight hop counter is in {1..n} and every d(A) ≤ n;
//	V3  the nodes are never all passive (no knockout deadlock);
//	V4  when a leader exists, every other node is passive;
//	V5  from every reachable sound state (one that passes V1..V4), a
//	    leader state is reachable.
//
// The reachable state graph is finite, and the exploration covers all of
// it. Every enabled transition has positive
// probability in the ABE model, so on this finite graph V5 is termination
// with probability 1; it also rules out every dead end without a leader.
// V5 is one backward pass over the explored graph. The transition
// relation here is written directly from the paper's Section 3 text,
// independently of internal/core's simulator implementation, so agreement
// between the two is evidence against transcription bugs in either.
package check

import (
	"fmt"
	"slices"
	"sort"
)

// Node states, deliberately re-declared rather than imported from core so
// the checker stays an independent encoding of the paper.
const (
	idle byte = iota + 1
	active
	passive
	leader
)

// Options configures an exhaustive exploration.
type Options struct {
	// N is the ring size (2..6 is practical).
	N int
	// MaxStates aborts the exploration if exceeded; 0 means 5e6.
	MaxStates int

	// deliver replaces the receive rule, so tests can check the checker
	// on mutants; nil means deliver.
	deliver func(st *state, i, hop, n int)
}

// Violation is one invariant breach, with a human-readable witness trace.
type Violation struct {
	// Kind identifies the invariant (V1..V5).
	Kind string
	// Detail describes the breach.
	Detail string
	// Trace is the action sequence from the initial state.
	Trace []string
}

// Report summarises an exploration.
type Report struct {
	// StatesExplored counts distinct reachable states visited.
	StatesExplored int
	// Truncated reports whether MaxStates cut the exploration short.
	Truncated bool
	// LeaderStates counts sound states in which a leader exists.
	LeaderStates int
	// Violations lists every invariant breach found (empty = verified).
	Violations []Violation
}

// OK reports whether the exploration finished without violations. A
// truncated exploration skips V5 and is never OK.
func (r Report) OK() bool { return len(r.Violations) == 0 && !r.Truncated }

// state is one global protocol configuration.
type state struct {
	nodes []nodeState
}

type nodeState struct {
	st    byte
	d     int
	inbox []int // multiset of in-flight hop counters addressed to this node, sorted
}

// key canonically encodes a state for the visited set.
func (s *state) key() string {
	buf := make([]byte, 0, len(s.nodes)*6)
	for i := range s.nodes {
		ns := &s.nodes[i]
		buf = append(buf, ns.st, byte(ns.d), byte(len(ns.inbox)))
		for _, h := range ns.inbox {
			buf = append(buf, byte(h))
		}
		buf = append(buf, 0xff)
	}
	return string(buf)
}

// clone deep-copies a state.
func (s *state) clone() *state {
	out := &state{nodes: make([]nodeState, len(s.nodes))}
	for i := range s.nodes {
		out.nodes[i] = s.nodes[i]
		out.nodes[i].inbox = append([]int(nil), s.nodes[i].inbox...)
	}
	return out
}

// addMsg inserts hop into node i's inbox keeping it sorted.
func (s *state) addMsg(i, hop int) {
	inbox := s.nodes[i].inbox
	pos := sort.SearchInts(inbox, hop)
	inbox = append(inbox, 0)
	copy(inbox[pos+1:], inbox[pos:])
	inbox[pos] = hop
	s.nodes[i].inbox = inbox
}

// removeMsg removes one instance of hop from node i's inbox.
func (s *state) removeMsg(i, hop int) {
	inbox := s.nodes[i].inbox
	pos := sort.SearchInts(inbox, hop)
	s.nodes[i].inbox = append(inbox[:pos], inbox[pos+1:]...)
}

// CheckElection exhaustively explores the election protocol on a ring of
// size opts.N and reports every invariant violation in its reachable state
// graph.
func CheckElection(opts Options) (Report, error) {
	if opts.N < 2 {
		return Report{}, fmt.Errorf("check: ring size %d must be at least 2", opts.N)
	}
	maxStates := opts.MaxStates
	if maxStates == 0 {
		maxStates = 5_000_000
	}
	receive := opts.deliver
	if receive == nil {
		receive = deliver
	}
	n := opts.N

	initial := &state{nodes: make([]nodeState, n)}
	for i := range initial.nodes {
		initial.nodes[i] = nodeState{st: idle, d: 1}
	}

	// vertex is one reachable state, indexed in discovery order. Its state
	// itself is dropped once expanded; the graph keeps only what the
	// witness traces and the V5 pass read.
	type vertex struct {
		parent int // predecessor on a shortest path; -1 for the initial state
		action string
		preds  []int // every state with a transition into this one
		sound  bool  // passed V1..V4 (and so was expanded)
		leader bool  // sound, with a leader
	}
	index := map[string]int{initial.key(): 0}
	graph := []vertex{{parent: -1}}
	pending := []*state{initial} // pending[id] is graph[id]'s state until it is expanded

	var report Report

	traceOf := func(id int) []string {
		var trace []string
		for ; graph[id].parent >= 0; id = graph[id].parent {
			trace = append(trace, graph[id].action)
		}
		slices.Reverse(trace)
		return trace
	}

	violate := func(id int, kind, detail string) {
		report.Violations = append(report.Violations, Violation{
			Kind:   kind,
			Detail: detail,
			Trace:  traceOf(id),
		})
	}

	// checkInvariants validates a state; returns false on violation so the
	// exploration can skip expanding broken states.
	checkInvariants := func(s *state, id int) bool {
		ok := true
		leaders, passives := 0, 0
		for i := range s.nodes {
			ns := &s.nodes[i]
			if ns.st == leader {
				leaders++
			}
			if ns.st == passive {
				passives++
			}
			if ns.d < 1 || ns.d > n {
				violate(id, "V2", fmt.Sprintf("node %d has d=%d", i, ns.d))
				ok = false
			}
			for _, h := range ns.inbox {
				if h < 1 || h > n {
					violate(id, "V2", fmt.Sprintf("message to node %d carries hop %d", i, h))
					ok = false
				}
			}
		}
		if leaders > 1 {
			violate(id, "V1", fmt.Sprintf("%d leaders", leaders))
			ok = false
		}
		if passives == n {
			violate(id, "V3", "all nodes passive")
			ok = false
		}
		if leaders == 1 && passives != n-1 {
			violate(id, "V4", fmt.Sprintf("leader coexists with %d non-passive nodes", n-1-passives))
			ok = false
		}
		return ok
	}

	push := func(next *state, from int, action string) {
		k := next.key()
		id, seen := index[k]
		if !seen {
			id = len(graph)
			index[k] = id
			graph = append(graph, vertex{parent: from, action: action})
			pending = append(pending, next)
		}
		graph[id].preds = append(graph[id].preds, from)
	}

	for id := 0; id < len(graph); id++ {
		if report.StatesExplored >= maxStates {
			report.Truncated = true
			return report, nil
		}
		s := pending[id]
		pending[id] = nil
		report.StatesExplored++

		if !checkInvariants(s, id) {
			continue
		}
		graph[id].sound = true
		for i := range s.nodes {
			if s.nodes[i].st == leader {
				graph[id].leader = true
			}
		}
		if graph[id].leader {
			report.LeaderStates++
		}

		// Activation transitions: the support of the probabilistic
		// wake-up rule is "any idle node may activate at any tick".
		for i := range s.nodes {
			if s.nodes[i].st != idle {
				continue
			}
			next := s.clone()
			next.nodes[i].st = active
			next.addMsg((i+1)%n, 1)
			push(next, id, fmt.Sprintf("activate(%d)", i))
		}

		// Delivery transitions: any in-flight message, in any order.
		for i := range s.nodes {
			seen := map[int]bool{}
			for _, h := range s.nodes[i].inbox {
				if seen[h] {
					continue // same (target, hop) pairs are interchangeable
				}
				seen[h] = true
				next := s.clone()
				next.removeMsg(i, h)
				receive(next, i, h, n)
				push(next, id, fmt.Sprintf("deliver(hop=%d -> node %d)", h, i))
			}
		}
	}

	// V5: walk back from the leader states; a sound state the walk does
	// not reach cannot reach a leader. A dead end without a leader is one.
	reaches := make([]bool, len(graph))
	var work []int
	for id := range graph {
		if graph[id].leader {
			reaches[id] = true
			work = append(work, id)
		}
	}
	for len(work) > 0 {
		id := work[len(work)-1]
		work = work[:len(work)-1]
		for _, p := range graph[id].preds {
			if !reaches[p] {
				reaches[p] = true
				work = append(work, p)
			}
		}
	}
	for id := range graph {
		if graph[id].sound && !reaches[id] {
			violate(id, "V5", "no leader state is reachable")
		}
	}
	return report, nil
}

// deliver applies the paper's receive rules to node i of st consuming a
// message with the given hop. Written directly from the Section 3 text.
func deliver(st *state, i, hop, n int) {
	ns := &st.nodes[i]
	if hop > ns.d {
		ns.d = hop
	}
	switch ns.st {
	case idle:
		ns.st = passive
		st.addMsg((i+1)%n, ns.d+1)
	case passive:
		st.addMsg((i+1)%n, ns.d+1)
	case active:
		if hop == n {
			ns.st = leader
		} else {
			ns.st = idle
		}
		// Message purged in both cases.
	case leader:
		// Residual traffic is absorbed by the leader.
	}
}
