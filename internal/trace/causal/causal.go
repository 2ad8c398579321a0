// Package causal analyses the happens-before structure of an exported
// trace (trace.Export).
//
// Every traced event has at most one parent, so the trace is a forest of
// causal trees and each event has a unique ancestor chain back to a root
// (an Init-time send). That makes two analyses cheap and exact:
//
//   - Relay chains: a delivery whose parent send was itself emitted while
//     processing a delivery extends a hop chain. The source paper's
//     complexity argument rests on such chains being short — a message is
//     relayed over at most d+1 hops — and CheckHopBound validates exactly
//     that, both against a caller-supplied bound and against the hop
//     counter the payload itself carries (trace.HopCarrier).
//
//   - Critical path: the ancestor chain of the decision event (or of the
//     causally deepest event when the run never decided) is the longest
//     dependency chain that produced the outcome. Each edge is classified
//     as message time (send→deliver: link delay sampling, ARQ retries,
//     queueing in flight) or local time (everything else: processing
//     delay, timer waits), so the path decomposes the run's virtual time
//     into "waiting on the network" vs "waiting on nodes".
package causal

import (
	"fmt"

	"abenet/internal/trace"
)

// EdgeKind classifies one parent→child edge of the causal forest.
type EdgeKind int

const (
	// EdgeNone marks a root event (no parent in the trace).
	EdgeNone EdgeKind = iota
	// EdgeMessage is a send→deliver edge: the elapsed time is link delay —
	// sampling, ARQ retransmissions, in-flight queueing.
	EdgeMessage
	// EdgeLocal is any same-node edge (deliver→send, deliver/timer→timer,
	// →decision): the elapsed time is processing and timer waiting at one
	// node.
	EdgeLocal
)

// String implements fmt.Stringer.
func (k EdgeKind) String() string {
	switch k {
	case EdgeMessage:
		return "message"
	case EdgeLocal:
		return "local"
	default:
		return "root"
	}
}

// Analysis holds the decoded causal structure of one exported trace.
// Build one with Analyze.
type Analysis struct {
	exp    *trace.Export
	index  map[trace.EventID]int // event ID → position in exp.Events
	parent []int                 // position of parent, -1 if absent/dropped
	depth  []int                 // ancestor-chain length in edges
	hops   []int                 // relay-chain length ending at a delivery
}

// Analyze builds the causal structure of an export. Parents that were
// dropped past the recorder's cap (or predate it) are treated as absent:
// their children become roots of their own subtrees.
func Analyze(exp *trace.Export) *Analysis {
	a := &Analysis{
		exp:    exp,
		index:  make(map[trace.EventID]int, len(exp.Events)),
		parent: make([]int, len(exp.Events)),
		depth:  make([]int, len(exp.Events)),
		hops:   make([]int, len(exp.Events)),
	}
	for i := range exp.Events {
		a.index[exp.Events[i].ID] = i
	}
	for i := range exp.Events {
		e := &exp.Events[i]
		a.parent[i] = -1
		if e.Parent != 0 {
			// A cause always has a smaller ID than its effect, so when the
			// parent is stored it has already been processed.
			if p, ok := a.index[e.Parent]; ok && p < i {
				a.parent[i] = p
			}
		}
		if p := a.parent[i]; p >= 0 {
			a.depth[i] = a.depth[p] + 1
		}
		// A relay chain counts consecutive deliveries linked by
		// deliver →(processing)→ send →(link)→ deliver edges.
		if e.Kind == trace.KindDeliver {
			a.hops[i] = 1
			if s := a.parent[i]; s >= 0 && exp.Events[s].Kind == trace.KindSend {
				if d := a.parent[s]; d >= 0 && exp.Events[d].Kind == trace.KindDeliver {
					a.hops[i] = a.hops[d] + 1
				}
			}
		}
	}
	return a
}

// MaxHopDepth returns the longest relay chain in the trace, in message
// hops: the maximum number of consecutive deliveries connected by
// relay-processing edges. 0 for a trace with no deliveries.
func (a *Analysis) MaxHopDepth() int {
	max := 0
	for _, h := range a.hops {
		if h > max {
			max = h
		}
	}
	return max
}

// CheckHopBound validates the paper's relay bound on every message chain
// in the trace and returns one message per violation (nil when the bound
// holds). Two invariants are checked per delivery:
//
//   - its relay chain is at most bound hops long (bound = d+1: on the
//     election's embedded ring of n nodes, d = n−1, so bound = n);
//   - when the payload carries a hop counter (trace.HopCarrier preserved
//     in Event.Hop), the chain is no longer than the counter — each
//     relay increments the counter by at least one from 1, so a chain of
//     k relays must arrive with a counter ≥ k.
func (a *Analysis) CheckHopBound(bound int) []string {
	var violations []string
	for i := range a.exp.Events {
		e := &a.exp.Events[i]
		if e.Kind != trace.KindDeliver {
			continue
		}
		if a.hops[i] > bound {
			violations = append(violations,
				fmt.Sprintf("event #%d: relay chain of %d hops exceeds the d+1 bound %d", e.ID, a.hops[i], bound))
		}
		if e.Hop > 0 && a.hops[i] > e.Hop {
			violations = append(violations,
				fmt.Sprintf("event #%d: relay chain of %d hops but the payload hop counter is only %d", e.ID, a.hops[i], e.Hop))
		}
	}
	return violations
}

// Step is one event on a critical path, with the edge that reached it.
type Step struct {
	// Event is the event at this step.
	Event trace.Event
	// Edge classifies the edge from the previous step (EdgeNone for the
	// first).
	Edge EdgeKind
	// Elapsed is the virtual time spent on that edge (0 for the first).
	Elapsed float64
}

// Path is a critical path: the unique ancestor chain from a causal root to
// the target event, with its virtual time decomposed by edge kind.
type Path struct {
	// Steps lists the chain root-first; the last step is the target.
	Steps []Step
	// Target is the target event's ID (the decision event when present).
	Target trace.EventID
	// Hops counts the message (send→deliver) edges on the path.
	Hops int
	// Total is the virtual time from the root to the target.
	Total float64
	// MessageTime is the share of Total spent on message edges: link
	// delay sampling, retransmissions, in-flight queueing.
	MessageTime float64
	// LocalTime is the share of Total spent on local edges: node
	// processing and timer waits.
	LocalTime float64
}

// Len returns the path length in edges.
func (p *Path) Len() int { return len(p.Steps) - 1 }

// CriticalPath returns the ancestor chain of the run's terminal event: the
// decision event when the trace has one, otherwise the causally deepest
// event (ties broken toward the earliest recorded). It returns nil for an
// empty trace.
func (a *Analysis) CriticalPath() *Path {
	target := -1
	if a.exp.Decision != 0 {
		if i, ok := a.index[a.exp.Decision]; ok {
			target = i
		}
	}
	if target < 0 {
		for i := range a.exp.Events {
			if target < 0 || a.depth[i] > a.depth[target] {
				target = i
			}
		}
	}
	if target < 0 {
		return nil
	}

	var chain []int
	for i := target; i >= 0; i = a.parent[i] {
		chain = append(chain, i)
	}
	p := &Path{Steps: make([]Step, len(chain)), Target: a.exp.Events[target].ID}
	for s := range p.Steps {
		i := chain[len(chain)-1-s]
		step := Step{Event: a.exp.Events[i]}
		if s > 0 {
			prev := p.Steps[s-1].Event
			step.Elapsed = step.Event.At - prev.At
			if step.Event.Kind == trace.KindDeliver && prev.Kind == trace.KindSend {
				step.Edge = EdgeMessage
				p.Hops++
				p.MessageTime += step.Elapsed
			} else {
				step.Edge = EdgeLocal
				p.LocalTime += step.Elapsed
			}
			p.Total += step.Elapsed
		}
		p.Steps[s] = step
	}
	return p
}

// Summary is the compact JSON-facing digest of a path the CLIs report.
type Summary struct {
	// Events is the number of stored trace events.
	Events int `json:"events"`
	// Dropped counts events lost to the recorder cap.
	Dropped uint64 `json:"dropped,omitempty"`
	// Decision is the terminal event ID (0 when the run never decided).
	Decision trace.EventID `json:"decision,omitempty"`
	// PathLen is the critical path length in edges.
	PathLen int `json:"path_len"`
	// Hops is the critical path's message-hop count.
	Hops int `json:"hops"`
	// Time is the critical path's total virtual time.
	Time float64 `json:"time"`
	// MessageTime is the share spent on message edges.
	MessageTime float64 `json:"message_time"`
	// LocalTime is the share spent on local edges.
	LocalTime float64 `json:"local_time"`
	// MaxHopDepth is the longest relay chain anywhere in the trace.
	MaxHopDepth int `json:"max_hop_depth"`
}

// Summarize analyses an export and digests its critical path. Returns the
// zero Summary for a nil or empty export.
func Summarize(exp *trace.Export) Summary {
	if exp == nil || len(exp.Events) == 0 {
		return Summary{}
	}
	a := Analyze(exp)
	s := Summary{
		Events:      len(exp.Events),
		Dropped:     exp.Dropped,
		Decision:    exp.Decision,
		MaxHopDepth: a.MaxHopDepth(),
	}
	if p := a.CriticalPath(); p != nil {
		s.PathLen = p.Len()
		s.Hops = p.Hops
		s.Time = p.Total
		s.MessageTime = p.MessageTime
		s.LocalTime = p.LocalTime
	}
	return s
}
