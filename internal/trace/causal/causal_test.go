package causal

import (
	"math"
	"testing"

	"abenet/internal/trace"
)

// chainExport hand-builds the canonical relay pattern the election
// produces: Init send at node 0, then deliver → send → deliver … across
// nodes 0→1→2, ending in a decision at node 2.
//
//	#1 send 0→1 @0   (root)
//	#2 deliver  @1.0 parent #1   hop counter 1
//	#3 send 1→2 @1.5 parent #2
//	#4 deliver  @3.0 parent #3   hop counter 2
//	#5 decision @3.0 parent #4
func chainExport() *trace.Export {
	return &trace.Export{
		Decision: 5,
		Events: []trace.Event{
			{ID: 1, Lamport: 1, At: 0, Kind: trace.KindSend, From: 0, To: 1, Payload: "{Hop:1}", Hop: 1},
			{ID: 2, Parent: 1, Lamport: 2, At: 1, Kind: trace.KindDeliver, From: 0, To: 1, Payload: "{Hop:1}", Hop: 1},
			{ID: 3, Parent: 2, Lamport: 3, At: 1.5, Kind: trace.KindSend, From: 1, To: 2, Payload: "{Hop:2}", Hop: 2},
			{ID: 4, Parent: 3, Lamport: 4, At: 3, Kind: trace.KindDeliver, From: 1, To: 2, Payload: "{Hop:2}", Hop: 2},
			{ID: 5, Parent: 4, Lamport: 5, At: 3, Kind: trace.KindDecision, From: 2, Payload: "leader elected"},
		},
	}
}

func TestCriticalPath(t *testing.T) {
	p := Analyze(chainExport()).CriticalPath()
	if p == nil {
		t.Fatal("no critical path")
	}
	if p.Target != 5 {
		t.Fatalf("target = #%d, want the decision #5", p.Target)
	}
	if p.Len() != 4 {
		t.Fatalf("path length = %d edges, want 4", p.Len())
	}
	if p.Hops != 2 {
		t.Fatalf("hops = %d, want 2 message edges", p.Hops)
	}
	if p.Total != 3 {
		t.Fatalf("total = %g, want 3", p.Total)
	}
	// Message edges: #1→#2 (1.0) and #3→#4 (1.5). Local: #2→#3 (0.5),
	// #4→#5 (0).
	if p.MessageTime != 2.5 {
		t.Fatalf("message time = %g, want 2.5", p.MessageTime)
	}
	if p.LocalTime != 0.5 {
		t.Fatalf("local time = %g, want 0.5", p.LocalTime)
	}
	wantEdges := []EdgeKind{EdgeNone, EdgeMessage, EdgeLocal, EdgeMessage, EdgeLocal}
	for i, s := range p.Steps {
		if s.Edge != wantEdges[i] {
			t.Errorf("step %d edge = %v, want %v", i, s.Edge, wantEdges[i])
		}
	}
	if p.Steps[0].Event.ID != 1 || p.Steps[len(p.Steps)-1].Event.ID != 5 {
		t.Fatalf("path runs #%d..#%d, want root #1 to target #5",
			p.Steps[0].Event.ID, p.Steps[len(p.Steps)-1].Event.ID)
	}
}

func TestHopDepthAndBound(t *testing.T) {
	a := Analyze(chainExport())
	if d := a.MaxHopDepth(); d != 2 {
		t.Fatalf("MaxHopDepth = %d, want 2", d)
	}
	if v := a.CheckHopBound(2); len(v) != 0 {
		t.Fatalf("bound 2 violated: %v", v)
	}
	// Tightening the bound below the measured depth must trip it.
	if v := a.CheckHopBound(1); len(v) != 1 {
		t.Fatalf("bound 1: got %d violations, want 1: %v", len(v), v)
	}
}

func TestHopCounterInvariant(t *testing.T) {
	exp := chainExport()
	// Corrupt the second delivery's hop counter below its chain depth of
	// 2: a chain longer than its own counter is exactly what the paper's
	// relay argument forbids.
	exp.Events[3].Hop = 1
	if v := Analyze(exp).CheckHopBound(10); len(v) != 1 {
		t.Fatalf("got %d violations, want the counter violation: %v", len(v), v)
	}
}

func TestDroppedParentStartsNewRoot(t *testing.T) {
	exp := chainExport()
	// Drop the first two events, as a capped recorder would: the stored
	// suffix references #2 as a parent that no longer exists.
	exp.Events = exp.Events[2:]
	a := Analyze(exp)
	p := a.CriticalPath()
	if p == nil || p.Target != 5 {
		t.Fatalf("path = %+v, want a path to #5", p)
	}
	if p.Steps[0].Event.ID != 3 {
		t.Fatalf("root = #%d, want the orphaned #3", p.Steps[0].Event.ID)
	}
	// The relay chain restarts at the orphan: depth 1, not 2.
	if d := a.MaxHopDepth(); d != 1 {
		t.Fatalf("MaxHopDepth = %d, want 1 after the chain head was dropped", d)
	}
}

func TestDeepestEventFallback(t *testing.T) {
	exp := chainExport()
	// A run that never decided (e.g. ben-or draining to quiescence).
	exp.Decision = 0
	exp.Events = exp.Events[:4]
	p := Analyze(exp).CriticalPath()
	if p == nil || p.Target != 4 {
		t.Fatalf("path = %+v, want fallback to the deepest event #4", p)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize(chainExport())
	if s.Events != 5 || s.Decision != 5 || s.PathLen != 4 || s.Hops != 2 || s.MaxHopDepth != 2 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.Time-3) > 1e-12 || math.Abs(s.MessageTime-2.5) > 1e-12 {
		t.Fatalf("summary times = %+v", s)
	}
	if z := Summarize(nil); z != (Summary{}) {
		t.Fatalf("Summarize(nil) = %+v, want zero", z)
	}
}

func TestEmptyExport(t *testing.T) {
	a := Analyze(&trace.Export{})
	if p := a.CriticalPath(); p != nil {
		t.Fatalf("empty export has a critical path: %+v", p)
	}
	if d := a.MaxHopDepth(); d != 0 {
		t.Fatalf("empty export MaxHopDepth = %d", d)
	}
	if v := a.CheckHopBound(1); v != nil {
		t.Fatalf("empty export violations: %v", v)
	}
}
