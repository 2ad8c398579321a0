package topology

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"abenet/internal/allocbudget"
	"abenet/internal/golden"
	"abenet/internal/rng"
)

func TestRingStructure(t *testing.T) {
	g := Ring(5)
	if g.N() != 5 {
		t.Fatalf("N = %d", g.N())
	}
	if g.EdgeCount() != 5 {
		t.Fatalf("edges = %d, want 5", g.EdgeCount())
	}
	for i := 0; i < 5; i++ {
		out := g.Out(i)
		if len(out) != 1 || out[0] != (i+1)%5 {
			t.Fatalf("Out(%d) = %v", i, out)
		}
		in := g.In(i)
		if len(in) != 1 || in[0] != (i+4)%5 {
			t.Fatalf("In(%d) = %v", i, in)
		}
	}
	if !g.IsStronglyConnected() {
		t.Fatal("ring must be strongly connected")
	}
	if d := g.Diameter(); d != 4 {
		t.Fatalf("ring diameter = %d, want 4", d)
	}
}

func TestRingMinSize(t *testing.T) {
	mustPanic(t, func() { Ring(1) })
	g := Ring(2)
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("2-ring must have both directed edges")
	}
}

func TestBiRing(t *testing.T) {
	g := BiRing(4)
	if g.EdgeCount() != 8 {
		t.Fatalf("edges = %d, want 8", g.EdgeCount())
	}
	if d := g.Diameter(); d != 2 {
		t.Fatalf("biring(4) diameter = %d, want 2", d)
	}
}

func TestLine(t *testing.T) {
	g := Line(4)
	if g.EdgeCount() != 6 {
		t.Fatalf("edges = %d, want 6", g.EdgeCount())
	}
	if d := g.Diameter(); d != 3 {
		t.Fatalf("line(4) diameter = %d, want 3", d)
	}
	single := Line(1)
	if single.EdgeCount() != 0 {
		t.Fatal("line(1) must have no edges")
	}
}

func TestStar(t *testing.T) {
	g := Star(6)
	if g.OutDegree(0) != 5 {
		t.Fatalf("centre degree = %d", g.OutDegree(0))
	}
	for i := 1; i < 6; i++ {
		if g.OutDegree(i) != 1 {
			t.Fatalf("leaf %d degree = %d", i, g.OutDegree(i))
		}
	}
	if d := g.Diameter(); d != 2 {
		t.Fatalf("star diameter = %d, want 2", d)
	}
}

func TestComplete(t *testing.T) {
	g := Complete(5)
	if g.EdgeCount() != 20 {
		t.Fatalf("edges = %d, want 20", g.EdgeCount())
	}
	if d := g.Diameter(); d != 1 {
		t.Fatalf("complete diameter = %d, want 1", d)
	}
}

func TestTorus(t *testing.T) {
	g := Torus(3, 4)
	if g.N() != 12 {
		t.Fatalf("N = %d", g.N())
	}
	// Every torus node has degree 4.
	for u := 0; u < g.N(); u++ {
		if g.OutDegree(u) != 4 {
			t.Fatalf("torus node %d degree = %d, want 4", u, g.OutDegree(u))
		}
	}
	if !g.IsStronglyConnected() {
		t.Fatal("torus must be connected")
	}
	mustPanic(t, func() { Torus(2, 5) })
}

func TestHypercube(t *testing.T) {
	g := Hypercube(3)
	if g.N() != 8 {
		t.Fatalf("N = %d", g.N())
	}
	for u := 0; u < 8; u++ {
		if g.OutDegree(u) != 3 {
			t.Fatalf("node %d degree %d, want 3", u, g.OutDegree(u))
		}
	}
	if d := g.Diameter(); d != 3 {
		t.Fatalf("hypercube(3) diameter = %d, want 3", d)
	}
	if Hypercube(0).N() != 1 {
		t.Fatal("hypercube(0) must be a single node")
	}
}

func TestRandomConnectedIsConnected(t *testing.T) {
	root := rng.New(42)
	for trial := 0; trial < 20; trial++ {
		n := 2 + root.Intn(40)
		g := RandomConnected(n, 0.1, root.Derive("graph"))
		if !g.IsStronglyConnected() {
			t.Fatalf("trial %d: random graph on %d nodes not connected", trial, n)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRandomConnectedDeterministic(t *testing.T) {
	a := RandomConnected(20, 0.2, rng.New(7))
	b := RandomConnected(20, 0.2, rng.New(7))
	ea, eb := a.Edges(), b.Edges()
	if len(ea) != len(eb) {
		t.Fatalf("edge counts differ: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, ea[i], eb[i])
		}
	}
}

func TestRandomConnectedProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8, pRaw uint8) bool {
		n := 2 + int(nRaw)%30
		p := float64(pRaw%100) / 100
		g := RandomConnected(n, p, rng.New(seed))
		return g.IsStronglyConnected() && g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBFSTree(t *testing.T) {
	g := Line(5)
	parent, depth := g.BFSTree(0)
	wantDepth := []int{0, 1, 2, 3, 4}
	for i := range wantDepth {
		if depth[i] != wantDepth[i] {
			t.Fatalf("depth = %v", depth)
		}
	}
	if parent[0] != -1 {
		t.Fatalf("root parent = %d", parent[0])
	}
	for i := 1; i < 5; i++ {
		if parent[i] != i-1 {
			t.Fatalf("parent = %v", parent)
		}
	}
}

func TestBFSTreeUnreachable(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 1}}) // 2 is unreachable
	_, depth := g.BFSTree(0)
	if depth[2] != -1 {
		t.Fatalf("unreachable node depth = %d", depth[2])
	}
	if g.IsStronglyConnected() {
		t.Fatal("graph with unreachable node reported connected")
	}
	if g.Diameter() != -1 {
		t.Fatal("diameter of disconnected graph must be -1")
	}
}

func TestUnidirectionalRingNotSymmetric(t *testing.T) {
	g := Ring(4)
	if g.HasEdge(1, 0) {
		t.Fatal("unidirectional ring must not have reverse edges")
	}
	if !g.HasEdge(0, 1) {
		t.Fatal("missing forward edge")
	}
}

func TestFromEdgesRejections(t *testing.T) {
	mustPanic(t, func() { FromEdges(3, []Edge{{0, 0}}) })         // self-loop
	mustPanic(t, func() { FromEdges(3, []Edge{{0, 1}, {0, 1}}) }) // duplicate
	mustPanic(t, func() { FromEdges(3, []Edge{{0, 3}}) })         // out of range
	mustPanic(t, func() { FromEdges(3, []Edge{{-1, 0}}) })
	mustPanic(t, func() { FromEdges(0, nil) })
	if g := FromEdges(3, []Edge{{0, 1}, {1, 0}}); g.EdgeCount() != 2 {
		t.Fatalf("FromEdges kept %d of 2 edges", g.EdgeCount())
	}
}

func TestOutReturnsCopy(t *testing.T) {
	g := Ring(3)
	out := g.Out(0)
	out[0] = 99
	if g.Out(0)[0] == 99 {
		t.Fatal("Out exposed internal adjacency")
	}
}

func TestForEachOutMatchesOut(t *testing.T) {
	g := Complete(5)
	for u := 0; u < 5; u++ {
		var got []int
		g.ForEachOut(u, func(v int) { got = append(got, v) })
		want := g.Out(u)
		if len(got) != len(want) {
			t.Fatalf("ForEachOut length mismatch at %d", u)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("ForEachOut order mismatch at %d", u)
			}
		}
	}
}

func TestEdgesOrderStable(t *testing.T) {
	g := Ring(4)
	edges := g.Edges()
	for i, e := range edges {
		if e.From != i || e.To != (i+1)%4 {
			t.Fatalf("Edges() = %v", edges)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(g *Graph)
		want    string
	}{
		{"edge out of range", func(g *Graph) { g.adj.Head[0] = 7 }, "leaves node range"},
		{"out-edge missing from in-adjacency", func(g *Graph) { g.adj.InFrom[1] = 2 }, "missing from in-adjacency"},
		{"out-edge at another in-port", func(g *Graph) { g.adj.InPort[0] = 1 }, "missing from in-adjacency"},
		{"offsets cut short", func(g *Graph) { g.adj.OutStart = g.adj.OutStart[:2] }, "do not delimit"},
		{"count mismatch", func(g *Graph) {
			g.adj.InStart = slices.Clone(g.adj.InStart)
			g.adj.InStart[3]++
			g.adj.InFrom = append(g.adj.InFrom, 2)
		}, "out-edges vs"},
	} {
		g := Ring(3)
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: fresh ring invalid: %v", tc.name, err)
		}
		tc.corrupt(g)
		err := g.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestRecordedInPortMatchesScan checks the in-port the CSR stores for each
// out-edge against a position scan of the destination's in-adjacency.
func TestRecordedInPortMatchesScan(t *testing.T) {
	graphs := map[string]*Graph{
		"ring":      Ring(7),
		"biring":    BiRing(7),
		"complete":  Complete(6),
		"hypercube": Hypercube(4),
		"star":      Star(9),
		"random":    RandomConnected(24, 0.2, rng.New(5)),
	}
	for name, g := range graphs {
		adj := g.CSR()
		for u := 0; u < g.N(); u++ {
			out := g.Out(u)
			if g.OutDegree(u) != len(out) || g.InDegree(u) != len(g.In(u)) {
				t.Fatalf("%s: degrees of %d disagree with Out/In", name, u)
			}
			for p, v := range out {
				e := int(adj.OutStart[u]) + p
				if got := int(adj.Head[e]); got != v {
					t.Fatalf("%s: Head of %d's out-port %d = %d, want %d", name, u, p, got, v)
				}
				want := -1
				for q, w := range g.In(v) {
					if w == u {
						want = q
						break
					}
				}
				if got := int(adj.InPort[e]); got != want {
					t.Fatalf("%s: InPort of %d's out-port %d = %d, position scan finds %d", name, u, p, got, want)
				}
				if back := adj.Tail(e); back != u {
					t.Fatalf("%s: Tail(%d) = %d, want %d", name, e, back, u)
				}
			}
		}
	}
}

func TestAllFamiliesConnected(t *testing.T) {
	graphs := map[string]*Graph{
		"ring":      Ring(6),
		"biring":    BiRing(6),
		"line":      Line(6),
		"star":      Star(6),
		"complete":  Complete(6),
		"torus":     Torus(3, 3),
		"hypercube": Hypercube(4),
	}
	for name, g := range graphs {
		if !g.IsStronglyConnected() {
			t.Errorf("%s not strongly connected", name)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

func TestHamiltonianCycle(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		want bool
	}{
		{"ring", Ring(8), true},
		{"biring", BiRing(8), true},
		{"complete", Complete(7), true},
		{"hypercube", Hypercube(4), true},
		{"torus", Torus(3, 4), true},
		{"line", Line(6), false},
		{"star", Star(6), false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			order, ok := c.g.HamiltonianCycle()
			if ok != c.want {
				t.Fatalf("HamiltonianCycle ok = %v, want %v", ok, c.want)
			}
			if !ok {
				return
			}
			n := c.g.N()
			if len(order) != n || order[0] != 0 {
				t.Fatalf("order %v must visit all %d nodes starting at 0", order, n)
			}
			seen := make([]bool, n)
			for i, u := range order {
				if seen[u] {
					t.Fatalf("node %d visited twice", u)
				}
				seen[u] = true
				if v := order[(i+1)%n]; !c.g.HasEdge(u, v) {
					t.Fatalf("cycle uses missing edge %d->%d", u, v)
				}
			}
		})
	}
}

func TestRingEmbedding(t *testing.T) {
	// On the unidirectional ring the embedding is the identity: port 0
	// everywhere. This is what keeps ring-protocol trajectories on plain
	// rings byte-identical to the pre-embedding code.
	ports, err := Ring(9).RingEmbedding()
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range ports {
		if p != 0 {
			t.Fatalf("ring node %d successor port = %d, want 0", i, p)
		}
	}
	// On richer graphs every port must point at the cycle successor.
	for name, g := range map[string]*Graph{
		"biring": BiRing(8), "complete": Complete(6), "hypercube": Hypercube(3),
	} {
		ports, err := g.RingEmbedding()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		order, _ := g.HamiltonianCycle()
		succ := make([]int, g.N())
		for i, u := range order {
			succ[u] = order[(i+1)%g.N()]
		}
		for u, p := range ports {
			if got := g.Out(u)[p]; got != succ[u] {
				t.Fatalf("%s: node %d port %d leads to %d, want %d", name, u, p, got, succ[u])
			}
		}
	}
	if _, err := Line(5).RingEmbedding(); err == nil {
		t.Fatal("Line must not embed a ring")
	}
}

// checkedBuild is a generator's loop with every edge pair listed for
// FromEdges and its self-loop, duplicate and range checks.
func checkedBuild(n int, edges func(add func(u, v int))) *Graph {
	var list []Edge
	edges(func(u, v int) { list = append(list, Edge{u, v}, Edge{v, u}) })
	return FromEdges(n, list)
}

// TestGeneratorsMatchCheckedConstruction: the generators lay out their CSR
// in one unchecked pass (build); the graph they produce — every Out, In and
// in-port, in order — must be the one the checked FromEdges list builds, and
// must pass Validate.
func TestGeneratorsMatchCheckedConstruction(t *testing.T) {
	type pair struct {
		name      string
		got, want *Graph
	}
	var pairs []pair
	for _, n := range []int{3, 4, 9, 32} {
		pairs = append(pairs,
			pair{"biring", BiRing(n), checkedBuild(n, func(add func(u, v int)) {
				for i := 0; i < n; i++ {
					add(i, (i+1)%n)
				}
			})},
			pair{"star", Star(n), checkedBuild(n, func(add func(u, v int)) {
				for i := 1; i < n; i++ {
					add(0, i)
				}
			})},
			pair{"complete", Complete(n), checkedBuild(n, func(add func(u, v int)) {
				for u := 0; u < n; u++ {
					for v := u + 1; v < n; v++ {
						add(u, v)
					}
				}
			})},
		)
	}
	for _, dim := range []int{0, 1, 3, 5} {
		pairs = append(pairs, pair{"hypercube", Hypercube(dim), checkedBuild(1<<dim, func(add func(u, v int)) {
			for u := 0; u < 1<<dim; u++ {
				for b := 0; b < dim; b++ {
					if v := u ^ (1 << b); u < v {
						add(u, v)
					}
				}
			}
		})})
	}
	for _, d := range [][2]int{{3, 3}, {3, 5}, {6, 4}} {
		rows, cols := d[0], d[1]
		pairs = append(pairs, pair{"torus", Torus(rows, cols), checkedBuild(rows*cols, func(add func(u, v int)) {
			for r := 0; r < rows; r++ {
				for c := 0; c < cols; c++ {
					add(r*cols+c, r*cols+(c+1)%cols)
					add(r*cols+c, ((r+1)%rows)*cols+c)
				}
			}
		})})
	}
	for _, p := range pairs {
		if err := p.got.Validate(); err != nil {
			t.Fatalf("%s(%d nodes): %v", p.name, p.got.N(), err)
		}
		if p.got.N() != p.want.N() {
			t.Fatalf("%s: %d nodes, want %d", p.name, p.got.N(), p.want.N())
		}
		for u := 0; u < p.got.N(); u++ {
			if !slices.Equal(p.got.Out(u), p.want.Out(u)) || !slices.Equal(p.got.In(u), p.want.In(u)) {
				t.Fatalf("%s(%d nodes): adjacency of %d differs: out %v in %v, want out %v in %v",
					p.name, p.got.N(), u, p.got.Out(u), p.got.In(u), p.want.Out(u), p.want.In(u))
			}
			got, want := p.got.CSR(), p.want.CSR()
			for q := 0; q < p.got.OutDegree(u); q++ {
				if g, w := got.InPort[int(got.OutStart[u])+q], want.InPort[int(want.OutStart[u])+q]; g != w {
					t.Fatalf("%s(%d nodes): in-port of %d's out-port %d = %d, want %d", p.name, p.got.N(), u, q, g, w)
				}
			}
		}
	}
}

// refGraph is the reference the CSR layout is checked against: the
// adjacency-list graph, one growing list per node and side, where a port is
// the position an edge was appended at.
type refGraph struct {
	out, in, inPort [][]int // inPort[u][p]: position of u in in[out[u][p]]
}

func newRef(n int) *refGraph {
	return &refGraph{out: make([][]int, n), in: make([][]int, n), inPort: make([][]int, n)}
}

func (r *refGraph) add(u, v int) {
	r.out[u] = append(r.out[u], v)
	r.inPort[u] = append(r.inPort[u], len(r.in[v]))
	r.in[v] = append(r.in[v], u)
}

func (r *refGraph) addBi(u, v int) { r.add(u, v); r.add(v, u) }

func (r *refGraph) has(u, v int) bool { return slices.Contains(r.out[u], v) }

// refRandomConnected is RandomConnected's draw sequence on the reference.
func refRandomConnected(n int, p float64, r *rng.Source) *refGraph {
	ref := newRef(n)
	order := r.Perm(n)
	for i := 1; i < n; i++ {
		ref.addBi(order[i], order[r.Intn(i)])
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !ref.has(u, v) && r.Bool(p) {
				ref.addBi(u, v)
			}
		}
	}
	return ref
}

// samePorts fails t unless g reads exactly as ref through every accessor and
// through its CSR.
func samePorts(t *testing.T, name string, g *Graph, ref *refGraph) {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if g.N() != len(ref.out) {
		t.Fatalf("%s: %d nodes, want %d", name, g.N(), len(ref.out))
	}
	adj := g.CSR()
	var edges []Edge
	for u := range g.N() {
		if g.OutDegree(u) != len(ref.out[u]) || g.InDegree(u) != len(ref.in[u]) {
			t.Fatalf("%s: node %d has degrees out %d in %d, want %d %d",
				name, u, g.OutDegree(u), g.InDegree(u), len(ref.out[u]), len(ref.in[u]))
		}
		if !slices.Equal(g.Out(u), ref.out[u]) || !slices.Equal(g.In(u), ref.in[u]) {
			t.Fatalf("%s: node %d reads Out %v In %v, want %v %v", name, u, g.Out(u), g.In(u), ref.out[u], ref.in[u])
		}
		for p, v := range ref.out[u] {
			e := int(adj.OutStart[u]) + p
			if int(adj.Head[e]) != v || int(adj.InPort[e]) != ref.inPort[u][p] {
				t.Fatalf("%s: out-port %d of %d reads (%d, in-port %d), want (%d, %d)",
					name, p, u, adj.Head[e], adj.InPort[e], v, ref.inPort[u][p])
			}
			edges = append(edges, Edge{From: u, To: v})
		}
		for q, w := range ref.in[u] {
			if got := int(adj.InFrom[int(adj.InStart[u])+q]); got != w {
				t.Fatalf("%s: in-port %d of %d reads %d, want %d", name, q, u, got, w)
			}
		}
	}
	if got := g.Edges(); !slices.Equal(got, edges) {
		t.Fatalf("%s: Edges() = %v, want %v", name, got, edges)
	}
	for e, edge := range edges {
		if adj.Tail(e) != edge.From {
			t.Fatalf("%s: CSR.Tail(%d) = %d, want %d", name, e, adj.Tail(e), edge.From)
		}
	}
}

// TestPortsMatchReferenceAdjacency holds every generator, and graphs built
// by FromEdges, to the adjacency-list reference: the same neighbours on the
// same ports, in insertion order, through every accessor — each out-edge's
// stored in-port included, which is its position in the reference's
// in-list of its head.
func TestPortsMatchReferenceAdjacency(t *testing.T) {
	type tc struct {
		name string
		got  *Graph
		want func(*refGraph)
		n    int
	}
	var cases []tc
	for _, n := range []int{2, 3, 4, 9, 32} {
		cases = append(cases, tc{"ring", Ring(n), func(r *refGraph) {
			for i := range n {
				r.add(i, (i+1)%n)
			}
		}, n})
		if n >= 3 {
			cases = append(cases, tc{"biring", BiRing(n), func(r *refGraph) {
				for i := range n {
					r.addBi(i, (i+1)%n)
				}
			}, n})
		}
		cases = append(cases,
			tc{"line", Line(n), func(r *refGraph) {
				for i := 0; i+1 < n; i++ {
					r.addBi(i, i+1)
				}
			}, n},
			tc{"star", Star(n), func(r *refGraph) {
				for i := 1; i < n; i++ {
					r.addBi(0, i)
				}
			}, n},
			tc{"complete", Complete(n), func(r *refGraph) {
				for u := range n {
					for v := u + 1; v < n; v++ {
						r.addBi(u, v)
					}
				}
			}, n})
	}
	cases = append(cases, tc{"line", Line(1), func(*refGraph) {}, 1})
	for _, dim := range []int{0, 1, 3, 5} {
		cases = append(cases, tc{"hypercube", Hypercube(dim), func(r *refGraph) {
			for u := range 1 << dim {
				for b := range dim {
					if v := u ^ (1 << b); u < v {
						r.addBi(u, v)
					}
				}
			}
		}, 1 << dim})
	}
	for _, d := range [][2]int{{3, 3}, {3, 5}, {6, 4}} {
		rows, cols := d[0], d[1]
		cases = append(cases, tc{"torus", Torus(rows, cols), func(r *refGraph) {
			for row := range rows {
				for c := range cols {
					r.addBi(row*cols+c, row*cols+(c+1)%cols)
					r.addBi(row*cols+c, ((row+1)%rows)*cols+c)
				}
			}
		}, rows * cols})
	}
	for _, c := range cases {
		ref := newRef(c.n)
		c.want(ref)
		samePorts(t, fmt.Sprintf("%s(%d nodes)", c.name, c.n), c.got, ref)
	}
	for _, seed := range []uint64{1, 5, 99} {
		g := RandomConnected(24, 0.2, rng.New(seed))
		samePorts(t, fmt.Sprintf("random(seed %d)", seed), g, refRandomConnected(24, 0.2, rng.New(seed)))
	}

	// By hand: random edges after no edges and after generated ones, the
	// graph rebuilt by FromEdges and checked after every addition.
	r := rng.New(7)
	for _, start := range []struct {
		name string
		g    *Graph
		ref  func() *refGraph
	}{
		{"empty", FromEdges(9, nil), func() *refGraph { return newRef(9) }},
		{"ring", Ring(9), func() *refGraph {
			ref := newRef(9)
			for i := range 9 {
				ref.add(i, (i+1)%9)
			}
			return ref
		}},
		{"star", Star(9), func() *refGraph {
			ref := newRef(9)
			for i := 1; i < 9; i++ {
				ref.addBi(0, i)
			}
			return ref
		}},
	} {
		edges, ref := start.g.Edges(), start.ref()
		for added := 0; added < 20; {
			u, v := r.Intn(9), r.Intn(9)
			if u == v || ref.has(u, v) {
				continue
			}
			edges = append(edges, Edge{u, v})
			g := FromEdges(9, edges)
			ref.add(u, v)
			added++
			samePorts(t, fmt.Sprintf("%s + %d edges", start.name, added), g, ref)
		}
	}
}

// TestRingAllocationBudget holds Ring's layout: a fixed number of objects
// whatever n — nothing per node or edge — and at most 24 B per node. It
// measures 16 B: out-edge 4, in-port 4 and in-neighbour 4, plus the one
// offsets array the out- and in-sides share.
func TestRingAllocationBudget(t *testing.T) {
	build := func(n int) func() { return func() { runtime.KeepAlive(Ring(n)) } }
	small, objects := allocbudget.Objects(build)
	bytes := allocbudget.BytesPerNode(10_000, build)

	t.Logf("Ring(n): %.0f objects at n = 10³, %.0f at n = 10⁴, %.1f B per node", small, objects, bytes)
	if objects != small {
		t.Errorf("Ring allocates %.0f objects at n = 10⁴ and %.0f at n = 10³: something is built per node", objects, small)
	}
	if bytes > 24 {
		t.Errorf("Ring allocates %.1f B per node, budget 24", bytes)
	}
}

// TestGeneratedGraphsKeepTheChecks: only the generators' own loops skip the
// checks. A generated graph's edges passed through FromEdges with a
// duplicate or a self-loop added still panic, and BiRing(2) — whose closing
// edge would be its first edge again — is rejected.
func TestGeneratedGraphsKeepTheChecks(t *testing.T) {
	for name, g := range map[string]*Graph{
		"biring": BiRing(5), "star": Star(5), "complete": Complete(5),
		"hypercube": Hypercube(3), "torus": Torus(3, 3),
	} {
		edges, v := g.Edges(), g.Out(0)[0]
		for _, extra := range []Edge{{0, v}, {v, 0}, {0, 0}} {
			mustPanic(t, func() { FromEdges(g.N(), append(slices.Clone(edges), extra)) })
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	mustPanic(t, func() { BiRing(2) })
}

// TestGeneratorsAreLinearInEdges: Star(100000) has twice Ring(100000)'s
// edges, all at its centre. Built edge by edge — a duplicate scan of the
// centre's adjacency and fresh arrays per edge — it would be quadratic; the
// generators' one pass takes a few times as long as Ring. The
// bound is a ratio of best-of-three build times on the same box, generous
// enough for a loaded one.
func TestGeneratorsAreLinearInEdges(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 100000-node graphs")
	}
	const n = 100_000
	best := func(build func() *Graph) time.Duration {
		d := time.Duration(math.MaxInt64)
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			g := build()
			d = min(d, time.Since(t0))
			if g.N() != n {
				t.Fatalf("built %d nodes, want %d", g.N(), n)
			}
		}
		return d
	}
	ring := best(func() *Graph { return Ring(n) })
	star := best(func() *Graph { return Star(n) })
	if star > 100*ring {
		t.Fatalf("Star(%d) built in %v, Ring(%d) in %v: more than 100 times as long for twice the edges", n, star, n, ring)
	}
}

// TestFamilyShapeMatchesBuild: a family's Shape answers every structural
// question about a member as the built member does.
func TestFamilyShapeMatchesBuild(t *testing.T) {
	for _, f := range []Family{RingFamily, CompleteFamily} {
		for n := 2; n <= 9; n++ {
			shape, g := f.Shape(n), f.Build(n)
			if shape.IsStronglyConnected() != g.IsStronglyConnected() {
				t.Fatalf("%s(%d): strongly connected %v, graph says %v", f.Name, n, shape.IsStronglyConnected(), g.IsStronglyConnected())
			}
			for u := range n {
				for v := range n {
					if shape.HasEdge(u, v) != g.HasEdge(u, v) {
						t.Fatalf("%s(%d): HasEdge(%d, %d) = %v, graph says %v", f.Name, n, u, v, shape.HasEdge(u, v), g.HasEdge(u, v))
					}
				}
			}
			su, sv, sok := shape.OneWayEdge()
			gu, gv, gok := g.OneWayEdge()
			if sok != gok || sok && (su != gu || sv != gv) {
				t.Fatalf("%s(%d): OneWayEdge = %d->%d %v, graph says %d->%d %v", f.Name, n, su, sv, sok, gu, gv, gok)
			}
		}
	}
}

// TestCSRGolden pins every generator's arrays at a few sizes, FromEdges on a
// hand list, and RandomConnected at two seeds together with where it leaves
// the caller's stream (the stream's next Uint64 after the call), so a change
// to how a graph is laid out must reproduce every port as it was recorded.
func TestCSRGolden(t *testing.T) {
	var b strings.Builder
	pin := func(name string, g *Graph) {
		a := g.CSR()
		fmt.Fprintf(&b, "%s n=%d\n", name, g.N())
		for _, row := range []struct {
			name string
			s    []int32
		}{{"OutStart", a.OutStart}, {"Head", a.Head}, {"InPort", a.InPort}, {"InStart", a.InStart}, {"InFrom", a.InFrom}} {
			fmt.Fprintf(&b, "  %-8s %v\n", row.name, row.s)
		}
	}
	for _, n := range []int{3, 5, 8} {
		pin(fmt.Sprintf("BiRing(%d)", n), BiRing(n))
	}
	for _, n := range []int{1, 2, 6} {
		pin(fmt.Sprintf("Line(%d)", n), Line(n))
	}
	for _, n := range []int{2, 5, 7} {
		pin(fmt.Sprintf("Star(%d)", n), Star(n))
	}
	for _, n := range []int{2, 4, 7} {
		pin(fmt.Sprintf("Complete(%d)", n), Complete(n))
	}
	for _, d := range [][2]int{{3, 3}, {3, 4}, {4, 5}} {
		pin(fmt.Sprintf("Torus(%d, %d)", d[0], d[1]), Torus(d[0], d[1]))
	}
	for _, dim := range []int{0, 2, 3} {
		pin(fmt.Sprintf("Hypercube(%d)", dim), Hypercube(dim))
	}
	pin("FromEdges(5, hand list)", FromEdges(5, []Edge{{3, 1}, {0, 4}, {1, 3}, {4, 2}, {0, 1}, {2, 0}, {1, 4}, {3, 0}}))
	pin("FromEdges(3, none)", FromEdges(3, nil))
	for _, seed := range []uint64{1, 7} {
		r := rng.New(seed)
		pin(fmt.Sprintf("RandomConnected(12, 0.3, seed %d)", seed), RandomConnected(12, 0.3, r))
		fmt.Fprintf(&b, "  stream then reads %d\n", r.Uint64())
	}
	golden.Check(t, "topology_csr.golden", b.String())
}

// TestGeneratorAllocationBudget: a generator lays its edges straight into
// the CSR, so building Complete(64) or Torus(8, 8) allocates the graph and
// its five arrays — two offset arrays of n+1 and three edge arrays of m
// int32s — and nothing else: no edge list, no per-node cursors.
func TestGeneratorAllocationBudget(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, c := range []struct {
		name  string
		build func() *Graph
	}{
		{"Complete(64)", func() *Graph { return Complete(64) }},
		{"Torus(8, 8)", func() *Graph { return Torus(8, 8) }},
	} {
		g := c.build()
		n, m := g.N(), g.EdgeCount()
		run := func() { runtime.KeepAlive(c.build()) }
		bytes, _ := allocbudget.Run(run)
		objects := testing.AllocsPerRun(20, run) // averaged: a stray runtime object does not count
		arrays := uint64(4 * (2*(n+1) + 3*m))
		// Each of the six objects rounds up to its size class, at most an
		// eighth of its size above 1 kB and 32 B below it.
		budget := uint64(unsafe.Sizeof(Graph{})) + arrays + arrays/8 + 6*32
		t.Logf("%s: %d B in %.0f objects; graph %d B, arrays %d B", c.name, bytes, objects, unsafe.Sizeof(Graph{}), arrays)
		if objects != 6 || bytes > budget {
			t.Errorf("%s allocates %d B in %.0f objects, want 6 objects and at most %d B (the graph and its arrays)", c.name, bytes, objects, budget)
		}
	}
}
