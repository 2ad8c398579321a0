// Package topology builds the directed communication graphs that networks
// run on.
//
// The paper's election algorithm needs anonymous unidirectional rings; the
// synchroniser experiments need trees, complete graphs and arbitrary
// connected graphs. Nodes are identified by dense indices 0..n-1 — these are
// simulator-level identities only and are never visible to protocols that
// declare themselves anonymous (the network layer enforces that anonymity).
//
// A graph is built once — by a generator, or by hand through FromEdges — and
// never changes. It is stored as one CSR of int32 arrays, which runtimes take
// as they are (CSR); Out and In return copies for callers that want a slice
// to keep. The arrays come from the graphs handed on before it in the
// process (see Graph.HandOn), or are laid out afresh.
package topology

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"abenet/internal/reuse"
	"abenet/internal/rng"
)

// Edge is one directed communication link.
type Edge struct {
	From, To int
}

// CSR is a graph's adjacency in compressed sparse row form. Edges are
// numbered in (node, out-port) order — the order Edges lists them — so u's
// out-port p is edge OutStart[u]+p, and v's in-port q is slot InStart[v]+q
// of InFrom. Ports are numbered in insertion order. The arrays are the
// graph's own, so their holders must not write to them, and they are the
// graph's until HandOn: a holder reads them only while the graph is its
// owner's. A network holds them from its construction to its release, and
// a bare graph — the one runner.Run builds from Env.N — is handed on only
// after the run on it has returned, so no run reads arrays another has
// taken.
type CSR struct {
	OutStart []int32 // len n+1; u's out-edges are OutStart[u] .. OutStart[u+1]-1
	Head     []int32 // Head[e]: the node edge e reaches
	InPort   []int32 // InPort[e]: the in-port on which edge e arrives at Head[e]
	InStart  []int32 // len n+1; v's in-ports fill InStart[v] .. InStart[v+1]-1 of InFrom
	InFrom   []int32 // InFrom[InStart[v]+q]: the node behind v's in-port q
}

// Tail returns the node edge e leaves, read back through the edge's
// in-port: InFrom[InStart[Head[e]]+InPort[e]].
func (a CSR) Tail(e int) int {
	return int(a.InFrom[a.InStart[a.Head[e]]+a.InPort[e]])
}

// Graph is a directed graph over nodes 0..n-1, built by a generator or by
// FromEdges.
//
// Ports are positions in the adjacency lists: u's p-th out-edge leaves on
// out-port p, and v's q-th in-edge arrives on in-port q. The in-port of
// every out-edge is stored with it, so a runtime wiring a network resolves
// "which in-port does u's out-port p reach" by one indexed read
// (CSR.InPort) instead of building a lookup table per run.
type Graph struct {
	n   int
	adj CSR

	// RingEmbedding's result: sweeps run thousands of seeded repetitions
	// against one shared Graph, so the (possibly backtracking) cycle
	// search runs once per graph.
	ring      sync.Once
	ringPorts []int
	ringErr   error
}

func checkSize(n int) {
	if n < 1 {
		panic(fmt.Sprintf("topology: graph needs at least one node, got %d", n))
	}
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("topology: %d nodes exceed the 32-bit node numbering", n))
	}
}

// build lays out the n-node graph whose edges, in insertion order, are the
// ones edges adds, straight into its CSR: it runs edges twice, to count each
// node's degrees and to file every edge at its nodes' cursors (a stable
// counting sort, so ports keep insertion order), and holds no edge list. It
// performs no checks: the generators' loops produce neither self-loops nor
// duplicates, FromEdges checks its list first, and Validate remains the
// backstop. Where every node's in-degree equals its out-degree — every
// bidirectional family — the two offset arrays are one.
func build(n int, edges func(*layout)) *Graph {
	checkSize(n)
	g := &Graph{n: n, adj: CSR{OutStart: csrArrays.GetZeroed(n + 1), InStart: csrArrays.GetZeroed(n + 1)}}
	a := &g.adj
	edges((*layout)(a))
	m, in := 0, int32(0)
	for u := range n { // slot u+1 turns from u's degree to u's first entry
		out, deg := a.OutStart[u+1], a.InStart[u+1]
		a.OutStart[u+1], a.InStart[u+1] = int32(m), in
		if m, in = m+int(out), in+deg; m > math.MaxInt32 {
			panic(fmt.Sprintf("topology: %d edges exceed the 32-bit edge numbering", m))
		}
	}
	a.Head, a.InPort, a.InFrom = csrArrays.Get(m), csrArrays.Get(m), csrArrays.Get(m) // the fill writes every entry
	edges((*layout)(a))
	for e, v := range a.Head {
		a.InPort[e] -= a.InStart[v] // the fill stored the in-slot
	}
	if slices.Equal(a.OutStart, a.InStart) {
		csrArrays.Put(a.InStart)
		a.InStart = a.OutStart
	}
	return g
}

// csrArrays pools the CSR arrays of graphs handed on (see HandOn). Every
// entry but the degree counts build zeroes is written before it is read, so
// the pool does not clear.
var csrArrays = reuse.New[int32](false)

// HandOn gives g's arrays to the next graph built in this process (package
// reuse) and leaves g without them, so a graph read after it panics instead
// of reading another graph's arrays. Only the owner of a graph that nothing
// else reads any more may call it: runner.Run, for the graph it built from
// Env.N, once the run on it has returned normally.
func (g *Graph) HandOn() {
	a := g.adj
	if &a.InStart[0] != &a.OutStart[0] {
		csrArrays.Put(a.InStart)
	}
	for _, s := range [...][]int32{a.OutStart, a.Head, a.InPort, a.InFrom} {
		csrArrays.Put(s)
	}
	g.adj = CSR{}
}

// layout is the CSR a generator adds its edges to. Slot u+1 of each offset
// array is u's cursor: in build's first pass it counts u's edges, in the
// second it walks from u's first entry to u+1's, filing them.
type layout CSR

// add adds the edge u->v.
func (l *layout) add(u, v int) {
	e, s := l.OutStart[u+1], l.InStart[v+1]
	l.OutStart[u+1], l.InStart[v+1] = e+1, s+1
	if l.Head != nil {
		l.Head[e], l.InPort[e], l.InFrom[s] = int32(v), s, int32(u)
	}
}

// bi adds u->v and v->u.
func (l *layout) bi(u, v int) { l.add(u, v); l.add(v, u) }

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// CSR returns the graph's adjacency arrays (see CSR).
func (g *Graph) CSR() CSR { return g.adj }

// FromEdges returns the graph on n nodes with the given directed edges: an
// edge leaves on the next out-port of its tail and arrives on the next
// in-port of its head, in list order. It is the one way to assemble a graph
// by hand. It panics if n < 1, on a node outside [0, n), on a self-loop and
// on a duplicate edge: none occurs in any topology the experiments use, and
// each usually indicates a construction bug.
func FromEdges(n int, edges []Edge) *Graph {
	checkSize(n)
	seen := make(map[Edge]bool, len(edges))
	for _, e := range edges {
		checkNode(e.From, n)
		checkNode(e.To, n)
		if e.From == e.To {
			panic(fmt.Sprintf("topology: self-loop at node %d", e.From))
		}
		if seen[e] {
			panic(fmt.Sprintf("topology: duplicate edge %d->%d", e.From, e.To))
		}
		seen[e] = true
	}
	return build(n, func(l *layout) {
		for _, e := range edges {
			l.add(e.From, e.To)
		}
	})
}

// out returns u's out-neighbours as a view of the adjacency.
func (g *Graph) out(u int) []int32 { return g.adj.Head[g.adj.OutStart[u]:g.adj.OutStart[u+1]] }

// in returns v's in-neighbours as a view of the adjacency.
func (g *Graph) in(v int) []int32 { return g.adj.InFrom[g.adj.InStart[v]:g.adj.InStart[v+1]] }

// HasEdge reports whether the directed edge u->v exists.
func (g *Graph) HasEdge(u, v int) bool {
	g.checkNode(u)
	g.checkNode(v)
	return slices.Contains(g.out(u), int32(v))
}

// Out returns a copy of u's out-neighbours, in insertion order.
func (g *Graph) Out(u int) []int {
	g.checkNode(u)
	return widened(g.out(u))
}

// In returns a copy of u's in-neighbours, in insertion order.
func (g *Graph) In(u int) []int {
	g.checkNode(u)
	return widened(g.in(u))
}

func widened(s []int32) []int {
	out := make([]int, len(s))
	for i, v := range s {
		out[i] = int(v)
	}
	return out
}

// OutDegree returns the number of out-neighbours of u.
func (g *Graph) OutDegree(u int) int {
	g.checkNode(u)
	return int(g.adj.OutStart[u+1] - g.adj.OutStart[u])
}

// InDegree returns the number of in-neighbours of v.
func (g *Graph) InDegree(v int) int {
	g.checkNode(v)
	return int(g.adj.InStart[v+1] - g.adj.InStart[v])
}

// ForEachOut calls fn for each out-neighbour of u without allocating.
func (g *Graph) ForEachOut(u int, fn func(v int)) {
	g.checkNode(u)
	for _, v := range g.out(u) {
		fn(int(v))
	}
}

// Edges returns all directed edges, ordered by (From, insertion order).
func (g *Graph) Edges() []Edge {
	var edges []Edge
	for u := 0; u < g.n; u++ {
		for _, v := range g.out(u) {
			edges = append(edges, Edge{From: u, To: int(v)})
		}
	}
	return edges
}

// EdgeCount returns the number of directed edges.
func (g *Graph) EdgeCount() int { return len(g.adj.Head) }

func (g *Graph) checkNode(u int) { checkNode(u, g.n) }

func checkNode(u, n int) {
	if u < 0 || u >= n {
		panic(fmt.Sprintf("topology: node %d outside [0, %d)", u, n))
	}
}

// Ring returns the anonymous unidirectional ring used by the paper's
// election algorithm: node i sends only to (i+1) mod n. It panics for n < 2
// (a ring needs at least two nodes to have an edge that is not a self-loop).
func Ring(n int) *Graph {
	if n < 2 {
		panic(fmt.Sprintf("topology: unidirectional ring needs n >= 2, got %d", n))
	}
	// Million-node rings are built per run, so the ring is laid out in
	// closed form: node i's one out-edge is edge i and its one in-port is
	// 0, and the out- and in-offsets are the same array 0, 1, …, n. Each
	// node's neighbours are i+1 and i−1, but for the two that wrap.
	checkSize(n)
	start, head, inPort, inFrom := csrArrays.Get(n+1), csrArrays.Get(n), csrArrays.GetZeroed(n), csrArrays.Get(n)
	start[0] = 0
	for i := range n {
		start[i+1] = int32(i + 1)
		head[i] = int32(i + 1)
		inFrom[i] = int32(i - 1)
	}
	head[n-1], inFrom[0] = 0, int32(n-1)
	return &Graph{n: n, adj: CSR{OutStart: start, Head: head, InPort: inPort, InStart: start, InFrom: inFrom}}
}

// Family is a graph family named by its node count: Edges counts the n-node
// member's directed edges in floating point, so that no n overflows it and a
// budget can refuse the member before Build builds it. Shape answers a
// structural rule about the n-node member in constant time, without building
// it; the families a bare size names (RingFamily, CompleteFamily) have one.
type Family struct {
	Name  string
	Edges func(n float64) float64
	Build func(n int) *Graph
	Shape func(n int) Shape
}

// RingFamily and CompleteFamily are the families a bare size names.
var (
	RingFamily     = Family{"ring", func(n float64) float64 { return n }, Ring, func(n int) Shape { return ringShape(n) }}
	CompleteFamily = Family{"complete", func(n float64) float64 { return n * (n - 1) }, Complete, func(n int) Shape { return completeShape(n) }}
)

// Shape is what a structural rule reads of a graph. A *Graph answers from
// its arrays; a family's Shape answers for a member from the family's form.
type Shape interface {
	HasEdge(u, v int) bool
	IsStronglyConnected() bool
	// OneWayEdge returns the first edge u->v, in CSR order, whose reverse
	// v->u is not an edge, or ok false when every edge has its reverse.
	OneWayEdge() (u, v int, ok bool)
}

// ringShape is Ring(n): node i's one edge goes to i+1 mod n, so at n = 2 the
// two edges are each other's reverse and above it edge 0->1 has none.
type ringShape int

func (r ringShape) HasEdge(u, v int) bool {
	checkNode(u, int(r))
	checkNode(v, int(r))
	return v == (u+1)%int(r)
}

func (ringShape) IsStronglyConnected() bool { return true }

func (r ringShape) OneWayEdge() (u, v int, ok bool) { return 0, 1, r > 2 }

// completeShape is Complete(n): every ordered pair of distinct nodes.
type completeShape int

func (c completeShape) HasEdge(u, v int) bool {
	checkNode(u, int(c))
	checkNode(v, int(c))
	return u != v
}

func (completeShape) IsStronglyConnected() bool { return true }

func (completeShape) OneWayEdge() (u, v int, ok bool) { return 0, 0, false }

// BiRing returns the bidirectional ring on n >= 3 nodes (at n = 2 the
// closing edge would be the first edge again).
func BiRing(n int) *Graph {
	if n < 3 {
		panic(fmt.Sprintf("topology: bidirectional ring needs n >= 3, got %d", n))
	}
	return build(n, func(l *layout) {
		for i := 0; i < n; i++ {
			l.bi(i, (i+1)%n)
		}
	})
}

// Line returns the bidirectional path 0-1-...-(n-1).
func Line(n int) *Graph {
	return build(n, func(l *layout) {
		for i := 0; i+1 < n; i++ {
			l.bi(i, i+1)
		}
	})
}

// Star returns the bidirectional star with centre 0 and n-1 leaves.
func Star(n int) *Graph {
	return build(n, func(l *layout) {
		for i := 1; i < n; i++ {
			l.bi(0, i)
		}
	})
}

// Complete returns the complete bidirectional graph on n nodes.
func Complete(n int) *Graph {
	return build(n, func(l *layout) {
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				l.bi(u, v)
			}
		}
	})
}

// Torus returns the rows x cols bidirectional torus grid. Both dimensions
// must be at least 3 so that wrap-around edges do not duplicate grid edges.
func Torus(rows, cols int) *Graph {
	if rows < 3 || cols < 3 {
		panic(fmt.Sprintf("topology: torus needs both dimensions >= 3, got %dx%d", rows, cols))
	}
	return build(rows*cols, func(l *layout) {
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				u := r*cols + c
				l.bi(u, r*cols+(c+1)%cols)
				l.bi(u, ((r+1)%rows)*cols+c)
			}
		}
	})
}

// Hypercube returns the bidirectional hypercube of the given dimension
// (2^dim nodes). Dimension 0 is a single node with no edges.
func Hypercube(dim int) *Graph {
	if dim < 0 || dim > 20 {
		panic(fmt.Sprintf("topology: hypercube dimension %d outside [0, 20]", dim))
	}
	n := 1 << uint(dim)
	return build(n, func(l *layout) {
		for u := 0; u < n; u++ {
			for b := 0; b < dim; b++ {
				if v := u ^ (1 << uint(b)); u < v {
					l.bi(u, v)
				}
			}
		}
	})
}

// HamiltonianCycle returns an ordering of all n nodes, starting at node 0,
// such that the graph has a directed edge from each node in the order to
// the next (wrapping around), or false when no such cycle was found.
//
// Ring-based protocols (the paper's election, the Itai–Rodeh and
// Chang–Roberts baselines) run on any topology that embeds such a cycle:
// messages travel along the cycle and the remaining edges carry no
// traffic. The natural ring 0→1→…→n−1→0 is recognised in O(n); otherwise
// a backtracking search runs with a bounded step budget, so the call is
// safe on adversarial graphs — it gives up (returning false) rather than
// taking exponential time. The standard families (BiRing, Complete,
// Hypercube, Torus) are all found well within the budget.
func (g *Graph) HamiltonianCycle() ([]int, bool) {
	n := g.n
	if n < 2 {
		return nil, false
	}
	// Fast path: the identity order is a cycle (Ring, BiRing, Complete).
	natural := true
	for u := 0; u < n; u++ {
		if !g.HasEdge(u, (u+1)%n) {
			natural = false
			break
		}
	}
	if natural {
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		return order, true
	}
	// Constructive fast path: hypercube-labelled graphs (every edge flips
	// exactly one bit) carry the binary-reflected Gray code as a
	// Hamiltonian cycle, at any dimension — no search needed.
	if order, ok := g.grayCodeCycle(); ok {
		return order, true
	}
	// Bounded backtracking from node 0 with Warnsdorff's rule: always try
	// the unvisited neighbour with the fewest onward options first. On
	// regular graphs (hypercubes, tori) this finds a cycle with little or
	// no backtracking where plain adjacency order blows the budget.
	const stepBudget = 1 << 20
	steps := 0
	order := make([]int, 0, n)
	visited := make([]bool, n)
	onward := func(v int) int {
		count := 0
		for _, w := range g.out(v) {
			if !visited[w] {
				count++
			}
		}
		return count
	}
	var extend func(u int) bool
	extend = func(u int) bool {
		if steps++; steps > stepBudget {
			return false
		}
		order = append(order, u)
		visited[u] = true
		if len(order) == n {
			if g.HasEdge(u, 0) {
				return true
			}
		} else {
			type cand struct{ v, onward int }
			cands := make([]cand, 0, g.OutDegree(u))
			for _, v := range g.out(u) {
				if !visited[v] {
					cands = append(cands, cand{int(v), onward(int(v))})
				}
			}
			sort.Slice(cands, func(i, j int) bool {
				if cands[i].onward != cands[j].onward {
					return cands[i].onward < cands[j].onward
				}
				return cands[i].v < cands[j].v // deterministic tie-break
			})
			last := len(order) == n-1
			for _, c := range cands {
				// A candidate with no onward moves is a dead end unless
				// it completes the cycle.
				if c.onward == 0 && !last {
					continue
				}
				if extend(c.v) {
					return true
				}
			}
		}
		order = order[:len(order)-1]
		visited[u] = false
		return false
	}
	if !extend(0) {
		return nil, false
	}
	return order, true
}

// grayCodeCycle returns the binary-reflected Gray code order when the
// graph is a hypercube under the standard labelling: n a power of two
// (>= 4) and the edge set exactly {u ↔ u^(1<<b)}.
func (g *Graph) grayCodeCycle() ([]int, bool) {
	n := g.n
	if n < 4 || n&(n-1) != 0 {
		return nil, false
	}
	dim := 0
	for 1<<(dim+1) <= n {
		dim++
	}
	for u := 0; u < n; u++ {
		out := g.out(u)
		if len(out) != dim {
			return nil, false
		}
		for _, v := range out {
			x := u ^ int(v)
			if x == 0 || x&(x-1) != 0 {
				return nil, false // not a single bit flip
			}
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i ^ (i >> 1) // Gray code: consecutive entries differ in one bit
	}
	return order, true
}

// RingEmbedding returns, for every node, the out-port index of the edge
// leading to the node's successor on a directed Hamiltonian cycle of the
// graph. On the unidirectional ring every entry is 0 — the embedding is
// the identity — so engines can apply it unconditionally. An error is
// returned when the graph embeds no Hamiltonian cycle (within the search
// budget of HamiltonianCycle). The result is computed once and cached
// (callers must not mutate the returned slice); the cache is safe for the
// concurrent seeded repetitions of a sweep.
func (g *Graph) RingEmbedding() ([]int, error) {
	g.ring.Do(func() { g.ringPorts, g.ringErr = g.ringEmbedding() })
	return g.ringPorts, g.ringErr
}

// ringEmbedding computes the uncached embedding.
func (g *Graph) ringEmbedding() ([]int, error) {
	order, ok := g.HamiltonianCycle()
	if !ok {
		return nil, fmt.Errorf("topology: graph on %d nodes embeds no directed Hamiltonian cycle (ring protocols cannot run on it)", g.n)
	}
	ports := make([]int, g.n)
	for i, u := range order {
		v := order[(i+1)%g.n]
		port := -1
		for p, w := range g.out(u) {
			if int(w) == v {
				port = p
				break
			}
		}
		if port < 0 {
			// HamiltonianCycle only returns existing edges.
			panic(fmt.Sprintf("topology: cycle edge %d->%d not in graph", u, v))
		}
		ports[u] = port
	}
	return ports, nil
}

// RandomConnected returns a random connected bidirectional graph: a uniform
// random spanning tree skeleton (random attachment) plus each remaining pair
// connected with probability extraEdgeProb. Randomness comes from r only.
func RandomConnected(n int, extraEdgeProb float64, r *rng.Source) *Graph {
	if r == nil {
		panic("topology: RandomConnected needs a random source")
	}
	if extraEdgeProb < 0 || extraEdgeProb > 1 {
		panic(fmt.Sprintf("topology: extra edge probability %g outside [0,1]", extraEdgeProb))
	}
	// Random attachment tree guarantees connectivity. Each node but order[0]
	// attaches once, to its tree parent; a pair is joined by a tree edge
	// exactly when one is the other's parent, and by nothing else while the
	// pairs are visited below, each once.
	checkSize(n)
	start := *r // both of build's passes draw from here; r ends as one leaves it
	parent := make([]int, n)
	return build(n, func(l *layout) {
		*r = start
		order := r.Perm(n)
		parent[order[0]] = -1
		for i := 1; i < n; i++ {
			u := order[i]
			v := order[r.Intn(i)]
			parent[u] = v
			l.bi(u, v)
		}
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if parent[u] != v && parent[v] != u && r.Bool(extraEdgeProb) {
					l.bi(u, v)
				}
			}
		}
	})
}

// BFSTree computes a breadth-first spanning tree of the graph from root,
// following directed edges. It returns parent (parent[root] = -1, parent[v]
// = -1 also for unreachable v) and depth (depth[v] = -1 for unreachable v).
func (g *Graph) BFSTree(root int) (parent, depth []int) {
	g.checkNode(root)
	parent = make([]int, g.n)
	depth = make([]int, g.n)
	for i := range parent {
		parent[i] = -1
		depth[i] = -1
	}
	depth[root] = 0
	queue := []int{root}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.out(u) {
			if depth[v] == -1 {
				depth[v] = depth[u] + 1
				parent[v] = u
				queue = append(queue, int(v))
			}
		}
	}
	return parent, depth
}

// OneWayEdge implements Shape.
func (g *Graph) OneWayEdge() (u, v int, ok bool) {
	for e, w := range g.adj.Head {
		if t := g.adj.Tail(e); !g.HasEdge(int(w), t) {
			return t, int(w), true
		}
	}
	return 0, 0, false
}

// IsStronglyConnected reports whether every node can reach every other node
// following directed edges.
func (g *Graph) IsStronglyConnected() bool {
	if !g.allReachableFrom(0, g.out) {
		return false
	}
	return g.allReachableFrom(0, g.in)
}

func (g *Graph) allReachableFrom(root int, adj func(int) []int32) bool {
	seen := make([]bool, g.n)
	seen[root] = true
	stack := []int{root}
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range adj(u) {
			if !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, int(v))
			}
		}
	}
	return count == g.n
}

// Diameter returns the longest shortest-path length over all ordered node
// pairs, following directed edges. It returns -1 if the graph is not
// strongly connected.
func (g *Graph) Diameter() int {
	max := 0
	for root := 0; root < g.n; root++ {
		_, depth := g.BFSTree(root)
		for _, d := range depth {
			if d == -1 {
				return -1
			}
			if d > max {
				max = d
			}
		}
	}
	return max
}

// Validate checks structural invariants (offsets that delimit the arrays,
// consistent in/out adjacency). It returns an error describing the first
// violation, or nil. All constructors in this package maintain these
// invariants; Validate is the backstop every network build runs. It runs in
// O(n + E): each out-edge is checked against the in-port stored with it.
func (g *Graph) Validate() error {
	if g.n < 1 {
		return fmt.Errorf("topology: graph has %d nodes", g.n)
	}
	a := g.adj
	if err := checkOffsets("out", a.OutStart, g.n, len(a.Head)); err != nil {
		return err
	}
	if err := checkOffsets("in", a.InStart, g.n, len(a.InFrom)); err != nil {
		return err
	}
	if len(a.InPort) != len(a.Head) {
		return fmt.Errorf("topology: %d in-ports for %d out-edges", len(a.InPort), len(a.Head))
	}
	for u := 0; u < g.n; u++ {
		for e := a.OutStart[u]; e < a.OutStart[u+1]; e++ {
			v := a.Head[e]
			if v < 0 || int(v) >= g.n {
				return fmt.Errorf("topology: edge %d->%d leaves node range", u, v)
			}
			if q := a.InPort[e]; q < 0 || q >= a.InStart[v+1]-a.InStart[v] || int(a.InFrom[a.InStart[v]+q]) != u {
				return fmt.Errorf("topology: edge %d->%d missing from in-adjacency", u, v)
			}
		}
	}
	if len(a.Head) != len(a.InFrom) {
		return fmt.Errorf("topology: %d out-edges vs %d in-edges", len(a.Head), len(a.InFrom))
	}
	return nil
}

// checkOffsets checks that start delimits n consecutive ranges covering
// exactly size entries.
func checkOffsets(side string, start []int32, n, size int) error {
	if len(start) != n+1 || start[0] != 0 || int(start[n]) != size {
		return fmt.Errorf("topology: %s-offsets do not delimit %d nodes over %d entries", side, n, size)
	}
	for u := range n {
		if start[u+1] < start[u] {
			return fmt.Errorf("topology: %s-offsets decrease at node %d", side, u)
		}
	}
	return nil
}
