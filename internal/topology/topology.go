// Package topology builds the directed communication graphs that networks
// run on.
//
// The paper's election algorithm needs anonymous unidirectional rings; the
// synchroniser experiments need trees, complete graphs and arbitrary
// connected graphs. Nodes are identified by dense indices 0..n-1 — these are
// simulator-level identities only and are never visible to protocols that
// declare themselves anonymous (the network layer enforces that anonymity).
//
// Runtimes read a frozen graph through the non-copying accessors (OutDegree,
// InDegree, OutAt, InAt, InPort); Out and In return copies for callers that
// want a slice to keep.
package topology

import (
	"fmt"
	"sort"
	"sync"

	"abenet/internal/rng"
)

// Edge is one directed communication link.
type Edge struct {
	From, To int
}

// Graph is a directed graph over nodes 0..n-1. The zero value is an empty
// graph with no nodes; use New.
//
// Ports are positions in the adjacency lists: u's p-th out-edge leaves on
// out-port p, and v's q-th in-edge arrives on in-port q. AddEdge records the
// in-port of every out-edge as it is added, so a runtime wiring a network
// resolves "which in-port does u's out-port p reach" by one indexed read
// (InPort) instead of building a lookup table per run.
type Graph struct {
	n      int
	out    [][]int
	in     [][]int
	inPort [][]int // inPort[u][p]: position of u in in[out[u][p]]

	// RingEmbedding cache: graphs are frozen after construction, and
	// sweeps run thousands of seeded repetitions against one shared
	// Graph, so the (possibly backtracking) cycle search must not be
	// redone per run. Guarded by ringMu; invalidated by AddEdge.
	ringMu    sync.Mutex
	ringDone  bool
	ringPorts []int
	ringErr   error
}

// New returns a graph with n nodes and no edges. It panics if n < 1.
func New(n int) *Graph {
	if n < 1 {
		panic(fmt.Sprintf("topology: graph needs at least one node, got %d", n))
	}
	return &Graph{
		n:      n,
		out:    make([][]int, n),
		in:     make([][]int, n),
		inPort: make([][]int, n),
	}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// AddEdge adds the directed edge u->v. Self-loops and duplicate edges are
// rejected with a panic: neither occurs in any topology the experiments use,
// and both usually indicate a construction bug.
func (g *Graph) AddEdge(u, v int) {
	g.checkNode(u)
	g.checkNode(v)
	if u == v {
		panic(fmt.Sprintf("topology: self-loop at node %d", u))
	}
	for _, w := range g.out[u] {
		if w == v {
			panic(fmt.Sprintf("topology: duplicate edge %d->%d", u, v))
		}
	}
	g.appendEdge(u, v)
	g.ringMu.Lock()
	g.ringDone = false
	g.ringMu.Unlock()
}

// AddBiEdge adds both u->v and v->u.
func (g *Graph) AddBiEdge(u, v int) {
	g.AddEdge(u, v)
	g.AddEdge(v, u)
}

// appendEdge records u->v with no checks. It is the generators' path: their
// loops cannot produce a self-loop or a duplicate, AddEdge's duplicate scan
// is O(degree) per edge — quadratic on a star's centre or a complete graph —
// and a graph under construction has no ring cache to invalidate. Validate
// remains the backstop.
func (g *Graph) appendEdge(u, v int) {
	g.out[u] = append(g.out[u], v)
	g.inPort[u] = append(g.inPort[u], len(g.in[v]))
	g.in[v] = append(g.in[v], u)
}

// appendBiEdge is AddBiEdge on the unchecked path.
func (g *Graph) appendBiEdge(u, v int) {
	g.appendEdge(u, v)
	g.appendEdge(v, u)
}

// HasEdge reports whether the directed edge u->v exists.
func (g *Graph) HasEdge(u, v int) bool {
	g.checkNode(u)
	g.checkNode(v)
	for _, w := range g.out[u] {
		if w == v {
			return true
		}
	}
	return false
}

// Out returns a copy of u's out-neighbours, in insertion order.
func (g *Graph) Out(u int) []int {
	g.checkNode(u)
	out := make([]int, len(g.out[u]))
	copy(out, g.out[u])
	return out
}

// In returns a copy of u's in-neighbours, in insertion order.
func (g *Graph) In(u int) []int {
	g.checkNode(u)
	in := make([]int, len(g.in[u]))
	copy(in, g.in[u])
	return in
}

// OutDegree returns the number of out-neighbours of u.
func (g *Graph) OutDegree(u int) int {
	g.checkNode(u)
	return len(g.out[u])
}

// InDegree returns the number of in-neighbours of v.
func (g *Graph) InDegree(v int) int {
	g.checkNode(v)
	return len(g.in[v])
}

// OutAt returns the neighbour reached by u's out-port p, without copying
// the adjacency. It panics if p is not a port of u.
func (g *Graph) OutAt(u, p int) int {
	g.checkNode(u)
	return g.out[u][p]
}

// InAt returns the neighbour behind v's in-port p, without copying the
// adjacency. It panics if p is not a port of v.
func (g *Graph) InAt(v, p int) int {
	g.checkNode(v)
	return g.in[v][p]
}

// InPort returns the in-port on which the edge leaving u's out-port p
// arrives at its destination: InAt(OutAt(u, p), InPort(u, p)) == u.
func (g *Graph) InPort(u, p int) int {
	g.checkNode(u)
	return g.inPort[u][p]
}

// ForEachOut calls fn for each out-neighbour of u without allocating.
func (g *Graph) ForEachOut(u int, fn func(v int)) {
	g.checkNode(u)
	for _, v := range g.out[u] {
		fn(v)
	}
}

// Edges returns all directed edges, ordered by (From, insertion order).
func (g *Graph) Edges() []Edge {
	var edges []Edge
	for u := 0; u < g.n; u++ {
		for _, v := range g.out[u] {
			edges = append(edges, Edge{From: u, To: v})
		}
	}
	return edges
}

// EdgeCount returns the number of directed edges.
func (g *Graph) EdgeCount() int {
	total := 0
	for u := 0; u < g.n; u++ {
		total += len(g.out[u])
	}
	return total
}

func (g *Graph) checkNode(u int) {
	if u < 0 || u >= g.n {
		panic(fmt.Sprintf("topology: node %d outside [0, %d)", u, g.n))
	}
}

// Ring returns the anonymous unidirectional ring used by the paper's
// election algorithm: node i sends only to (i+1) mod n. It panics for n < 2
// (a ring needs at least two nodes to have an edge that is not a self-loop).
func Ring(n int) *Graph {
	if n < 2 {
		panic(fmt.Sprintf("topology: unidirectional ring needs n >= 2, got %d", n))
	}
	// Every node has exactly one out-edge and one in-edge, so the adjacency
	// tables are laid over one backing array each instead of n one-element
	// slices — million-node rings are built per run — and every recorded
	// in-port is the same 0. Capacities are clipped to the element, so a
	// later AddEdge appends into a fresh array and never into a neighbour's
	// slot.
	g := New(n)
	out, in, port0 := make([]int, n), make([]int, n), make([]int, 1)
	for i := 0; i < n; i++ {
		out[i] = (i + 1) % n
		in[i] = (i + n - 1) % n
		g.out[i] = out[i : i+1 : i+1]
		g.in[i] = in[i : i+1 : i+1]
		g.inPort[i] = port0[0:1:1]
	}
	return g
}

// BiRing returns the bidirectional ring on n >= 2 nodes.
func BiRing(n int) *Graph {
	if n < 2 {
		panic(fmt.Sprintf("topology: bidirectional ring needs n >= 2, got %d", n))
	}
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.appendBiEdge(i, i+1)
	}
	// The closing edge takes the checked path: at n = 2 it is the first
	// edge again, which AddEdge rejects as it always has.
	g.AddBiEdge(n-1, 0)
	return g
}

// Line returns the bidirectional path 0-1-...-(n-1).
func Line(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddBiEdge(i, i+1)
	}
	return g
}

// Star returns the bidirectional star with centre 0 and n-1 leaves.
func Star(n int) *Graph {
	g := New(n)
	for i := 1; i < n; i++ {
		g.appendBiEdge(0, i)
	}
	return g
}

// Complete returns the complete bidirectional graph on n nodes.
func Complete(n int) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.appendBiEdge(u, v)
		}
	}
	return g
}

// Torus returns the rows x cols bidirectional torus grid. Both dimensions
// must be at least 3 so that wrap-around edges do not duplicate grid edges.
func Torus(rows, cols int) *Graph {
	if rows < 3 || cols < 3 {
		panic(fmt.Sprintf("topology: torus needs both dimensions >= 3, got %dx%d", rows, cols))
	}
	g := New(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			g.appendBiEdge(id(r, c), id(r, (c+1)%cols))
			g.appendBiEdge(id(r, c), id((r+1)%rows, c))
		}
	}
	return g
}

// Hypercube returns the bidirectional hypercube of the given dimension
// (2^dim nodes). Dimension 0 is a single node with no edges.
func Hypercube(dim int) *Graph {
	if dim < 0 || dim > 20 {
		panic(fmt.Sprintf("topology: hypercube dimension %d outside [0, 20]", dim))
	}
	n := 1 << uint(dim)
	g := New(n)
	for u := 0; u < n; u++ {
		for b := 0; b < dim; b++ {
			v := u ^ (1 << uint(b))
			if u < v {
				g.appendBiEdge(u, v)
			}
		}
	}
	return g
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
		for _, w := range g.out[v] {
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
			cands := make([]cand, 0, len(g.out[u]))
			for _, v := range g.out[u] {
				if !visited[v] {
					cands = append(cands, cand{v, onward(v)})
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
		out := g.out[u]
		if len(out) != dim {
			return nil, false
		}
		for _, v := range out {
			x := u ^ v
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
	g.ringMu.Lock()
	defer g.ringMu.Unlock()
	if g.ringDone {
		return g.ringPorts, g.ringErr
	}
	g.ringPorts, g.ringErr = g.ringEmbedding()
	g.ringDone = true
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
		for p, w := range g.out[u] {
			if w == v {
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
	g := New(n)
	// Random attachment tree guarantees connectivity.
	order := r.Perm(n)
	for i := 1; i < n; i++ {
		u := order[i]
		v := order[r.Intn(i)]
		g.AddBiEdge(u, v)
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !g.HasEdge(u, v) && r.Bool(extraEdgeProb) {
				g.AddBiEdge(u, v)
			}
		}
	}
	return g
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
		for _, v := range g.out[u] {
			if depth[v] == -1 {
				depth[v] = depth[u] + 1
				parent[v] = u
				queue = append(queue, v)
			}
		}
	}
	return parent, depth
}

// IsStronglyConnected reports whether every node can reach every other node
// following directed edges.
func (g *Graph) IsStronglyConnected() bool {
	if !g.allReachableFrom(0, g.out) {
		return false
	}
	return g.allReachableFrom(0, g.in)
}

func (g *Graph) allReachableFrom(root int, adj [][]int) bool {
	seen := make([]bool, g.n)
	seen[root] = true
	stack := []int{root}
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range adj[u] {
			if !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, v)
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

// Validate checks structural invariants (consistent in/out adjacency). It
// returns an error describing the first violation, or nil. All constructors
// in this package maintain these invariants; Validate exists for graphs
// assembled by hand. It runs in O(E): each out-edge is checked against the
// in-port AddEdge recorded for it.
func (g *Graph) Validate() error {
	if g.n < 1 {
		return fmt.Errorf("topology: graph has %d nodes", g.n)
	}
	counted := 0
	for u := 0; u < g.n; u++ {
		for p, v := range g.out[u] {
			if v < 0 || v >= g.n {
				return fmt.Errorf("topology: edge %d->%d leaves node range", u, v)
			}
			q := -1
			if p < len(g.inPort[u]) {
				q = g.inPort[u][p]
			}
			if q < 0 || q >= len(g.in[v]) || g.in[v][q] != u {
				return fmt.Errorf("topology: edge %d->%d missing from in-adjacency", u, v)
			}
			counted++
		}
	}
	inCount := 0
	for v := 0; v < g.n; v++ {
		inCount += len(g.in[v])
	}
	if counted != inCount {
		return fmt.Errorf("topology: %d out-edges vs %d in-edges", counted, inCount)
	}
	return nil
}
