package synchronizer

import (
	"fmt"

	"abenet/internal/network"
	"abenet/internal/topology"
)

// Message types of the γ-synchronizer. Within a cluster they mirror β
// (tree convergecast/broadcast); between clusters they mirror α over one
// designated "preferred" edge per adjacent cluster pair.
type (
	// gammaTreeSafe flows up a cluster tree: the sender's subtree is safe.
	gammaTreeSafe struct{ Round int }
	// gammaClusterDown flows down a cluster tree: the whole cluster is
	// safe; endpoints of preferred edges announce it to neighbours.
	gammaClusterDown struct{ Round int }
	// gammaNeighborSafe crosses a preferred edge: the sending cluster is
	// safe for the round.
	gammaNeighborSafe struct{ Round int }
	// gammaExtSafe relays a received neighbour-safety announcement up the
	// cluster tree to the root.
	gammaExtSafe struct{ Round int }
	// gammaGo flows down a cluster tree: release the next round.
	gammaGo struct{ Round int }
)

// gammaNode wraps a synchronous protocol with Awerbuch's γ-synchronizer:
// the graph is partitioned into BFS clusters of bounded radius; safety is
// detected per cluster with a β-style tree convergecast, exchanged between
// adjacent clusters α-style over one preferred edge per pair, and the
// round is released per cluster once the cluster and all its neighbour
// clusters are safe.
//
// Per round the cost is: payload acks + O(cluster tree edges) + one
// message each way per adjacent cluster pair (plus the tree relays of
// those announcements) — between β's 2(n−1) (one cluster) and α's 3|E|
// (every node its own cluster), tunable by the cluster radius.
//
// With one cluster spanning the graph (KindBeta) this is Awerbuch's
// β-synchronizer: safety is convergecast up a global BFS spanning tree to
// node 0, which broadcasts the round release down the tree — one ack per
// payload plus exactly 2(n−1) tree messages per round, cheaper than α on
// dense graphs and still ≥ n, as Theorem 1 demands. The price is latency:
// each round takes Ω(tree depth) time.
type gammaNode struct {
	envelopes
	clusterPorts
	reversePort []int

	sent         map[int]int
	acked        map[int]int
	childSafe    map[int]int
	treeSafeSent map[int]bool
	extSafe      map[int]int
	pendingGo    map[int]bool
}

var _ network.Node = (*gammaNode)(nil)

// clusterPorts is one node's precomputed view of the clustering.
type clusterPorts struct {
	// Cluster tree geometry.
	parentPort int // -1 at the cluster root
	childPorts []int
	// preferredPorts are out-ports of preferred inter-cluster edges
	// incident to this node.
	preferredPorts []int
	// adjacentClusters is set at the root: how many neighbour clusters
	// must report safe each round.
	adjacentClusters int
	// clusterHasPreferred reports whether any node of this cluster is an
	// endpoint of a preferred edge; if not, the cluster-safe broadcast is
	// pointless and skipped — a single cluster is exactly the
	// β-synchronizer.
	clusterHasPreferred bool
}

// clusterGeometry partitions g into BFS clusters of the given radius and
// derives every node's tree and preferred-edge ports. A radius no BFS can
// exhaust (g.N()) yields one cluster spanning the graph: the β-synchronizer.
func clusterGeometry(g *topology.Graph, radius int) []clusterPorts {
	n := g.N()
	cluster := make([]int, n)
	parent := make([]int, n)
	for i := range cluster {
		cluster[i] = -1
		parent[i] = -1
	}
	clusters := 0
	for start := 0; start < n; start++ {
		if cluster[start] != -1 {
			continue
		}
		id := clusters
		clusters++
		cluster[start] = id
		depth := map[int]int{start: 0}
		queue := []int{start}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			if depth[u] == radius {
				continue
			}
			g.ForEachOut(u, func(v int) {
				if cluster[v] == -1 {
					cluster[v] = id
					parent[v] = u
					depth[v] = depth[u] + 1
					queue = append(queue, v)
				}
			})
		}
	}

	outPortOf := make([]map[int]int, n)
	for u := 0; u < n; u++ {
		out := g.Out(u)
		outPortOf[u] = make(map[int]int, len(out))
		for port, v := range out {
			outPortOf[u][v] = port
		}
	}

	geo := make([]clusterPorts, n)
	for u := 0; u < n; u++ {
		geo[u].parentPort = -1
		if parent[u] != -1 {
			port, ok := outPortOf[u][parent[u]]
			if !ok {
				panic(fmt.Sprintf("synchronizer: graph not bidirectional at %d->%d", u, parent[u]))
			}
			geo[u].parentPort = port
		}
	}
	for v := 0; v < n; v++ {
		if u := parent[v]; u != -1 {
			geo[u].childPorts = append(geo[u].childPorts, outPortOf[u][v])
		}
	}

	// One preferred (undirected) edge per adjacent cluster pair: the
	// lexicographically smallest crossing edge.
	type pair struct{ a, b int }
	preferred := map[pair][2]int{}
	for u := 0; u < n; u++ {
		g.ForEachOut(u, func(v int) {
			cu, cv := cluster[u], cluster[v]
			if cu == cv {
				return
			}
			p := pair{a: cu, b: cv}
			if p.a > p.b {
				p.a, p.b = p.b, p.a
			}
			lo, hi := u, v
			if lo > hi {
				lo, hi = hi, lo
			}
			if cur, ok := preferred[p]; !ok || lo < cur[0] || (lo == cur[0] && hi < cur[1]) {
				preferred[p] = [2]int{lo, hi}
			}
		})
	}
	// Find each cluster's root (the node with no parent in its cluster).
	rootOf := make([]int, clusters)
	for u := 0; u < n; u++ {
		if parent[u] == -1 {
			rootOf[cluster[u]] = u
		}
	}
	clusterPreferred := make([]bool, clusters)
	for p, edge := range preferred {
		u, v := edge[0], edge[1]
		geo[u].preferredPorts = append(geo[u].preferredPorts, outPortOf[u][v])
		geo[v].preferredPorts = append(geo[v].preferredPorts, outPortOf[v][u])
		geo[rootOf[p.a]].adjacentClusters++
		geo[rootOf[p.b]].adjacentClusters++
		clusterPreferred[p.a] = true
		clusterPreferred[p.b] = true
	}
	for u := 0; u < n; u++ {
		geo[u].clusterHasPreferred = clusterPreferred[cluster[u]]
	}
	return geo
}

// Init implements network.Node.
func (n *gammaNode) Init(ctx *network.Context) {
	n.advance(ctx)
}

// OnMessage implements network.Node.
func (n *gammaNode) OnMessage(ctx *network.Context, inPort int, payload any) {
	switch m := payload.(type) {
	case envelope:
		n.unpack(inPort, m)
		ctx.Send(n.reversePort[inPort], alphaAck{Round: m.Round})
	case alphaAck:
		n.acked[m.Round]++
		n.tryTreeSafe(ctx, m.Round)
	case gammaTreeSafe:
		n.childSafe[m.Round]++
		n.tryTreeSafe(ctx, m.Round)
	case gammaClusterDown:
		n.onClusterSafe(ctx, m.Round)
	case gammaNeighborSafe:
		n.onNeighborSafe(ctx, m.Round)
	case gammaExtSafe:
		n.onNeighborSafe(ctx, m.Round)
	case gammaGo:
		// Everyone that matters is safe for m.Round: release the next
		// round. Non-FIFO links can deliver go(r) before go(r-1), so
		// buffer and drain in order.
		n.pendingGo[m.Round] = true
		for n.pendingGo[n.round-1] {
			r := n.round - 1
			delete(n.pendingGo, r)
			for _, port := range n.childPorts {
				ctx.Send(port, gammaGo{Round: r})
			}
			if !n.advance(ctx) {
				return
			}
		}
	default:
		panic(fmt.Sprintf("synchronizer: foreign payload %T", payload))
	}
}

// advance runs the next round, sending only the envelopes that carry
// payloads (acks make empty ones unnecessary), and checks whether the node
// is already safe for it. It reports whether the round ran.
func (n *gammaNode) advance(ctx *network.Context) bool {
	sent, ran := n.execute(ctx, true)
	if !ran {
		return false
	}
	n.sent[n.round-1] = sent
	n.tryTreeSafe(ctx, n.round-1)
	return true
}

// tryTreeSafe reports subtree safety up the cluster tree once complete;
// at the root it marks the whole cluster safe. Safety requires: the node
// has executed round r, all its round-r envelopes are acked, and every
// child subtree reported safe.
func (n *gammaNode) tryTreeSafe(ctx *network.Context, r int) {
	if n.treeSafeSent[r] || r != n.round-1 {
		return // not yet executed, or already reported
	}
	if n.acked[r] != n.sent[r] || n.childSafe[r] != len(n.childPorts) {
		return
	}
	n.treeSafeSent[r] = true
	delete(n.acked, r)
	delete(n.sent, r)
	delete(n.childSafe, r)
	if n.parentPort >= 0 {
		ctx.Send(n.parentPort, gammaTreeSafe{Round: r})
		return
	}
	// Root: the cluster is safe.
	n.onClusterSafe(ctx, r)
	n.tryGo(ctx, r)
}

// onClusterSafe propagates cluster safety down the tree and announces it
// over this node's preferred edges. Clusters without preferred edges
// (single-cluster partitions) skip the broadcast entirely: that is β, at
// one ack per payload plus 2(n−1) tree messages per round.
func (n *gammaNode) onClusterSafe(ctx *network.Context, r int) {
	if !n.clusterHasPreferred {
		return
	}
	for _, port := range n.childPorts {
		ctx.Send(port, gammaClusterDown{Round: r})
	}
	for _, port := range n.preferredPorts {
		ctx.Send(port, gammaNeighborSafe{Round: r})
	}
}

// onNeighborSafe delivers the fact that a neighbouring cluster is safe for
// round r to the cluster root.
func (n *gammaNode) onNeighborSafe(ctx *network.Context, r int) {
	if n.parentPort >= 0 {
		ctx.Send(n.parentPort, gammaExtSafe{Round: r})
		return
	}
	n.extSafe[r]++
	n.tryGo(ctx, r)
}

// tryGo releases round r+1 cluster-wide once the cluster and all adjacent
// clusters are safe for r. Only the cluster root calls this.
func (n *gammaNode) tryGo(ctx *network.Context, r int) {
	if r != n.round-1 || !n.treeSafeSent[r] {
		return
	}
	if n.extSafe[r] != n.adjacentClusters {
		return
	}
	delete(n.extSafe, r)
	delete(n.treeSafeSent, r)
	for _, port := range n.childPorts {
		ctx.Send(port, gammaGo{Round: r})
	}
	n.advance(ctx)
}
