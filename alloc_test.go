package abenet_test

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"abenet/internal/allocbudget"
	"abenet/internal/channel"
	"abenet/internal/core"
	"abenet/internal/dist"
	"abenet/internal/golden"
	"abenet/internal/network"
	"abenet/internal/runner"
	"abenet/internal/simtime"
	"abenet/internal/spec"
	"abenet/internal/topology"
)

// allocPath is one line of testdata/alloc.golden: a path whose allocation is
// a tracked figure. setup builds what the path reads and returns the call
// allocbudget.Measure reads; what setup itself allocates is not counted.
type allocPath struct {
	name  string
	setup func(t *testing.T) func()
}

// TestAllocationGolden measures every path whose allocation is a tracked
// figure, cold and warm, and pins both readings in testdata/alloc.golden: a
// path that allocates one byte or one object more or less is a red line,
// and an intended change is an -update whose diff is its evidence. The
// paths are the graph and network constructors, whole runs of the paper's
// election and of Ben-Or, every single-run document in examples/specs (the
// run its spec builds), and the first timed unit of each of the repo
// benchmark's sim workloads. The golden pins the plain build. The shapes
// and budgets are the packages' own tests (TestRingAllocationBudget,
// TestAllocationBudget in network, the runner's TestElectionAllocationBudget
// and its siblings, TestTracedTokenIsFormattedOnce), which read a path's
// line through allocbudget.Figures; a -race build pads what a path
// allocates, so there those tests measure their paths and this one stops.
func TestAllocationGolden(t *testing.T) {
	if allocbudget.Race {
		t.Log("-race: the golden pins the plain build's figures")
		return
	}
	var b strings.Builder
	toolchain := strings.Join(strings.SplitN(runtime.Version(), ".", 3)[:2], ".") // go1.24.0 is go1.24
	fmt.Fprintf(&b, "# bytes and heap objects one call allocates, %s %s/%s\n", toolchain, runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(&b, "# cold: every pool drained first; warm: after a call of the same shape\n")
	fmt.Fprintf(&b, "%-44s %10s %6s %10s %6s\n", "path", "cold B", "objs", "warm B", "objs")
	for _, p := range allocPaths(t) {
		cold, warm := allocbudget.Measure(p.setup(t))
		fmt.Fprintf(&b, "%-44s %10d %6d %10d %6d\n", p.name, cold.Bytes, cold.Objects, warm.Bytes, warm.Objects)
	}
	golden.Check(t, "alloc.golden", b.String())
}

// allocPaths lists the measured paths, in the golden's order.
func allocPaths(t *testing.T) []allocPath {
	t.Helper()
	paths := []allocPath{
		{name: "topology.Ring(1000)", setup: keep(func() any { return topology.Ring(1_000) })},
		{name: "topology.Ring(10000)", setup: keep(func() any { return topology.Ring(10_000) })},
		{name: "topology.Complete(64)", setup: keep(func() any { return topology.Complete(64) })},
		{name: "topology.Torus(8, 8)", setup: keep(func() any { return topology.Torus(8, 8) })},
		{name: "network.New on Ring(1000)", setup: newNetwork(1_000)},
		{name: "network.New on Ring(10000)", setup: newNetwork(10_000)},
		{name: "election ring-sparse n=1000", setup: sparseElection(1_000)},
		{name: "election ring-sparse n=10000", setup: sparseElection(10_000)},
		{name: "standalone election nodes n=10000", setup: standaloneElection(10_000)},
		{name: "ben-or Complete(64) 100 rounds", setup: run(runner.Env{N: 64, MaxRounds: 100, Seed: 1}, runner.BenOr{})},
		{name: "election ring 64, calendar", setup: run(runner.Env{N: 64, Scheduler: "calendar", Seed: 1}, runner.Election{})},
	}
	files, err := filepath.Glob("examples/specs/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("examples/specs: %v, %d files", err, len(files))
	}
	for _, path := range files {
		doc, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if sp, err := spec.DecodeBytes(doc); err == nil && sp.Sweep != nil {
			continue // a sweep is many runs, not one path
		}
		paths = append(paths, allocPath{name: filepath.Base(path), setup: specRun(doc)})
	}
	// The first timed unit of each sim workload of the repo benchmark
	// (benchmark/workloads.go): workload seed 1, unit 1, run seed 1 000 004.
	for _, unit := range [...]struct{ name, doc string }{
		{"ring-sparse-100k", `{"version":1,"env":{"n":100000,"seed":1000004},"protocol":{"name":"election","options":{"A0":1e-5,"TickInterval":100000}}}`},
		{"ring-dense-1k", `{"version":1,"env":{"n":1024,"horizon":2048,"seed":1000004},"protocol":{"name":"election","options":{"KeepRunning":true}}}`},
		{"benor-complete-64", `{"version":1,"env":{"topology":{"name":"complete","params":{"n":64}},"max_rounds":100,"seed":1000004},"protocol":{"name":"ben-or"}}`},
	} {
		paths = append(paths, allocPath{name: "benchmark unit " + unit.name, setup: specRun([]byte(unit.doc))})
	}
	return paths
}

// keep measures build, keeping what it returns alive.
func keep(build func() any) func(*testing.T) func() {
	return func(*testing.T) func() { return func() { runtime.KeepAlive(build()) } }
}

// idleNode does nothing and occupies no memory, so what a call of
// network.New allocates is the network layer's own.
type idleNode struct{}

func (idleNode) Init(*network.Context)                {}
func (idleNode) OnMessage(*network.Context, int, any) {}
func (idleNode) OnTimer(*network.Context, int)        {}

// newNetwork measures network.New on a ring of n built beforehand.
func newNetwork(n int) func(*testing.T) func() {
	return func(t *testing.T) func() {
		graph, links := topology.Ring(n), channel.RandomDelayFactory(dist.NewExponential(1))
		return func() {
			net, err := network.New(network.Config{Graph: graph, Links: links, Seed: 1}, func(int) network.Node { return idleNode{} })
			if err != nil {
				t.Fatal(err)
			}
			runtime.KeepAlive(net)
		}
	}
}

// sparseElection measures a whole election in the shape of the repo
// benchmark's ring-sparse-100k at n nodes: A0 = 1/n and a tick every n time
// units, so a run is a few events and about two messages per node. It must
// elect one leader.
func sparseElection(n int) func(*testing.T) func() {
	return func(t *testing.T) func() {
		return func() {
			rep, err := runner.Run(runner.Env{N: n, Seed: 1}, runner.Election{A0: 1 / float64(n), TickInterval: float64(n)})
			if err != nil || rep.Leaders != 1 {
				t.Fatalf("%v, %d leaders", err, rep.Leaders)
			}
		}
	}
}

// run measures one runner.Run of p on env.
func run(env runner.Env, p runner.Protocol) func(*testing.T) func() {
	return func(t *testing.T) func() {
		return func() {
			if _, err := runner.Run(env, p); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// specRun measures the run a spec document builds: DecodeBytes and Build
// beforehand, then runner.Run.
func specRun(doc []byte) func(*testing.T) func() {
	return func(t *testing.T) func() {
		sp, err := spec.DecodeBytes(doc)
		if err != nil {
			t.Fatal(err)
		}
		env, proto, err := sp.Build()
		if err != nil {
			t.Fatal(err)
		}
		return run(env, proto)(t)
	}
}

// standaloneElection measures a network of n standalone
// core.NewElectionNode nodes in the ring-sparse shape, built and run as the
// repo benchmark's replica builds its ring-sparse unit: the replica never
// releases its network, so it takes from the pools only what runs before it
// left. A ring's params lay out one table of n tokens; a standalone node's
// params must not, or this network would hold n tables, n²·8 bytes.
func standaloneElection(n int) func(*testing.T) func() {
	return func(t *testing.T) func() {
		return func() {
			nodes := make([]*core.ElectionNode, n)
			net, err := network.New(network.Config{
				Graph:     topology.Ring(n),
				Links:     channel.RandomDelayFactory(dist.NewExponential(1)),
				Seed:      1,
				Anonymous: true,
			}, func(i int) network.Node {
				node, err := core.NewElectionNode(core.ElectionNodeConfig{RingSize: n, A0: 1 / float64(n), TickInterval: float64(n), StopOnLeader: true})
				if err != nil {
					t.Fatal(err)
				}
				nodes[i] = node
				return node
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := net.Run(simtime.Forever, 50_000_000); err != nil {
				t.Fatal(err)
			}
			leaders := 0
			for _, node := range nodes {
				if node.State() == core.Leader {
					leaders++
				}
			}
			if leaders != 1 {
				t.Fatalf("%d leaders, want 1", leaders)
			}
		}
	}
}
