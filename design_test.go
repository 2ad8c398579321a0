package abenet_test

// The design rules. Each entry of designRules states one decision that keeps
// the simulator small enough to run the paper's election at n = 10⁵–10⁶ — a
// link is a row, one wire, one Context per network, deferred work is data —
// as a check over the module's syntax, and carries a few lines of Go that
// break it. TestDesignRules holds the tree to every rule; TestDesignRulesCanFail
// holds every rule to its failing input, so that none can pass vacuously.
//
// A new rule is one entry and one failing input. Run the rules alone with
//
//	go test -run TestDesignRules .
//
// Only syntax is read: a comment or a string literal matches only a rule that
// asks for it (the Deprecated: marker, struct tags, epoch, a .golden name),
// and a rule reads every file of its scope, wherever its subject moves.

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// designRule is one design decision, checked over the files of its scope.
type designRule struct {
	step     string    // the decision, as the CI step that first held it named it
	scope    scope     // the files the rule reads
	when     matcher   // if set, only the files in which it matches are read
	match    matcher   // what breaks the decision
	inside   *funcDecl // if set, only sites in a matching top-level function count, and one must exist
	outside  *funcDecl // if set, sites in a matching top-level function do not count
	min, max int       // the sites allowed; both zero forbid every site
	msg      string    // why a site breaks the decision
	bad      input     // a failing input: a path in scope and its Go source
}

// input is a Go file that a rule must flag.
type input struct{ path, src string }

var designRules = []designRule{
	{step: "No deprecated API", scope: dirs("..."), match: comment{"Deprecated:"},
		msg: "Deprecated: marker in non-test Go code — delete the old path instead",
		bad: input{"internal/runner/old.go", "package runner\n\n// Old runs the old door.\n//\n// Deprecated: use Run.\nfunc Old() {}"}},

	{step: "One run-and-harvest routine", scope: dirs("...").but("benchmark/", "internal/runner/substrate.go"),
		match: call{x: "network", name: "New"},
		msg:   "network.New called outside internal/runner/substrate.go — supply nodes to runNetwork instead of building a second engine",
		bad:   input{"internal/runner/engine.go", "package runner; func run(cfg network.Config) { network.New(cfg) }"}},

	{step: "One graph per run", scope: dirs("internal/runner"), match: call{x: "topology", name: "Ring|Complete"},
		msg: "a graph built in internal/runner outside scenario.graph — declare the protocol's bare family (bareGraph) and run on env.Graph",
		bad: input{"internal/runner/bare.go", "package runner; func graph(n int) { topology.Ring(n) }"}},
	{step: "One graph per run", scope: dirs("internal/runner"), match: call{x: "RingFamily|CompleteFamily", name: "Build"},
		msg: "a graph built in internal/runner outside scenario.graph — declare the protocol's bare family (bareGraph) and run on env.Graph",
		bad: input{"internal/runner/bare.go", "package runner; func graph(n int) { topology.CompleteFamily.Build(n) }"}},

	{step: "One round engine", scope: dirs("...").withTests(), match: pkg{"syncnet"},
		msg: "package syncnet is back — run lock-step rounds as synchronizer.KindClock through runNetwork",
		bad: input{"internal/syncnet/syncnet.go", "package syncnet"}},
	{step: "One round engine", scope: dirs("...").withTests().but("benchmark/"), match: imports{"abenet/internal/syncnet"},
		msg: "package syncnet is back — run lock-step rounds as synchronizer.KindClock through runNetwork",
		bad: input{"internal/runner/rounds.go", `package runner; import _ "abenet/internal/syncnet"`}},
	{step: "One round engine", scope: dirs("internal/synchronizer"), match: ident{name: ".*(NewClockSync|clockSyncNode).*"},
		msg: "a dedicated clock-sync node is back — the clock synchronizer is KindClock, driving any synchronous Node",
		bad: input{"internal/synchronizer/clock.go", "package synchronizer; type clockSyncNode struct{}"}},

	{step: "One way to state a scenario", scope: dirs("cmd/...").withTests(), match: lit{"Env$"},
		msg: "Env{ literal under cmd/ — compile flags to a spec.Spec and take the spec path instead",
		bad: input{"cmd/abe-elect/env.go", "package main; var env = runner.Env{N: 8}"}},

	{step: "One trace event type", scope: dirs("..."), match: ident{name: ".*ExportEvent.*|.*ParseKind"},
		msg: "a second trace event type or a kind-name parser is back — trace.Event is recorded, stored and served in one form",
		bad: input{"internal/trace/kind.go", "package trace; func ParseKind(s string) Kind { return 0 }"}},
	{step: "One trace event type", scope: dirs("internal/trace", "internal/trace/causal"), match: imports{"sync|sync/.*"},
		msg: "internal/trace imports sync — a Recorder belongs to one run and is exported after it",
		bad: input{"internal/trace/causal/lock.go", `package causal; import "sync"; var mu sync.Mutex`}},

	{step: "Observe and trace are the substrate's", scope: dirs("internal/runner"), match: field{strct: "Capabilities", line: "^(Observe|Trace) "},
		msg: "an Observe or Trace field is back in runner.Capabilities — runNetwork observes and traces every protocol, and runner.Run checks the report",
		bad: input{"internal/runner/caps.go", "package runner; type Capabilities struct { Trace bool }"}},
	{step: "Observe and trace are the substrate's", scope: dirs("..."),
		match: ident{name: ".*(SupportsObserve|SupportsTrace|supports_observe|supports_trace).*", lits: true},
		msg:   "a supports_observe or supports_trace flag is back — observe and trace are honoured for every protocol, so the registry does not advertise them",
		bad:   input{"internal/runner/meta.go", "package runner; type Meta struct { Obs bool `json:\"supports_observe\"` }"}},
	{step: "Observe and trace are the substrate's", scope: dirs("internal/runner").but("internal/runner/substrate.go"),
		match: call{x: "trace", name: "NewRecorder"},
		msg:   "a trace recorder is built outside internal/runner/substrate.go — runNetwork installs and exports it",
		bad:   input{"internal/runner/traced.go", "package runner; func traced() { trace.NewRecorder() }"}},

	{step: "One state graph", scope: dirs("..."), match: ident{name: ".*(MaxActivationsPerNode|CutStates).*"},
		msg: "an activation budget or a budget-cut count is back — the election's reachable state graph is finite, and V5 checks that a leader is reachable from every state",
		bad: input{"internal/check/budget.go", "package check; const MaxActivationsPerNode = 8"}},
	{step: "One state graph", scope: dirs("internal/check"), match: field{strct: "nodeState", line: "^used "},
		msg: "internal/check's nodeState counts activations again — a counter in the state key splits equal protocol states and needs a bound to stay finite",
		bad: input{"internal/check/state.go", "package check; type nodeState struct { used uint8 }"}},

	{step: "One sweep door and graphs built once", scope: dirs("...").but("benchmark/"),
		match: ident{name: "RunEnv|RunProtocol|RunFaults|RunSweepStream|SweepMetrics|RunFunc"},
		msg:   "a second sweep entry point is back — sweep through harness.Sweep.Run(xs, build, check), with harness.Sizes when x is a network size",
		bad:   input{"internal/harness/env.go", "package harness; func RunEnv() {}"}},
	{step: "One sweep door and graphs built once", scope: dirs("internal/topology"), match: funcDecl{recv: `\*Graph`, name: "Add.*"},
		msg: "topology.Graph can gain edges again — a graph is built once, by a generator or by topology.FromEdges",
		bad: input{"internal/topology/add.go", "package topology; func (g *Graph) AddEdge(u, v int) {}"}},
	{step: "One sweep door and graphs built once", scope: dirs("internal/topology"), match: ident{name: "edgeList|newEdgeList"},
		msg: "topology fills an edge list before its CSR again — build runs the generator twice, to count and to fill",
		bad: input{"internal/topology/edges.go", "package topology; type edgeList []int32"}},
	{step: "One sweep door and graphs built once", scope: dirs("internal/spec"), match: call{x: "Topology", name: "Build"},
		outside: &funcDecl{name: "BuildEnv", recv: ".+"},
		msg:     "internal/spec builds a topology outside BuildEnv — a decoded spec's run takes the graph its validation built, through BuildEnv",
		bad:     input{"internal/spec/sizes.go", "package spec; func (s *Spec) size() { s.Env.Topology.Build(8) }"}},

	{step: "One pin mechanism", scope: dirs("...").withTests().but("internal/golden/", "benchmark/"),
		match: call{x: "flag", name: "Bool", arg0: `^"update"$`},
		msg:   "a second -update flag is back — pin a rendering with golden.Check, whose -update rewrites the file",
		bad:   input{"internal/core/golden_test.go", `package core; var update = flag.Bool("update", false, "rewrite")`}},
	{step: "One pin mechanism", scope: dirs("...").withTests().but("internal/golden/", "benchmark/"),
		when: ident{name: `.*\.golden.*`, lits: true}, match: call{x: "os", name: "WriteFile|Create|OpenFile"},
		msg: "a file that names a .golden pin writes a file itself — golden.Check reads, compares and rewrites testdata/*.golden",
		bad: input{"internal/core/golden_test.go", `package core; func pin() { os.WriteFile("testdata/seeds.golden", nil, 0o644) }`}},

	{step: "One wire", scope: dirs("internal/channel"), match: ident{name: ".*(Impair|LocalBroadcast).*"},
		msg: "internal/channel knows about faults, adversaries or media — it is three delay disciplines and one store; decide about the message in Network.put or in the Sink",
		bad: input{"internal/channel/impair.go", "package channel; func Impair() {}"}},
	{step: "One wire", scope: dirs("internal/channel"), match: imports{"abenet/internal/(faults|byzantine)"},
		msg: "internal/channel knows about faults, adversaries or media — it is three delay disciplines and one store; decide about the message in Network.put or in the Sink",
		bad: input{"internal/channel/impair.go", `package channel; import _ "abenet/internal/faults"`}},
	{step: "One wire", scope: dirs("internal/network"), match: call{x: "Tracer", name: "MessageSent"}, min: 1, max: 1,
		msg: "call sites of Tracer.MessageSent( in internal/network, want 1 — Send and Broadcast share Context.transmit",
		bad: input{"internal/network/again.go", "package network; func (c *Context) again(m int) { c.net.Tracer.MessageSent(m) }"}},
	{step: "One wire", scope: dirs("internal/network"), match: call{x: "adv", name: "intercept"}, min: 1, max: 1,
		msg: "call sites of adv.intercept( in internal/network, want 1 — Send and Broadcast share Context.transmit",
		bad: input{"internal/network/again.go", "package network; func (c *Context) again(m int) { c.net.adv.intercept(m) }"}},

	{step: "A link is a row", scope: dirs("internal/network"), match: ident{x: "channel", name: "Link"},
		msg: "internal/network holds a channel.Link — a link is a row of the network's channel.Store, sent on with store.Send(k, ·)",
		bad: input{"internal/network/edge.go", "package network; type edge struct { l *channel.Link }"}},
	{step: "A link is a row", scope: dirs("internal/channel"), match: field{strct: "slot", line: `\*port\b`},
		msg: "a *port field in internal/channel's slot or row — a slot names its link by int32 row, and a row holds no pointer",
		bad: input{"internal/channel/slot.go", "package channel; type slot struct { from *port }"}},
	{step: "A link is a row", scope: dirs("internal/channel"), match: field{strct: "row", line: `\*port\b`},
		msg: "a *port field in internal/channel's slot or row — a slot names its link by int32 row, and a row holds no pointer",
		bad: input{"internal/channel/row.go", "package channel; type row struct { p *port }"}},
	{step: "A link is a row", scope: dirs("internal/channel"), match: field{strct: "row", line: "^(openAt|openSeq|lastDelivery|open) "},
		msg: "batch or FIFO state in internal/channel's row — a row is its counters; the open batch is the store's one record, a FIFO link's last delivery is the store's FIFO column",
		bad: input{"internal/channel/row.go", "package channel; type row struct { lastDelivery float64 }"}},
	{step: "A link is a row", scope: dirs("internal/channel"), match: field{strct: "row", line: "^(Transmissions|Stats) "},
		msg: "a transmission count in internal/channel's row — it repeats Sent on every discipline but ARQ; an ARQ store keeps its attempts in the tx column and Store.Stats fills Transmissions",
		bad: input{"internal/channel/row.go", "package channel; type row struct { Transmissions int64 }"}},

	{step: "A message in flight costs what it holds", scope: dirs("internal/channel"), match: field{strct: "Store", line: `^free \[\]`},
		msg: "a free []… field in channel.Store — a vacated slot joins the free list through its own next field, and the store counts the slots in flight",
		bad: input{"internal/channel/free.go", "package channel; type Store struct { free []int32 }"}},

	{step: "A node counts nothing", scope: dirs("internal/core"), match: field{strct: "ElectionNode", line: "^[A-Z]"},
		msg: "an exported field on core.ElectionNode — a per-node counter costs 8 B on every node of a ring; count into the ring's Tally in ElectionParams",
		bad: input{"internal/core/node.go", "package core; type ElectionNode struct { Activations int }"}},

	{step: "One Context per network", scope: dirs("internal/network"), match: slice{`\*?Context`},
		msg: "internal/network keeps a Context per node again — a node's stream is a row of nodeRNG, and Network.enter points the network's one Context at the node it dispatches",
		bad: input{"internal/network/contexts.go", "package network; type contexts struct { ctx []*Context }"}},

	{step: "Deferred work is data", scope: dirs("internal/network/network.go", "internal/channel"), match: call{name: "AtFunc|AfterFunc"},
		msg: "an AtFunc/AfterFunc call site in internal/network/network.go or internal/channel — park the call in the slab (park, hold) or the message in the store instead of building a closure per event",
		bad: input{"internal/channel/timer.go", "package channel; func (s *Store) arm(k *sim.Kernel) { k.AfterFunc(1, func() {}) }"}},
	{step: "Deferred work is data", scope: dirs("internal/network/network.go", "internal/network/lifecycle.go"),
		match: ident{name: "(?i).*epoch.*", lits: true},
		msg:   "an epoch identifier in internal/network — a crash is lifecycle.crashSeq, the kernel's sequence number at the crash, and stale work is read off kernel.EventSeq, not carried in a record",
		bad:   input{"internal/network/lifecycle.go", "package network; type parked struct { epoch uint32 }"}},
	{step: "Deferred work is data", scope: dirs("internal/network/network.go", "internal/network/lifecycle.go"), match: ident{name: ".*deferWork.*"},
		msg: "deferWork is back — a waiting call is parked as it is; staleness is read off the kernel event that ends the wait",
		bad: input{"internal/network/network.go", "package network; func (n *Network) deferWork() {}"}},

	{step: "Claims are values", scope: dirs("internal/experiments"), match: lit{`harness\.Sweep$`}, min: 1, max: 1,
		msg: "harness.Sweep{ literals in non-test internal/experiments, want 1 — a sweep is an arm of a claim; part.measure builds it",
		bad: input{"internal/experiments/e99.go", `package experiments; var sweep = harness.Sweep{Name: "again"}`}},
	{step: "Claims are values", scope: dirs("internal/experiments"), match: funcDecl{name: "E[0-9]+.*"},
		msg: "a per-experiment function is back — add an entry to the claim table (claims.go) instead",
		bad: input{"internal/experiments/e99.go", "package experiments; func E99() {}"}},
	{step: "Claims are values", scope: dirs("internal/experiments"), match: field{strct: "Result", line: `harness\.Table`}, min: 1, max: 1,
		msg: "table fields in experiments.Result, want the one Tables slice",
		bad: input{"internal/experiments/e99.go", "package experiments; type Result struct { Extra harness.Table }"}},

	{step: "A document is decoded once per service", scope: dirs("internal/service"), match: call{name: "Clone", noArgs: true},
		msg: "a .Clone() in internal/service — decode gives each job its own copy of the spec",
		bad: input{"internal/service/copy.go", "package service; func (j *job) copySpec() { j.spec.Clone() }"}},
	{step: "A document is decoded once per service", scope: dirs("internal/service"), match: call{x: "spec", name: "DecodeBytes"}, max: 1,
		msg: "spec.DecodeBytes call sites in non-test internal/service, want the one in Service.decode",
		bad: input{"internal/service/again.go", "package service; func again(b []byte) { spec.DecodeBytes(b) }"}},
	{step: "A document is decoded once per service", scope: dirs("internal/service").withTests(), match: ident{name: "SetIndent"},
		msg: "SetIndent in internal/service — responses are compact, and stored result bytes go in unchanged",
		bad: input{"internal/service/http_test.go", `package service; func pretty(e *json.Encoder) { e.SetIndent("", "  ") }`}},
	{step: "A document is decoded once per service", scope: dirs("internal/service"),
		match: call{name: "Marshal", arg0: `^\(\*resultFields\)`}, min: 1, max: 1,
		msg: "reflection marshals of a result body in internal/service, want the one in Result.encode (the worker's)",
		bad: input{"internal/service/again.go", "package service; func (r *Result) again() { json.Marshal((*resultFields)(r)) }"}},
	{step: "A document is decoded once per service", scope: dirs("internal/service"),
		match: call{x: "json", name: "Marshal", arg0: `^(res|j\.result|v\.Result)$`},
		msg:   "a reflection marshal of a result body in internal/service, want the one in Result.encode (the worker's)",
		bad:   input{"internal/service/again.go", "package service; func body(res *Result) { json.Marshal(res) }"}},
	{step: "A document is decoded once per service", scope: dirs("internal/service"), match: call{x: "persist", name: "Put|Get"},
		inside: &funcDecl{name: ".*Locked"},
		msg:    "persistent-tier I/O in a function that runs under s.mu — load before locking, write through after unlocking",
		bad:    input{"internal/service/locked.go", "package service; func (s *Service) storeLocked(k string) { s.cache.persist.Put(k, nil) }"}},
	{step: "A document is decoded once per service", scope: dirs("internal/service"), match: call{x: "persist", name: "Put|Get"},
		inside: &funcDecl{doc: `hold\s+s\.mu`},
		msg:    "persistent-tier I/O in a function that runs under s.mu — load before locking, write through after unlocking",
		bad:    input{"internal/service/locked.go", "package service\n\n// touch reads through. Callers hold s.mu.\nfunc (c *tieredCache) touch(k string) { c.persist.Get(k) }"}},
	{step: "A document is decoded once per service", scope: dirs("internal/service"),
		match: lockedIO{lock: "s.mu", io: call{x: "persist", name: "Put|Get"}},
		msg:   "persistent-tier I/O while s.mu is held, in the locked span or in a function it calls — load before locking, write through after unlocking",
		bad: input{"internal/service/locked.go", "package service\n\nfunc (c *tieredCache) read(k string) { c.persist.Get(k) }\n\n" +
			"func (s *Service) lookup(k string) {\n\ts.mu.Lock()\n\tdefer s.mu.Unlock()\n\ts.cache.read(k)\n}"}},

	{step: "No per-event hook in the kernel", scope: dirs("internal/sim"),
		match: field{strct: "Kernel", line: `func[\s(]|Handler`, except: `handlers \[\]ArgHandler|closures \[\]Handler`},
		msg:   "sim.Kernel holds a func beside its handler tables — a per-event hook",
		bad:   input{"internal/sim/observe.go", "package sim; type Kernel struct { observer func(ev int) }"}},
	{step: "No per-event hook in the kernel", scope: dirs("internal/sim"), match: ident{name: ".*SetObserver.*"},
		msg: "sim.Kernel takes a func to call back — a per-event hook",
		bad: input{"internal/sim/observe.go", "package sim; func (k *Kernel) SetObserver(o Observer) {}"}},
	{step: "No per-event hook in the kernel", scope: dirs("internal/sim"), match: funcDecl{recv: `\*Kernel`, name: "(Set|Add|On)[A-Z].*", params: "func"},
		msg: "sim.Kernel takes a func to call back — a per-event hook",
		bad: input{"internal/sim/observe.go", "package sim; func (k *Kernel) OnEvent(f func()) {}"}},

	{step: "A run hands on its arrays once", scope: dirs("...").but("internal/runner/substrate.go"), match: call{name: "Release", noArgs: true},
		msg: "Release called outside internal/runner/substrate.go — a network's arrays go to the next run only from runNetwork, after a run that returned normally",
		bad: input{"internal/runner/engine.go", "package runner; func done(net *network.Network) { net.Release() }"}},
	{step: "A run hands on its arrays once", scope: dirs("internal/runner/substrate.go"), match: call{name: "Release", noArgs: true}, min: 1, max: 1,
		msg: "Release calls in internal/runner/substrate.go, want exactly one: runNetwork's, after the harvest",
		bad: input{"internal/runner/substrate.go", "package runner; func runNetwork(net *network.Network) {\n\tnet.Release()\n\tnet.Release()\n}"}},
}

func TestDesignRules(t *testing.T) {
	files := moduleFiles(t)
	for _, r := range designRules {
		t.Run(r.step, func(t *testing.T) {
			if problems := r.check(files); len(problems) > 0 {
				t.Error(strings.Join(problems, "\n"))
			}
		})
	}
}

// TestDesignRulesCanFail holds each rule to its failing input, added to the
// module's files, and to a failure when its scope holds no file or, for a
// rule with a subject (a struct, a named file, an enclosing function or a
// required site), when the subject is gone.
func TestDesignRulesCanFail(t *testing.T) {
	files := moduleFiles(t)
	for _, r := range designRules {
		t.Run(r.step, func(t *testing.T) {
			bad := parseFile(t, r.bad.path, r.bad.src)
			tree := slices.DeleteFunc(slices.Clone(files), func(f *srcFile) bool { return f.path == bad.path })
			if got := strings.Join(r.check(append(tree, bad)), "\n"); !strings.Contains(got, bad.path+":") {
				t.Errorf("does not flag its failing input %s; it reports %q", bad.path, got)
			}
			if len(r.check(nil)) == 0 {
				t.Error("passes with no file in scope")
			}
			stub := parseFile(t, bad.path, "package "+bad.ast.Name.Name)
			if r.hasSubject() && len(r.check([]*srcFile{stub})) == 0 {
				t.Errorf("passes with its subject gone, on %s holding only a package clause", bad.path)
			}
		})
	}
}

// check runs r over files and returns what breaks it, one problem a string.
func (r designRule) check(files []*srcFile) []string {
	var in []*srcFile
	for _, f := range files {
		if r.scope.holds(f.path) && (r.when == nil || len(r.when.sites(f)) > 0) {
			in = append(in, f)
		}
	}
	if len(in) == 0 {
		return []string{"its scope holds no file"}
	}
	var problems []string
	match := r.match
	if m, ok := match.(scoped); ok {
		var problem string
		if match, problem = m.within(in); problem != "" {
			problems = append(problems, problem)
		}
	}
	for _, p := range r.scope.paths {
		if strings.HasSuffix(p, ".go") && !slices.ContainsFunc(in, func(f *srcFile) bool { return f.path == p }) {
			problems = append(problems, p+" is gone")
		}
	}
	if m, ok := r.match.(field); ok && !slices.ContainsFunc(in, func(f *srcFile) bool { return len(m.structs(f)) > 0 }) {
		problems = append(problems, "type "+m.strct+" struct is gone")
	}
	if r.inside != nil && !slices.ContainsFunc(in, func(f *srcFile) bool { return len(r.inside.sites(f)) > 0 }) {
		problems = append(problems, fmt.Sprintf("no function %+v in scope", *r.inside))
	}
	var sites []string
	for _, f := range in {
		for _, s := range match.sites(f) {
			if r.inside != nil && (s.fn == nil || !r.inside.is(f, s.fn)) || r.outside != nil && s.fn != nil && r.outside.is(f, s.fn) {
				continue
			}
			sites = append(sites, "\t"+f.where(s.pos))
		}
	}
	sites = slices.Compact(sites) // one line per source line, as grep prints it
	if len(sites) < r.min || len(sites) > r.max {
		msg := r.msg
		if r.max > 0 {
			msg = fmt.Sprintf("%d %s", len(sites), msg)
		}
		problems = append(problems, strings.Join(append([]string{msg}, sites...), "\n"))
	}
	return problems
}

// hasSubject reports whether r needs something besides a file in scope:
// a struct, a named file, an enclosing function, a site, or what a scoped
// matcher reads the scope for.
func (r designRule) hasSubject() bool {
	_, isField := r.match.(field)
	_, isScoped := r.match.(scoped)
	return isField || isScoped || r.inside != nil || r.min > 0 || slices.ContainsFunc(r.scope.paths, func(p string) bool { return strings.HasSuffix(p, ".go") })
}

// scope names the files a rule reads, by module-relative path: a package
// directory ("internal/runner", "." for the root), a tree ("cmd/...", and
// "..." for the whole module) or a file ("internal/network/network.go").
// Test files are read only with tests set, and no file under a skip prefix
// is read.
type scope struct {
	paths []string
	tests bool
	skip  []string
}

func dirs(paths ...string) scope         { return scope{paths: paths} }
func (s scope) withTests() scope         { s.tests = true; return s }
func (s scope) but(skip ...string) scope { s.skip = skip; return s }

func (s scope) holds(file string) bool {
	if strings.HasSuffix(file, "_test.go") && !s.tests {
		return false
	}
	for _, p := range s.skip {
		if strings.HasPrefix(file, p) {
			return false
		}
	}
	for _, p := range s.paths {
		tree, isTree := strings.CutSuffix(p, "...")
		if file == p || path.Dir(file) == p || isTree && strings.HasPrefix(file, tree) {
			return true
		}
	}
	return false
}

// A matcher finds the sites of a file that break a rule. Names match in
// full (an empty pattern matches any name); the text of a comment, a type,
// an argument, a parameter list or a doc comment matches anywhere.
type matcher interface{ sites(f *srcFile) []site }

// site is a position a matcher flags, with the top-level function
// declaration that encloses it (nil outside any).
type site struct {
	pos token.Pos
	fn  *ast.FuncDecl
}

// comment flags a comment line whose text matches.
type comment struct{ text string }

func (m comment) sites(f *srcFile) (s []site) {
	for _, g := range f.ast.Comments {
		for _, c := range g.List {
			if contains(m.text, c.Text) {
				s = append(s, site{pos: c.Pos()})
			}
		}
	}
	return s
}

// pkg flags a package clause with a matching name.
type pkg struct{ name string }

func (m pkg) sites(f *srcFile) []site {
	if named(m.name, f.ast.Name.Name) {
		return []site{{pos: f.ast.Package}}
	}
	return nil
}

// imports flags an import of a matching path.
type imports struct{ path string }

func (m imports) sites(f *srcFile) (s []site) {
	for _, im := range f.ast.Imports {
		if p, err := strconv.Unquote(im.Path.Value); err == nil && named(m.path, p) {
			s = append(s, site{pos: im.Pos()})
		}
	}
	return s
}

// ident flags an identifier with a matching name, or with x set a selector
// x.name (x matching the last name of the selector's operand); with lits
// set, also a string literal whose value matches name.
type ident struct {
	x, name string
	lits    bool
}

func (m ident) sites(f *srcFile) (s []site) {
	f.inspect(func(n ast.Node, fn *ast.FuncDecl) {
		var hit bool
		switch n := n.(type) {
		case *ast.Ident:
			hit = m.x == "" && named(m.name, n.Name)
		case *ast.SelectorExpr:
			hit = m.x != "" && named(m.x, lastName(n.X)) && named(m.name, n.Sel.Name)
		case *ast.BasicLit:
			v, err := strconv.Unquote(n.Value)
			hit = m.lits && n.Kind == token.STRING && err == nil && named(m.name, v)
		}
		if hit {
			s = append(s, site{n.Pos(), fn})
		}
	})
	return s
}

// call flags a call of x.name(…), x matching the last name of the callee's
// operand (Topology in s.Topology.Build(…)); with x empty, any callee named
// name. noArgs keeps only calls without arguments, and arg0, if set, must
// match the first argument's text.
type call struct {
	x, name, arg0 string
	noArgs        bool
}

func (m call) sites(f *srcFile) (s []site) {
	f.inspect(func(n ast.Node, fn *ast.FuncDecl) {
		if c, ok := n.(*ast.CallExpr); ok && m.is(f, c) {
			s = append(s, site{c.Pos(), fn})
		}
	})
	return s
}

func (m call) is(f *srcFile, c *ast.CallExpr) bool {
	if m.noArgs && len(c.Args) > 0 || m.arg0 != "" && (len(c.Args) == 0 || !contains(m.arg0, f.text(c.Args[0]))) {
		return false
	}
	x, name := callee(c)
	return named(m.x, x) && named(m.name, name)
}

// callee returns the name a call's function ends in and the last name of
// its operand: ("", "f") for f(…), ("Topology", "Build") for
// s.Topology.Build(…).
func callee(c *ast.CallExpr) (x, name string) {
	switch fun := c.Fun.(type) {
	case *ast.Ident:
		return "", fun.Name
	case *ast.SelectorExpr:
		return lastName(fun.X), fun.Sel.Name
	}
	return "", ""
}

// A scoped matcher reads the whole scope before it reads a file: within
// returns the matcher to run on each file, and a problem if the scope lacks
// what the matcher is about.
type scoped interface {
	within(in []*srcFile) (matcher, string)
}

// lockedIO flags a call made while a mutex is held — after lock.Lock() and
// before its lock.Unlock(), or to the end of the function after a deferred
// Unlock — that is io, or that calls by name a function of the scope whose
// body holds io: one hop, the callee's own calls are not followed. The lock
// is followed through each function's statements in order: an Unlock in a
// branch that returns releases it for that branch alone, and after a branch
// it is held if any branch that goes on leaves it held. A function literal
// is a function of its own, starting unlocked, and a go statement runs
// unlocked. The rule fails if the scope never takes the lock.
type lockedIO struct {
	lock string // the mutex, as written: "s.mu"
	io   call
	does map[string]bool // the names of the scope's functions whose bodies hold io; set by within
}

func (m lockedIO) within(in []*srcFile) (matcher, string) {
	m.does = map[string]bool{}
	locks := false
	for _, f := range in {
		for _, s := range m.io.sites(f) {
			if s.fn != nil {
				m.does[s.fn.Name.Name] = true
			}
		}
		f.inspect(func(n ast.Node, _ *ast.FuncDecl) {
			c, ok := n.(*ast.CallExpr)
			locks = locks || ok && f.text(c.Fun) == m.lock+".Lock"
		})
	}
	if !locks {
		return m, "no " + m.lock + ".Lock() in scope"
	}
	return m, ""
}

func (m lockedIO) sites(f *srcFile) (s []site) {
	f.inspect(func(n ast.Node, fn *ast.FuncDecl) {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				m.walk(f, fn, n.Body.List, false, &s)
			}
		case *ast.FuncLit:
			m.walk(f, fn, n.Body.List, false, &s)
		}
	})
	return s
}

// walk follows the lock through list, from held, and flags what list calls
// while it is held. It returns whether the lock is held after list and
// whether list ends in a jump (return, break, continue, goto, panic), after
// which the statements that follow it do not run.
func (m lockedIO) walk(f *srcFile, fn *ast.FuncDecl, list []ast.Stmt, held bool, s *[]site) (after, jumps bool) {
	for _, st := range list {
		switch st := st.(type) {
		case *ast.ExprStmt:
			if c, ok := st.X.(*ast.CallExpr); ok {
				switch f.text(c.Fun) {
				case m.lock + ".Lock":
					held = true
					continue
				case m.lock + ".Unlock":
					held = false
					continue
				case "panic":
					m.flag(f, fn, st, held, s)
					return held, true
				}
			}
			m.flag(f, fn, st, held, s)
		case *ast.DeferStmt:
			if f.text(st.Call.Fun) != m.lock+".Unlock" { // a deferred Unlock leaves the lock held to the end
				m.flag(f, fn, st, held, s)
			}
		case *ast.GoStmt:
		case *ast.ReturnStmt, *ast.BranchStmt:
			m.flag(f, fn, st, held, s)
			return held, true
		case *ast.BlockStmt:
			if held, jumps = m.walk(f, fn, st.List, held, s); jumps {
				return held, true
			}
		case *ast.LabeledStmt:
			if held, jumps = m.walk(f, fn, []ast.Stmt{st.Stmt}, held, s); jumps {
				return held, true
			}
		case *ast.IfStmt:
			held, _ = m.walk(f, fn, stmts(st.Init), held, s)
			m.flag(f, fn, st.Cond, held, s)
			body, bodyJumps := m.walk(f, fn, st.Body.List, held, s)
			other, otherJumps := held, false
			if st.Else != nil {
				other, otherJumps = m.walk(f, fn, []ast.Stmt{st.Else}, held, s)
			}
			switch {
			case bodyJumps && otherJumps:
				return held, true
			case bodyJumps:
				held = other
			case otherJumps:
				held = body
			default:
				held = body || other
			}
		case *ast.ForStmt:
			held, _ = m.walk(f, fn, stmts(st.Init), held, s)
			m.flag(f, fn, st.Cond, held, s)
			body, _ := m.walk(f, fn, slices.Concat(st.Body.List, stmts(st.Post)), held, s)
			held = held || body
		case *ast.RangeStmt:
			m.flag(f, fn, st.X, held, s)
			body, _ := m.walk(f, fn, st.Body.List, held, s)
			held = held || body
		case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			held = m.branches(f, fn, st, held, s)
		default:
			m.flag(f, fn, st, held, s)
		}
	}
	return held, false
}

// branches walks a switch or select from held and returns whether the lock
// is held after it: if any clause that does not jump leaves it held, or if
// no clause may run and it was held.
func (m lockedIO) branches(f *srcFile, fn *ast.FuncDecl, st ast.Stmt, held bool, s *[]site) bool {
	var body *ast.BlockStmt
	switch st := st.(type) {
	case *ast.SwitchStmt:
		held, _ = m.walk(f, fn, stmts(st.Init), held, s)
		m.flag(f, fn, st.Tag, held, s)
		body = st.Body
	case *ast.TypeSwitchStmt:
		held, _ = m.walk(f, fn, append(stmts(st.Init), st.Assign), held, s)
		body = st.Body
	case *ast.SelectStmt:
		body = st.Body
	}
	after, always := false, false
	for _, c := range body.List {
		var list []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				m.flag(f, fn, e, held, s)
			}
			always = always || c.List == nil
			list = c.Body
		case *ast.CommClause:
			always = true // a select waits for one of its clauses
			list = append(stmts(c.Comm), c.Body...)
		}
		if h, jumps := m.walk(f, fn, list, held, s); !jumps {
			after = after || h
		}
	}
	return after || held && !always
}

// flag adds the calls in n that are io, or that call a function of the scope
// whose body holds io, when held; a function literal in n is not entered.
func (m lockedIO) flag(f *srcFile, fn *ast.FuncDecl, n ast.Node, held bool, s *[]site) {
	if !held || n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if _, name := callee(n); m.io.is(f, n) || m.does[name] {
				*s = append(*s, site{n.Pos(), fn})
			}
		}
		return true
	})
}

// stmts is a list of s alone, or none when s is nil.
func stmts(s ast.Stmt) []ast.Stmt {
	if s == nil {
		return nil
	}
	return []ast.Stmt{s}
}

// field flags a field of the struct type strct whose line, "name type", matches
// line and does not match except in full. An embedded field is named after its
// type. The rule fails if its scope declares no struct strct.
type field struct{ strct, line, except string }

func (m field) sites(f *srcFile) (s []site) {
	for _, st := range m.structs(f) {
		for _, fl := range st.Fields.List {
			names := fl.Names
			if len(names) == 0 {
				t := fl.Type
				if star, ok := t.(*ast.StarExpr); ok {
					t = star.X
				}
				names = []*ast.Ident{{Name: lastName(t), NamePos: fl.Type.Pos()}}
			}
			for _, nm := range names {
				line := nm.Name + " " + f.text(fl.Type)
				if contains(m.line, line) && (m.except == "" || !named(m.except, line)) {
					s = append(s, site{pos: nm.Pos()})
				}
			}
		}
	}
	return s
}

// structs returns f's declarations of the struct type m.strct.
func (m field) structs(f *srcFile) (sts []*ast.StructType) {
	for _, d := range f.ast.Decls {
		if g, ok := d.(*ast.GenDecl); ok {
			for _, spec := range g.Specs {
				if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.Name == m.strct {
					if st, ok := ts.Type.(*ast.StructType); ok {
						sts = append(sts, st)
					}
				}
			}
		}
	}
	return sts
}

// funcDecl flags a top-level function declaration whose name and receiver
// type match and whose parameter list and doc comment contain params and doc.
type funcDecl struct{ name, recv, params, doc string }

func (m funcDecl) is(f *srcFile, fd *ast.FuncDecl) bool {
	recv := ""
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		recv = f.text(fd.Recv.List[0].Type)
	}
	return named(m.name, fd.Name.Name) && named(m.recv, recv) && contains(m.params, f.text(fd.Type.Params)) && contains(m.doc, fd.Doc.Text())
}

func (m funcDecl) sites(f *srcFile) (s []site) {
	for _, d := range f.ast.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && m.is(f, fd) {
			s = append(s, site{fd.Name.Pos(), fd})
		}
	}
	return s
}

// lit flags a composite literal whose type's text matches.
type lit struct{ typ string }

func (m lit) sites(f *srcFile) (s []site) {
	f.inspect(func(n ast.Node, fn *ast.FuncDecl) {
		if c, ok := n.(*ast.CompositeLit); ok && c.Type != nil && contains(m.typ, f.text(c.Type)) {
			s = append(s, site{c.Pos(), fn})
		}
	})
	return s
}

// slice flags a slice type whose element type's text matches elem in full.
type slice struct{ elem string }

func (m slice) sites(f *srcFile) (s []site) {
	f.inspect(func(n ast.Node, fn *ast.FuncDecl) {
		if a, ok := n.(*ast.ArrayType); ok && a.Len == nil && named(m.elem, f.text(a.Elt)) {
			s = append(s, site{a.Pos(), fn})
		}
	})
	return s
}

// lastName returns the name an operand ends in: x for x, Sel for a.Sel.
func lastName(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return x.Sel.Name
	}
	return ""
}

var patterns sync.Map // pattern → *regexp.Regexp

func rx(pattern string) *regexp.Regexp {
	if re, ok := patterns.Load(pattern); ok {
		return re.(*regexp.Regexp)
	}
	re := regexp.MustCompile(pattern)
	patterns.Store(pattern, re)
	return re
}

func named(pattern, name string) bool {
	return pattern == "" || rx("^(?:"+pattern+")$").MatchString(name)
}

func contains(pattern, text string) bool { return pattern == "" || rx(pattern).MatchString(text) }

// srcFile is one parsed Go file of the module.
type srcFile struct {
	path string // slash-separated, relative to the module root
	src  []byte
	tf   *token.File
	ast  *ast.File
}

// inspect calls visit on every node of f's declarations, with the top-level
// function declaration that encloses it (nil outside any).
func (f *srcFile) inspect(visit func(n ast.Node, fn *ast.FuncDecl)) {
	for _, d := range f.ast.Decls {
		fn, _ := d.(*ast.FuncDecl)
		ast.Inspect(d, func(n ast.Node) bool {
			if n != nil {
				visit(n, fn)
			}
			return true
		})
	}
}

// text returns n's source.
func (f *srcFile) text(n ast.Node) string {
	return string(f.src[f.tf.Offset(n.Pos()):f.tf.Offset(n.End())])
}

// where returns "path:line: source line" for p, as grep prints a match.
func (f *srcFile) where(p token.Pos) string {
	n := f.tf.Line(p)
	line := f.src[f.tf.Offset(f.tf.LineStart(n)):]
	if i := bytes.IndexByte(line, '\n'); i >= 0 {
		line = line[:i]
	}
	return fmt.Sprintf("%s:%d: %s", f.path, n, bytes.TrimSpace(line))
}

func parseFile(t testing.TB, path string, src string) *srcFile {
	t.Helper()
	f, err := parseSource(path, []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func parseSource(path string, src []byte) (*srcFile, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	return &srcFile{path: path, src: src, tf: fset.File(f.Package), ast: f}, nil
}

// loadModule parses every Go file of the module but this one, once.
var loadModule = sync.OnceValues(func() (files []*srcFile, err error) {
	err = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || p == "design_test.go" {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		f, err := parseSource(filepath.ToSlash(p), src)
		if err == nil {
			files = append(files, f)
		}
		return err
	})
	return files, err
})

func moduleFiles(t *testing.T) []*srcFile {
	t.Helper()
	files, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	return files
}
