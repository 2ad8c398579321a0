package spec

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"abenet/internal/allocbudget"
	"abenet/internal/dist"
	"abenet/internal/harness"
	"abenet/internal/runner"
	"abenet/internal/topology"
)

const fixtureDir = "../../examples/specs"

// fixturePaths returns every committed spec fixture.
func fixturePaths(t testing.TB) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(fixtureDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatalf("no spec fixtures under %s", fixtureDir)
	}
	return paths
}

// TestFixturesDecodeAndRoundTrip: every committed fixture decodes strictly,
// validates, and its canonical encoding is a fixed point of
// encode→decode→encode.
func TestFixturesDecodeAndRoundTrip(t *testing.T) {
	for _, path := range fixturePaths(t) {
		t.Run(filepath.Base(path), func(t *testing.T) {
			s, err := DecodeFile(path)
			if err != nil {
				t.Fatal(err)
			}
			mustRoundTrip(t, s)
		})
	}
}

// mustRoundTrip holds a validated spec to the codec's contract: its
// canonical encoding decodes, is a fixed point of encode→decode→encode, and
// names the same scenario.
func mustRoundTrip(t *testing.T, s *Spec) {
	t.Helper()
	c1, err := s.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := DecodeBytes(c1)
	if err != nil {
		t.Fatalf("decoding own canonical encoding %s: %v", c1, err)
	}
	c2, err := s2.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c1, c2) {
		t.Fatalf("canonical encoding is not a fixed point:\n1: %s\n2: %s", c1, c2)
	}
	h1, err := s.Hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := s2.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("hash changed across a round trip: %s vs %s", h1, h2)
	}
}

// FuzzDecode: no document makes DecodeBytes (and the Validate inside it)
// panic, and one that validates round-trips like a committed fixture and —
// a single run of at most 64 nodes — runs (mustRun). The fixtures and the
// documents of refusedDocs are the seed corpus; the edge budget is what
// keeps a mutated size from costing more than the refusal.
func FuzzDecode(f *testing.F) {
	for _, path := range fixturePaths(f) {
		doc, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
	}
	for _, tc := range refusedDocs {
		f.Add([]byte(tc.doc))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		if s, err := DecodeBytes(doc); err == nil {
			mustRoundTrip(t, s)
			mustRun(t, s)
		}
	})
}

// TestHashIdentifiesScenario: the hash is invariant under whitespace, field
// order, seed and sweep workers — and sensitive to everything else.
func TestHashIdentifiesScenario(t *testing.T) {
	base := `{
	  "version": 1,
	  "env": {"n": 16, "delay": {"name": "exponential", "params": {"mean": 1}}, "seed": 1},
	  "protocol": {"name": "election"}
	}`
	// Same scenario: reordered fields, different whitespace, different seed.
	same := `{"protocol":{"name":"election"},"env":{"seed":42,"delay":{"params":{"mean":1},"name":"exponential"},"n":16},"version":1}`
	// Different scenario: a different delay mean.
	diff := `{"version":1,"env":{"n":16,"delay":{"name":"exponential","params":{"mean":2}},"seed":1},"protocol":{"name":"election"}}`

	h := func(doc string) string {
		t.Helper()
		s, err := DecodeBytes([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		hash, err := s.Hash()
		if err != nil {
			t.Fatal(err)
		}
		return hash
	}
	if h(base) != h(same) {
		t.Fatal("hash depends on field order, whitespace or seed")
	}
	if h(base) == h(diff) {
		t.Fatal("hash missed a changed delay mean")
	}

	// Sweep workers are an execution hint, not scenario identity.
	sweepA := `{"version":1,"env":{"seed":1},"protocol":{"name":"election"},"sweep":{"xs":[8,16],"repetitions":3,"workers":1}}`
	sweepB := `{"version":1,"env":{"seed":1},"protocol":{"name":"election"},"sweep":{"xs":[8,16],"repetitions":3,"workers":8}}`
	if h(sweepA) != h(sweepB) {
		t.Fatal("hash depends on sweep workers")
	}
}

// TestStrictDecoding: unknown fields, names and versions fail at every
// level of the tree.
func TestStrictDecoding(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string // substring of the expected error
	}{
		{"top-level unknown field", `{"version":1,"env":{"n":4},"protocol":{"name":"election"},"bogus":1}`, "bogus"},
		{"env unknown field", `{"version":1,"env":{"n":4,"topo":"ring"},"protocol":{"name":"election"}}`, "topo"},
		{"protocol unknown option", `{"version":1,"env":{"n":4},"protocol":{"name":"election","options":{"A9":1}}}`, "A9"},
		{"dist unknown param", `{"version":1,"env":{"n":4,"delay":{"name":"exponential","params":{"rate":1}}},"protocol":{"name":"election"}}`, "rate"},
		{"unknown dist", `{"version":1,"env":{"n":4,"delay":{"name":"gaussian","params":{}}},"protocol":{"name":"election"}}`, "gaussian"},
		{"unknown topology", `{"version":1,"env":{"topology":{"name":"mesh","params":{"n":4}}},"protocol":{"name":"election"}}`, "mesh"},
		{"unknown protocol", `{"version":1,"env":{"n":4},"protocol":{"name":"raft"}}`, "raft"},
		// The deleted goroutine runtime gets no special case: the ordinary
		// rejection, listing the registry.
		{"deleted live-election", `{"version":1,"env":{"n":4},"protocol":{"name":"live-election"}}`,
			fmt.Sprintf(`spec: unknown protocol "live-election" (have %v)`, runner.Protocols())},
		{"unknown event kind", `{"version":1,"env":{"n":4,"horizon":100,"faults":{"events":[{"at":1,"kind":"explode","node":0}]}},"protocol":{"name":"election"}}`, "explode"},
		{"missing version", `{"env":{"n":4},"protocol":{"name":"election"}}`, "version"},
		{"future version", `{"version":2,"env":{"n":4},"protocol":{"name":"election"}}`, "version 2"},
		{"perfect clock with params", `{"version":1,"env":{"n":4,"clocks":{"name":"perfect","params":{"low":1}}},"protocol":{"name":"election"}}`, "no params"},
		{"trailing data", `{"version":1,"env":{"n":4},"protocol":{"name":"election"}} {}`, "trailing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeBytes([]byte(tc.doc))
			if err == nil {
				t.Fatalf("decode succeeded, want error mentioning %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestSemanticValidation: component construction and environment rules are
// enforced at decode time, so a decoded spec is always runnable.
func TestSemanticValidation(t *testing.T) {
	cases := []struct {
		name string
		doc  string
	}{
		{"negative exponential mean", `{"version":1,"env":{"n":4,"delay":{"name":"exponential","params":{"mean":-1}}},"protocol":{"name":"election"}}`},
		{"loss of 1", `{"version":1,"env":{"n":4,"horizon":10,"faults":{"loss":1}},"protocol":{"name":"election"}}`},
		{"event edge not in ring", `{"version":1,"env":{"n":8,"horizon":10,"faults":{"events":[{"at":1,"kind":"link-down","from":3,"to":2}]}},"protocol":{"name":"election"}}`},
		{"both n and topology", `{"version":1,"env":{"n":4,"topology":{"name":"ring","params":{"n":4}}},"protocol":{"name":"election"}}`},
		{"sweep with topology", `{"version":1,"env":{"topology":{"name":"ring","params":{"n":4}}},"protocol":{"name":"election"},"sweep":{"xs":[8]}}`},
		{"sweep with fractional size", `{"version":1,"env":{},"protocol":{"name":"election"},"sweep":{"xs":[8.5]}}`},
		{"sweep with no sizes", `{"version":1,"env":{},"protocol":{"name":"election"},"sweep":{"xs":[]}}`},
		{"negative horizon", `{"version":1,"env":{"n":4,"horizon":-1},"protocol":{"name":"election"}}`},
		{"size too small", `{"version":1,"env":{"n":1},"protocol":{"name":"election"}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeBytes([]byte(tc.doc)); err == nil {
				t.Fatal("decode succeeded, want validation error")
			}
		})
	}

	// A fault plan on a fault-rejecting protocol is a scenario that can
	// never run, so it is rejected at decode time with the runner's own
	// typed error (the protocol's capability declaration knows).
	doc := `{"version":1,"env":{"n":4,"horizon":10,"faults":{"loss":0.1}},"protocol":{"name":"peterson"}}`
	if _, err := DecodeBytes([]byte(doc)); !errors.Is(err, runner.ErrFaultsUnsupported) {
		t.Fatalf("fault plan on peterson: decode = %v, want ErrFaultsUnsupported", err)
	}
}

// TestSpecRunMatchesDirectRun: the acceptance-criterion core — a spec run
// and a hand-built runner.Run of the same scenario produce the identical
// Report.
func TestSpecRunMatchesDirectRun(t *testing.T) {
	s, err := DecodeFile(filepath.Join(fixtureDir, "election_ring.json"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	want, err := runner.Run(runner.Env{
		N:     16,
		Delay: dist.NewExponential(1),
		Seed:  1,
	}, runner.Election{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("spec run diverged from direct run:\nspec:   %+v\ndirect: %+v", got, want)
	}
	gm, _ := json.Marshal(got.Metrics())
	wm, _ := json.Marshal(want.Metrics())
	if !bytes.Equal(gm, wm) {
		t.Fatalf("metrics diverged:\nspec:   %s\ndirect: %s", gm, wm)
	}
}

// TestSweepWorkerIndependence: sweep results are bit-identical for any
// worker count (the harness aggregates in canonical order and seeds are
// derived from the spec hash, not from scheduling).
func TestSweepWorkerIndependence(t *testing.T) {
	s, err := DecodeFile(filepath.Join(fixtureDir, "itai_rodeh_sweep.json"))
	if err != nil {
		t.Fatal(err)
	}
	one, err := s.RunSweep(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	four, err := s.RunSweep(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(SweepView(one, s.Sweep.Metrics))
	b, _ := json.Marshal(SweepView(four, s.Sweep.Metrics))
	if !bytes.Equal(a, b) {
		t.Fatalf("sweep results depend on worker count:\n1: %s\n4: %s", a, b)
	}
	// The metrics filter keeps exactly the requested names.
	var views []PointView
	if err := json.Unmarshal(a, &views); err != nil {
		t.Fatal(err)
	}
	for _, v := range views {
		if len(v.Metrics) != len(s.Sweep.Metrics) {
			t.Fatalf("point at x=%g has metrics %v, want exactly %v", v.X, v.Metrics, s.Sweep.Metrics)
		}
	}
}

// TestRunSweepHonoursProtocolOptions: the sweep must execute the spec's
// decoded option struct, not the registry's zero-value default — the
// options are in the scenario hash, so they must be in the run.
func TestRunSweepHonoursProtocolOptions(t *testing.T) {
	doc := func(options string) string {
		return `{"version":1,"env":{"seed":1},"protocol":{"name":"election"` + options + `},"sweep":{"xs":[8],"repetitions":3}}`
	}
	withOpts, err := DecodeBytes([]byte(doc(`,"options":{"A0":0.9}`)))
	if err != nil {
		t.Fatal(err)
	}
	defaults, err := DecodeBytes([]byte(doc("")))
	if err != nil {
		t.Fatal(err)
	}
	got, err := withOpts.RunSweep(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := defaults.RunSweep(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Mean("activations") == plain[0].Mean("activations") &&
		got[0].Mean("time") == plain[0].Mean("time") {
		t.Fatal("A0 option had no effect on the sweep: the default instance ran instead")
	}

	// And the option run is exactly the hand-built sweep of the same
	// scenario: same hash-derived seeds, same protocol instance.
	hash, err := withOpts.Hash()
	if err != nil {
		t.Fatal(err)
	}
	want, err := harness.Sweep{Name: hash, Repetitions: 3, Workers: 1, Seed: 1}.Run(
		[]float64{8},
		func(x float64) (runner.Env, runner.Protocol, error) {
			return runner.Env{N: int(x)}, &runner.Election{A0: 0.9}, nil
		}, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(SweepView(got, nil))
	b, _ := json.Marshal(SweepView(want, nil))
	if !bytes.Equal(a, b) {
		t.Fatalf("spec sweep diverged from the hand-built sweep:\nspec: %s\nhand: %s", a, b)
	}
}

// TestMetricsFilterNeverChangesRuns: the metrics filter is view-only — two
// sweeps differing only in displayed columns simulate identical numbers
// (seeds derive from ExecutionHash, which zeroes the filter).
func TestMetricsFilterNeverChangesRuns(t *testing.T) {
	doc := func(metrics string) string {
		return `{"version":1,"env":{"seed":1},"protocol":{"name":"election"},"sweep":{"xs":[6],"repetitions":3` + metrics + `}}`
	}
	all, err := DecodeBytes([]byte(doc("")))
	if err != nil {
		t.Fatal(err)
	}
	filtered, err := DecodeBytes([]byte(doc(`,"metrics":["messages"]`)))
	if err != nil {
		t.Fatal(err)
	}
	// The cache identities differ (different reported payload)...
	h1, _ := all.Hash()
	h2, _ := filtered.Hash()
	if h1 == h2 {
		t.Fatal("metrics filter missing from the cache hash")
	}
	// ...but the execution identities — and therefore the numbers — match.
	e1, _ := all.ExecutionHash()
	e2, _ := filtered.ExecutionHash()
	if e1 != e2 {
		t.Fatalf("execution hash depends on the view filter: %s vs %s", e1, e2)
	}
	p1, err := all.RunSweep(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := filtered.RunSweep(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p1[0].Mean("messages") != p2[0].Mean("messages") || p1[0].Mean("time") != p2[0].Mean("time") {
		t.Fatalf("display filter changed simulated numbers: messages %g vs %g, time %g vs %g",
			p1[0].Mean("messages"), p2[0].Mean("messages"), p1[0].Mean("time"), p2[0].Mean("time"))
	}
}

// TestSweepResourceCeilings: one request cannot demand unbounded work.
func TestSweepResourceCeilings(t *testing.T) {
	for name, doc := range map[string]string{
		"workers":     `{"version":1,"env":{"seed":1},"protocol":{"name":"election"},"sweep":{"xs":[8],"workers":2000000000}}`,
		"repetitions": `{"version":1,"env":{"seed":1},"protocol":{"name":"election"},"sweep":{"xs":[8],"repetitions":2000000000}}`,
		"size":        `{"version":1,"env":{"seed":1},"protocol":{"name":"election"},"sweep":{"xs":[1048577]}}`,
		"total runs":  `{"version":1,"env":{"seed":1},"protocol":{"name":"election"},"sweep":{"xs":[8,16,32,64,128,256,512,1024,2048,4096,8192],"repetitions":1000000}}`,
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := DecodeBytes([]byte(doc)); err == nil {
				t.Fatal("unbounded sweep passed validation")
			}
		})
	}
}

// TestEdgeBudget: a document of a hundred bytes cannot make Validate (which
// runs on abe-serve's HTTP goroutine, before admission) or a worker lay out
// a graph of 10¹⁰ edges. The refusal is computed from the parameters — it
// costs no time and no memory — and wraps ErrEdgeBudget; every committed
// spec stays inside the budget.
func TestEdgeBudget(t *testing.T) {
	for name, doc := range map[string]string{
		"complete":       `{"version":1,"env":{"topology":{"name":"complete","params":{"n":100000}}},"protocol":{"name":"election"}}`,
		"hypercube":      `{"version":1,"env":{"topology":{"name":"hypercube","params":{"dim":40}}},"protocol":{"name":"election"}}`,
		"torus":          `{"version":1,"env":{"topology":{"name":"torus","params":{"rows":100000,"cols":100000}}},"protocol":{"name":"clock-sync"}}`,
		"torus overflow": `{"version":1,"env":{"topology":{"name":"torus","params":{"rows":4294967296,"cols":4294967296}}},"protocol":{"name":"clock-sync"}}`,
		"ring":           `{"version":1,"env":{"n":9000000000000000000},"protocol":{"name":"election"}}`,
		"ben-or bare n":  `{"version":1,"env":{"n":100000},"protocol":{"name":"ben-or"}}`,
		"ben-or sweep":   `{"version":1,"env":{"seed":1},"protocol":{"name":"ben-or"},"sweep":{"xs":[8,100000],"repetitions":2}}`,
	} {
		t.Run(name, func(t *testing.T) {
			var err error
			best, alloc := time.Hour, ^uint64(0)
			for range 5 { // the cost of the refusal, not of a loaded machine
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				start := time.Now()
				_, err = DecodeBytes([]byte(doc))
				best = min(best, time.Since(start))
				runtime.ReadMemStats(&after)
				alloc = min(alloc, after.TotalAlloc-before.TotalAlloc)
			}
			if !errors.Is(err, ErrEdgeBudget) || !strings.HasPrefix(err.Error(), "spec: ") {
				t.Fatalf("err = %v, want a spec: error wrapping ErrEdgeBudget", err)
			}
			if best > 10*time.Millisecond || alloc > 1<<20 {
				t.Fatalf("refusal cost %v and %d bytes, want < 10 ms and < 1 MiB", best, alloc)
			}
		})
	}
	if checkEdges(MaxEdges) != nil || checkEdges(MaxEdges+1) == nil {
		t.Fatal("the budget is not MaxEdges inclusive")
	}
	// examples/specs validate in TestFixturesDecodeAndRoundTrip; the
	// benchmark's corpus is the other committed set.
	benchmarkSpecs, err := filepath.Glob("../../benchmark/specs/*.json")
	if err != nil || len(benchmarkSpecs) == 0 {
		t.Fatalf("no benchmark specs (%v)", err)
	}
	for _, path := range benchmarkSpecs {
		if _, err := DecodeFile(path); err != nil {
			t.Errorf("%s no longer validates: %v", path, err)
		}
	}
}

// TestSweepValidatesEverySize: a fault plan valid at one sweep size and
// invalid at another is rejected at decode time regardless of size order.
func TestSweepValidatesEverySize(t *testing.T) {
	doc := `{"version":1,"env":{"seed":1,"horizon":100,"faults":{"events":[{"at":1,"kind":"crash","node":12}]}},"protocol":{"name":"election"},"sweep":{"xs":[16,8],"repetitions":2}}`
	_, err := DecodeBytes([]byte(doc))
	if err == nil {
		t.Fatal("crash of node 12 passed validation for sweep size 8")
	}
	if !strings.Contains(err.Error(), "size 8") {
		t.Fatalf("error %q does not name the offending sweep size", err)
	}
}

// TestFixturesRunnable: every committed fixture actually executes (single
// runs as-is; sweep fixtures at reduced scale is their own committed size).
func TestFixturesRunnable(t *testing.T) {
	if testing.Short() {
		t.Skip("fixture execution is not short")
	}
	for _, path := range fixturePaths(t) {
		t.Run(filepath.Base(path), func(t *testing.T) {
			s, err := DecodeFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if s.Sweep != nil {
				if _, err := s.RunSweep(0, nil); err != nil {
					t.Fatal(err)
				}
				return
			}
			rep, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Protocol != s.Protocol.Name {
				t.Fatalf("report protocol %q, spec protocol %q", rep.Protocol, s.Protocol.Name)
			}
		})
	}
}

// TestDecodeFileMissing: a missing file errors cleanly.
func TestDecodeFileMissing(t *testing.T) {
	if _, err := DecodeFile(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Fatal("want error for missing file")
	}
	if _, err := os.Stat(fixtureDir); err != nil {
		t.Fatalf("fixture dir missing: %v", err)
	}
}

// TestDecodedSpecBuildsItsGraphOnce: DecodeBytes builds the graph to check
// the scenario, and Build hands the run that graph instead of building it
// again, while anything holds it; the spec itself keeps no graph alive.
func TestDecodedSpecBuildsItsGraphOnce(t *testing.T) {
	doc := []byte(`{"version":1,"env":{"topology":{"name":"complete","params":{"n":64}},"max_rounds":5},"protocol":{"name":"ben-or"}}`)
	decodeAndBuild := func() {
		sp, err := DecodeBytes(doc)
		if err != nil {
			t.Fatal(err)
		}
		env, _, err := sp.Build()
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(env)
	}
	decodeAndBuild() // warm the codec's caches
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	graph, _ := allocbudget.Run(func() { runtime.KeepAlive(topology.Complete(64)) })
	both, _ := allocbudget.Run(decodeAndBuild)
	t.Logf("DecodeBytes + Build: %d B; one Complete(64): %d B", both, graph)
	if both >= 2*graph {
		t.Errorf("DecodeBytes + Build allocates %d B, two graphs of %d B or more", both, graph)
	}
	debug.SetGCPercent(100)

	sp, err := DecodeBytes(doc)
	if err != nil {
		t.Fatal(err)
	}
	held, _, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	again, _, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	cp := *sp
	cp.Env.Seed = 9
	copied, _, err := cp.Build()
	if err != nil {
		t.Fatal(err)
	}
	if again.Graph != held.Graph || copied.Graph != held.Graph {
		t.Fatalf("Build returned graphs %p, %p and %p (copy), want one", held.Graph, again.Graph, copied.Graph)
	}
	var wg sync.WaitGroup
	for i := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := *sp
			c.Env.Seed = uint64(i)
			env, _, err := c.Build()
			if err != nil {
				t.Error(err)
			} else if env.Graph != held.Graph {
				t.Errorf("a concurrent Build of a copy built its own graph")
			}
		}()
	}
	wg.Wait()

	// A topology set after validation is built, not answered with the
	// graph validated for the one it replaced.
	other := *sp
	other.Env.Topology = CompleteTopology(8)
	if env, _, err := other.Build(); err != nil || env.Graph.N() != 8 {
		t.Fatalf("Build after a new topology: %v, %v", env.Graph, err)
	}

	runtime.KeepAlive(held)
	held, again, copied = runner.Env{}, runner.Env{}, runner.Env{}
	runtime.GC()
	if g := sp.graph.Value(); g != nil {
		t.Fatalf("the spec keeps its %d-node graph alive once no env holds it", g.N())
	}
	env, _, err := sp.Build()
	if err != nil || env.Graph.N() != 64 {
		t.Fatalf("Build once the graph is collected: %v, %v", env.Graph, err)
	}
}
