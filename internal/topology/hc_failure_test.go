package topology

import (
	"strings"
	"sync"
	"testing"

	"abenet/internal/rng"
)

// TestHamiltonianCycleFailurePaths pins the graphs ring protocols must
// reject: stars and trees have no directed Hamiltonian cycle, and the
// error must say so clearly rather than leaking a search detail.
func TestHamiltonianCycleFailurePaths(t *testing.T) {
	// A random tree: every spanning-tree skeleton from RandomConnected
	// with no extra edges is a tree, and no tree with n >= 3 has a cycle
	// through all nodes (any leaf has degree 1).
	tree := RandomConnected(9, 0, rng.New(4))

	cases := map[string]*Graph{
		"star":  Star(6),
		"line":  Line(5),
		"tree":  tree,
		"star3": Star(3),
	}
	for name, g := range cases {
		t.Run(name, func(t *testing.T) {
			if order, ok := g.HamiltonianCycle(); ok {
				t.Fatalf("found a cycle %v in a graph that has none", order)
			}
			_, err := g.RingEmbedding()
			if err == nil {
				t.Fatal("RingEmbedding accepted an acyclic topology")
			}
			msg := err.Error()
			if !strings.Contains(msg, "embeds no directed Hamiltonian cycle") ||
				!strings.Contains(msg, "ring protocols") {
				t.Fatalf("error %q does not explain the failure", msg)
			}
		})
	}
}

// TestRingEmbeddingErrorIsCachedPerGraph pins the cache contract on the
// failure path: repeated lookups on the same graph return the same error
// without rerunning the search, and one graph's failure must not poison
// lookups on other graphs.
func TestRingEmbeddingErrorIsCachedPerGraph(t *testing.T) {
	star := Star(6)
	_, err1 := star.RingEmbedding()
	_, err2 := star.RingEmbedding()
	if err1 == nil || err2 == nil {
		t.Fatal("star must fail")
	}
	if err1 != err2 { // the identical cached error object, not a rerun
		t.Fatalf("cache rebuilt the error: %v vs %v", err1, err2)
	}

	// Other graphs — including ones probed after the failure — are
	// unaffected: the cache is per graph, not package-global.
	ring := Ring(6)
	ports, err := ring.RingEmbedding()
	if err != nil {
		t.Fatalf("ring lookup poisoned by star failure: %v", err)
	}
	for i, p := range ports {
		if p != 0 {
			t.Fatalf("ring port[%d] = %d, want 0", i, p)
		}
	}
	if _, err := star.RingEmbedding(); err == nil {
		t.Fatal("star's cached failure lost after another graph's success")
	}
}

// TestRingEmbeddingFailureCacheConcurrent exercises the failure path from
// concurrent sweep-like callers under the race detector.
func TestRingEmbeddingFailureCacheConcurrent(t *testing.T) {
	star := Star(8)
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = star.RingEmbedding()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("goroutine %d saw no error", i)
		}
		if err != errs[0] {
			t.Fatalf("goroutine %d saw a different error object", i)
		}
	}
}
