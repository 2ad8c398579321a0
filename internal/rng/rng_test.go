package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("sequence diverged at step %d: %d != %d", i, got, want)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical outputs", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	seen := make(map[uint64]bool)
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 99 {
		t.Fatalf("zero seed produced only %d distinct values in 100 draws", len(seen))
	}
}

func TestDeriveStable(t *testing.T) {
	root := New(7)
	a1 := root.Derive("node")
	b1 := root.Derive("link")
	// Derivation order must not matter.
	root2 := New(7)
	b2 := root2.Derive("link")
	a2 := root2.Derive("node")
	for i := 0; i < 100; i++ {
		if a1.Uint64() != a2.Uint64() {
			t.Fatal("derive(node) depends on derivation order")
		}
		if b1.Uint64() != b2.Uint64() {
			t.Fatal("derive(link) depends on derivation order")
		}
	}
}

func TestDeriveIndependent(t *testing.T) {
	root := New(7)
	a := root.Derive("a")
	b := root.Derive("b")
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams a and b agree on %d/1000 outputs", same)
	}
}

func TestDeriveIndexedDistinct(t *testing.T) {
	root := New(9)
	streams := make([]*Source, 8)
	for i := range streams {
		streams[i] = root.DeriveIndexed("node", i)
	}
	first := make(map[uint64]int)
	for i, s := range streams {
		v := s.Uint64()
		if j, ok := first[v]; ok {
			t.Fatalf("streams %d and %d share first output %d", i, j, v)
		}
		first[v] = i
	}
}

// TestIndexedMatchesDeriveIndexed pins the by-value derivation the network
// layer stores in slabs to the pointer form every golden seed was recorded
// with, for each label the simulator derives per node or per edge.
func TestIndexedMatchesDeriveIndexed(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 1 << 63} {
		root := New(seed)
		for _, label := range []string{"clock", "node", "proc", "edge", "bcast"} {
			family := root.Indexed(label)
			for _, i := range []int{0, 1, 2, 63, 99_999, 1 << 40} {
				got, want := family.At(i), root.DeriveIndexed(label, i)
				if got != *want {
					t.Fatalf("seed %d: Indexed(%q).At(%d) = %+v, DeriveIndexed gives %+v", seed, label, i, got, *want)
				}
				for k := 0; k < 4; k++ {
					if a, b := got.Uint64(), want.Uint64(); a != b {
						t.Fatalf("seed %d %s/%d: draw %d differs: %d vs %d", seed, label, i, k, a, b)
					}
				}
			}
		}
	}
	// First draws of New(1).DeriveIndexed(label, 5), recorded before the
	// derivation was split into Indexed and At.
	for _, pin := range []struct {
		label string
		first uint64
	}{
		{"clock", 0xe3231e7158d1eafd},
		{"node", 0x1e66624c01d50bac},
		{"proc", 0x5e17d7a8547b0076},
		{"edge", 0x41eb12428d35ce6a},
		{"bcast", 0xaa9c680d75eaa785},
	} {
		src := New(1).Indexed(pin.label).At(5)
		if got := src.Uint64(); got != pin.first {
			t.Errorf("New(1) %s/5 first draw = %#x, want %#x", pin.label, got, pin.first)
		}
	}
	// Hoisting the label must not advance the parent either.
	a, b := New(9), New(9)
	a.Indexed("node").At(3)
	if a.Uint64() != b.Uint64() {
		t.Fatal("Indexed/At advanced the parent stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(4)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want about 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) returned %d", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < 8000 || c > 12000 {
			t.Fatalf("Intn(10) badly skewed: counts[%d] = %d", v, c)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nSmallRangeUnbiased(t *testing.T) {
	r := New(6)
	counts := make([]int, 3)
	const n = 300000
	for i := 0; i < n; i++ {
		counts[r.Uint64n(3)]++
	}
	for v, c := range counts {
		frac := float64(c) / n
		if math.Abs(frac-1.0/3.0) > 0.01 {
			t.Fatalf("Uint64n(3) skewed: P(%d) = %v", v, frac)
		}
	}
}

func TestUint64nWithinBound(t *testing.T) {
	// Property: Uint64n(n) < n for arbitrary positive n.
	r := New(99)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		return r.Uint64n(n) < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(8)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency = %v", frac)
	}
	if r.Bool(0) {
		t.Fatal("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Fatal("Bool(1) returned false")
	}
	if r.Bool(-2) {
		t.Fatal("Bool(-2) returned true")
	}
	if !r.Bool(2) {
		t.Fatal("Bool(2) returned false")
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := New(10)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("ExpFloat64 returned negative %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-1) > 0.02 {
		t.Fatalf("exponential mean = %v, want about 1", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(11)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want about 0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance = %v, want about 1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(12)
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(50)
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPermUniformish(t *testing.T) {
	// Each position should hold each value about equally often.
	r := New(13)
	const trials = 30000
	var counts [3][3]int
	for i := 0; i < trials; i++ {
		p := r.Perm(3)
		for pos, v := range p {
			counts[pos][v]++
		}
	}
	for pos := 0; pos < 3; pos++ {
		for v := 0; v < 3; v++ {
			frac := float64(counts[pos][v]) / trials
			if math.Abs(frac-1.0/3.0) > 0.02 {
				t.Fatalf("Perm(3) position %d value %d frequency %v", pos, v, frac)
			}
		}
	}
}

func TestShuffleMatchesPerm(t *testing.T) {
	a := New(14)
	b := New(14)
	p := a.Perm(20)
	s := make([]int, 20)
	for i := range s {
		s[i] = i
	}
	b.Shuffle(20, func(i, j int) { s[i], s[j] = s[j], s[i] })
	for i := range p {
		if p[i] != s[i] {
			t.Fatalf("Shuffle and Perm disagree at %d: %v vs %v", i, p, s)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkFloat64(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.Float64()
	}
	_ = sink
}

func BenchmarkDerive(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Derive("node")
	}
}
