package channel

import (
	"testing"

	"abenet/internal/dist"
	"abenet/internal/rng"
	"abenet/internal/sim"
)

// drain runs the kernel until the schedule empties.
func drain(t *testing.T, k *sim.Kernel) {
	t.Helper()
	if err := k.Run(1<<62, 0); err != nil {
		t.Fatal(err)
	}
}

func TestImpairedDropRate(t *testing.T) {
	k := sim.New()
	delivered := 0
	inner := NewRandomDelay(k, dist.NewDeterministic(1), rng.New(1), func(any) { delivered++ })
	l := NewImpaired(k, inner, Impairment{Drop: 0.25}, rng.New(2))
	const n = 20000
	for i := 0; i < n; i++ {
		l.Send(i)
	}
	drain(t, k)
	st := l.ImpairmentStats()
	if st.Dropped == 0 || st.Duplicated != 0 || st.Delayed != 0 {
		t.Fatalf("stats = %+v", st)
	}
	rate := float64(st.Dropped) / n
	if rate < 0.23 || rate > 0.27 {
		t.Fatalf("drop rate %.4f far from 0.25", rate)
	}
	if got := uint64(delivered) + st.Dropped; got != n {
		t.Fatalf("delivered %d + dropped %d != sent %d", delivered, st.Dropped, n)
	}
	// The physical link never saw the dropped messages.
	if l.Stats().Sent != uint64(delivered) {
		t.Fatalf("inner Sent = %d, want %d", l.Stats().Sent, delivered)
	}
}

func TestImpairedDuplicateAndDelay(t *testing.T) {
	k := sim.New()
	delivered := 0
	inner := NewRandomDelay(k, dist.NewExponential(1), rng.New(3), func(any) { delivered++ })
	l := NewImpaired(k, inner, Impairment{Duplicate: 0.5, Delay: 0.5, ExtraDelay: dist.NewDeterministic(10)}, rng.New(4))
	const n = 10000
	for i := 0; i < n; i++ {
		l.Send(i)
	}
	drain(t, k)
	st := l.ImpairmentStats()
	if st.Duplicated == 0 || st.Delayed == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if got, want := uint64(delivered), n+st.Duplicated; got != want {
		t.Fatalf("delivered %d, want %d (n + duplicates)", got, want)
	}
	dupRate := float64(st.Duplicated) / n
	if dupRate < 0.46 || dupRate > 0.54 {
		t.Fatalf("duplicate rate %.4f far from 0.5", dupRate)
	}
}

// TestImpairedComposesWithARQ pins the tentpole composition: loss
// injection wraps a lossy ARQ link, and the ARQ's own retransmission
// accounting keeps working underneath.
func TestImpairedComposesWithARQ(t *testing.T) {
	k := sim.New()
	delivered := 0
	factory := ImpairedFactory(ARQFactory(0.5, 1), Impairment{Drop: 0.2})
	l := factory(NewStore(k, DeliverFunc(func(any) { delivered++ })), 0, rng.New(7))
	imp, ok := l.(*Impaired)
	if !ok {
		t.Fatalf("factory built %T, want *Impaired", l)
	}
	if _, ok := imp.Inner().(*ARQ); !ok {
		t.Fatalf("inner is %T, want *ARQ", imp.Inner())
	}
	const n = 5000
	for i := 0; i < n; i++ {
		l.Send(i)
	}
	drain(t, k)
	st := l.Stats()
	if st.Transmissions <= st.Sent {
		t.Fatalf("ARQ under impairment lost its retries: %+v", st)
	}
	if uint64(delivered)+imp.ImpairmentStats().Dropped != n {
		t.Fatalf("delivered %d + dropped %d != %d", delivered, imp.ImpairmentStats().Dropped, n)
	}
	if l.MeanDelay() != 2 { // slot/p = 1/0.5
		t.Fatalf("MeanDelay = %g, want the inner ARQ mean 2", l.MeanDelay())
	}
}

// TestZeroImpairmentIsTransparent pins the determinism contract the
// Faults == nil equivalence relies on: wrapping with a zero impairment
// consumes no randomness and changes no delivery.
func TestZeroImpairmentIsTransparent(t *testing.T) {
	run := func(wrap bool) []float64 {
		k := sim.New()
		var times []float64
		factory := RandomDelayFactory(dist.NewExponential(1))
		if wrap {
			factory = ImpairedFactory(factory, Impairment{})
		}
		l := factory(NewStore(k, DeliverFunc(func(any) { times = append(times, float64(k.Now())) })), 0, rng.New(11))
		for i := 0; i < 200; i++ {
			l.Send(i)
		}
		drain(t, k)
		return times
	}
	plain, wrapped := run(false), run(true)
	if len(plain) != len(wrapped) {
		t.Fatalf("delivery counts diverged: %d vs %d", len(plain), len(wrapped))
	}
	for i := range plain {
		if plain[i] != wrapped[i] {
			t.Fatalf("delivery %d at %g plain vs %g wrapped", i, plain[i], wrapped[i])
		}
	}
}

func TestImpairedRejectsBadArguments(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range probability must panic")
		}
	}()
	ImpairedFactory(RandomDelayFactory(dist.NewExponential(1)), Impairment{Drop: 1.5})
}
