package channel

import (
	"math"
	"testing"

	"abenet/internal/dist"
	"abenet/internal/rng"
	"abenet/internal/sim"
	"abenet/internal/simtime"
)

func TestRandomDelayDelivers(t *testing.T) {
	k := sim.New()
	var got []any
	l := NewRandomDelay(k, dist.NewDeterministic(2), rng.New(1), func(p any) {
		got = append(got, p)
	})
	l.Send("hello")
	if err := k.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "hello" {
		t.Fatalf("got %v", got)
	}
	if k.Now() != 2 {
		t.Fatalf("delivery time %v, want 2", k.Now())
	}
	s := l.Stats()
	if s.Sent != 1 || s.Delivered != 1 || s.Transmissions != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MeanDelay() != 2 {
		t.Fatalf("mean delay = %v", s.MeanDelay())
	}
}

func TestRandomDelayCanReorder(t *testing.T) {
	// With highly variable delays, some pair of messages must be reordered.
	k := sim.New()
	var order []int
	l := NewRandomDelay(k, dist.NewUniform(0, 10), rng.New(2), func(p any) {
		v, ok := p.(int)
		if !ok {
			t.Fatal("payload type lost")
		}
		order = append(order, v)
	})
	for i := 0; i < 50; i++ {
		l.Send(i)
	}
	if err := k.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	if len(order) != 50 {
		t.Fatalf("delivered %d", len(order))
	}
	reordered := false
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			reordered = true
			break
		}
	}
	if !reordered {
		t.Fatal("random-delay link never reordered 50 simultaneous messages")
	}
}

func TestFIFOPreservesOrder(t *testing.T) {
	k := sim.New()
	var order []int
	l := NewFIFO(k, dist.NewUniform(0, 10), rng.New(3), func(p any) {
		order = append(order, p.(int))
	})
	for i := 0; i < 50; i++ {
		l.Send(i)
	}
	if err := k.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO reordered: %v", order)
		}
	}
}

func TestFIFODelayNeverShrinksDeliveryTime(t *testing.T) {
	k := sim.New()
	var times []simtime.Time
	l := NewFIFO(k, dist.NewUniform(0, 5), rng.New(4), func(any) {
		times = append(times, k.Now())
	})
	// Send at staggered times so head-of-line blocking actually engages.
	for i := 0; i < 20; i++ {
		i := i
		k.AtFunc(simtime.Time(i), func() { l.Send(i) })
	}
	if err := k.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(times); i++ {
		if times[i].Before(times[i-1]) {
			t.Fatalf("FIFO delivery times decreased: %v", times)
		}
	}
}

func TestARQMeanDelayIsSlotOverP(t *testing.T) {
	// Experiment E1's core at link level: empirical mean delay ~ slot/p and
	// empirical transmissions per message ~ 1/p.
	for _, p := range []float64{0.2, 0.5, 0.9} {
		k := sim.New()
		delivered := 0
		l := NewARQ(k, p, 1, rng.New(5), func(any) { delivered++ })
		const messages = 20000
		for i := 0; i < messages; i++ {
			l.Send(i)
		}
		if err := k.Run(simtime.Forever, 0); err != nil {
			t.Fatal(err)
		}
		if delivered != messages {
			t.Fatalf("p=%v: delivered %d of %d", p, delivered, messages)
		}
		s := l.Stats()
		wantDelay := 1 / p
		if rel := math.Abs(s.MeanDelay()-wantDelay) / wantDelay; rel > 0.05 {
			t.Fatalf("p=%v: mean delay %v, want ~%v", p, s.MeanDelay(), wantDelay)
		}
		perMsg := float64(s.Transmissions) / float64(s.Sent)
		if rel := math.Abs(perMsg-1/p) / (1 / p); rel > 0.05 {
			t.Fatalf("p=%v: %v transmissions/message, want ~%v", p, perMsg, 1/p)
		}
		if got := l.MeanDelay(); math.Abs(got-wantDelay) > 1e-12 {
			t.Fatalf("declared mean %v, want %v", got, wantDelay)
		}
	}
}

func TestARQAllMessagesEventuallyDelivered(t *testing.T) {
	// Even at p = 0.05 every message arrives (eventual delivery, the
	// asynchronous-network guarantee the ABE model keeps).
	k := sim.New()
	delivered := 0
	l := NewARQ(k, 0.05, 1, rng.New(6), func(any) { delivered++ })
	for i := 0; i < 1000; i++ {
		l.Send(i)
	}
	if err := k.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	if delivered != 1000 {
		t.Fatalf("delivered %d of 1000", delivered)
	}
}

func TestLinkDelaysIndependentAcrossLinks(t *testing.T) {
	// Two links built from different streams must not produce identical
	// delay sequences (Definition 1's independence, at link granularity).
	k := sim.New()
	root := rng.New(7)
	mk := func(i int) *RandomDelay {
		return NewRandomDelay(k, dist.NewExponential(1), root.DeriveIndexed("edge", i), func(any) {})
	}
	a, b := mk(0), mk(1)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Send(i) == b.Send(i) {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("links share %d/100 delays; streams not independent", same)
	}
}

func TestFactories(t *testing.T) {
	k := sim.New()
	root := rng.New(8)
	delivered := 0
	deliver := func(any) { delivered++ }

	links := []Link{
		RandomDelayFactory(dist.NewExponential(1))(k, root.Derive("a"), deliver),
		FIFOFactory(dist.NewExponential(1))(k, root.Derive("b"), deliver),
		ARQFactory(0.5, 1)(k, root.Derive("c"), deliver),
	}
	for _, l := range links {
		l.Send("x")
	}
	if err := k.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	if delivered != len(links) {
		t.Fatalf("delivered %d of %d", delivered, len(links))
	}
}

func TestHeterogeneousFactoryPicksPerEdge(t *testing.T) {
	k := sim.New()
	root := rng.New(9)
	means := []float64{1, 2, 3}
	f := HeterogeneousFactory(func(i int) dist.Dist {
		return dist.NewDeterministic(means[i%len(means)])
	})
	for i, want := range means {
		l := f(k, root.DeriveIndexed("e", i), func(any) {})
		if got := l.MeanDelay(); got != want {
			t.Fatalf("edge %d mean = %v, want %v", i, got, want)
		}
	}
}

func TestNilArgumentPanics(t *testing.T) {
	k := sim.New()
	r := rng.New(1)
	d := dist.NewDeterministic(1)
	deliver := func(any) {}
	mustPanic(t, func() { NewRandomDelay(nil, d, r, deliver) })
	mustPanic(t, func() { NewRandomDelay(k, nil, r, deliver) })
	mustPanic(t, func() { NewRandomDelay(k, d, nil, deliver) })
	mustPanic(t, func() { NewRandomDelay(k, d, r, nil) })
	mustPanic(t, func() { NewARQ(nil, 0.5, 1, r, deliver) })
	mustPanic(t, func() { NewARQ(k, 0, 1, r, deliver) })
	mustPanic(t, func() { RandomDelayFactory(nil) })
	mustPanic(t, func() { FIFOFactory(nil) })
	mustPanic(t, func() { ARQFactory(2, 1) })
	mustPanic(t, func() { HeterogeneousFactory(nil) })
}

func TestStatsMeanDelayEmptySafe(t *testing.T) {
	var s Stats
	if s.MeanDelay() != 0 {
		t.Fatal("empty stats mean delay must be 0")
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

// TestSendAllocations pins the hot delivery path's allocation budget: one
// Send on a plain random-delay link must allocate only its delivery
// closure — no kernel event. The pin is an upper bound of 2
// (closure + its capture block, which Go may or may not merge), so a
// regression back to per-event kernel allocations (formerly +2) fails.
func TestSendAllocations(t *testing.T) {
	k := sim.New()
	r := rng.New(1)
	delivered := 0
	l := NewRandomDelay(k, dist.NewDeterministic(1), r, func(any) { delivered++ })
	var payload any = 7
	// Warm the kernel's heap slice.
	for i := 0; i < 64; i++ {
		l.Send(payload)
	}
	if err := k.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(1000, func() {
		l.Send(payload)
		if err := k.Run(simtime.Forever, 0); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 2 {
		t.Errorf("Send+deliver allocates %g objects per message, want at most the 2 for the delivery closure", avg)
	}
	if delivered == 0 {
		t.Fatal("nothing was delivered")
	}
}
