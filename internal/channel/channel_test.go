package channel

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"abenet/internal/allocbudget"
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

// TestFactories lays out a three-row store under each discipline: every row
// carries its message, and each row's counters and declared mean are its own.
func TestFactories(t *testing.T) {
	for _, tc := range []struct {
		name  string
		links Factory
		mean  float64
	}{
		{"random-delay", RandomDelayFactory(dist.NewExponential(1)), 1},
		{"fifo", FIFOFactory(dist.NewExponential(1)), 1},
		{"arq", ARQFactory(0.5, 1), 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.New()
			sink := &recordingSink{}
			store := NewStore(k, sink, tc.links, streams(8, 3))
			for row := range store.Links() {
				store.Send(row, row)
			}
			if err := k.Run(simtime.Forever, 0); err != nil {
				t.Fatal(err)
			}
			if len(sink.got) != store.Links() {
				t.Fatalf("delivered %v, want one message per row", sink.got)
			}
			for _, d := range sink.got {
				if d.payload != d.edge {
					t.Fatalf("row %d delivered row %v's message", d.edge, d.payload)
				}
			}
			for row := range store.Links() {
				if st := store.Stats(row); st.Sent != 1 || st.Delivered != 1 || st.Transmissions < 1 {
					t.Fatalf("row %d stats = %+v", row, st)
				}
				if got := store.MeanDelay(row); got != tc.mean {
					t.Fatalf("row %d mean = %v, want %v", row, got, tc.mean)
				}
			}
			if got := store.MaxMeanDelay(); got != tc.mean {
				t.Fatalf("store δ = %v, want %v", got, tc.mean)
			}
			if got := NewStore(k, sink, tc.links, nil).MaxMeanDelay(); got != 0 {
				t.Fatalf("δ of a store without rows = %v, want 0", got)
			}
		})
	}
}

// TestHeterogeneousFactoryPicksPerEdge: the factory holds no counter — the
// row index alone picks the distribution, once per row, in every store laid
// out from it.
func TestHeterogeneousFactoryPicksPerEdge(t *testing.T) {
	k := sim.New()
	means := []float64{1, 2, 3}
	picks := 0
	f := HeterogeneousFactory(func(i int) dist.Dist {
		picks++
		return dist.NewDeterministic(means[i%len(means)])
	})
	for range 2 {
		store := NewStore(k, DeliverFunc(func(any) {}), f, streams(9, 5))
		for i := range store.Links() {
			if got, want := store.MeanDelay(i), means[i%len(means)]; got != want {
				t.Fatalf("row %d mean = %v, want %v", i, got, want)
			}
			if got, want := store.Send(i, nil), simtime.Duration(means[i%len(means)]); got != want {
				t.Fatalf("row %d delay = %v, want %v", i, got, want)
			}
		}
		if got := store.MaxMeanDelay(); got != 3 {
			t.Fatalf("store δ = %v, want 3 (the worst row)", got)
		}
	}
	if picks != 10 {
		t.Fatalf("pick called %d times for two stores of 5 rows, want 10", picks)
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
	mustPanic(t, func() { NewFIFO(k, d, nil, deliver) })
	mustPanic(t, func() { NewARQ(nil, 0.5, 1, r, deliver) })
	mustPanic(t, func() { NewARQ(k, 0, 1, r, deliver) })
	mustPanic(t, func() { NewStore(nil, DeliverFunc(deliver), RandomDelayFactory(d), nil) })
	mustPanic(t, func() { NewStore(k, nil, RandomDelayFactory(d), nil) })
	mustPanic(t, func() { NewStore(k, DeliverFunc(deliver), nil, nil) })
	mustPanic(t, func() {
		NewStore(k, DeliverFunc(deliver), HeterogeneousFactory(func(int) dist.Dist { return nil }), streams(1, 1))
	})
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

// TestSendAllocations pins the hot delivery path's allocation budget: once
// the store's slots and the kernel's queue are warm, a Send and its delivery
// allocate nothing — no closure, no kernel event object, no slot.
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
	if avg != 0 {
		t.Errorf("Send+deliver allocates %g objects per message, want 0", avg)
	}
	if delivered == 0 {
		t.Fatal("nothing was delivered")
	}
}

// delivery is one Sink call as the shared-store tests record it.
type delivery struct {
	edge    int
	payload any
}

// recordingSink records deliveries and optionally reacts to each.
type recordingSink struct {
	got  []delivery
	then func(edge int, payload any)
}

func (s *recordingSink) Deliver(edge int, payload any) {
	s.got = append(s.got, delivery{edge, payload})
	if s.then != nil {
		s.then(edge, payload)
	}
}

// idle reports whether every slot of the store is back on the free list:
// nothing is in flight, and the list holds each slot the pool has handed
// out — a prefix of the indices, since the pool grows one slot at a time —
// exactly once.
func (s *Store) idle() bool {
	var listed []bool
	for i := s.free; i >= 0; i = s.at(i).next {
		for int(i) >= len(listed) {
			listed = append(listed, false)
		}
		if listed[i] {
			return false // the list runs in a cycle
		}
		listed[i] = true
	}
	return s.inFlight == 0 && !slices.Contains(listed, false)
}

// TestPoolGrowsByPagesWithoutCopying: a store that reaches P messages in
// flight holds P slots rounded up to a page and has copied none past the
// first page: every later slot stays where it was filed until it is
// delivered. The vacated slots then form one free list the next burst
// takes from before the pool grows again.
func TestPoolGrowsByPagesWithoutCopying(t *testing.T) {
	const inFlight = 1000
	k := sim.New()
	sink := &recordingSink{}
	store := NewStore(k, sink, RandomDelayFactory(dist.NewExponential(1)), streams(1, 3))
	filed := make([]*slot, inFlight)
	for i := range inFlight {
		store.Send(i%3, i)
		filed[i] = store.at(int32(i))
	}
	if got := store.InFlight(); got != inFlight {
		t.Fatalf("InFlight = %d, want %d", got, inFlight)
	}
	pages := (inFlight+pageSlots-1)/pageSlots - 1 // past the first
	if len(store.first) != pageSlots || len(store.pages) != pages {
		t.Fatalf("a first page of %d slots and %d more pages for %d messages in flight, want %d and %d",
			len(store.first), len(store.pages), inFlight, pageSlots, pages)
	}
	for i := pageSlots; i < inFlight; i++ {
		if sl := store.at(int32(i)); sl != filed[i] || sl.payload != i {
			t.Fatalf("slot %d moved or changed after it was filed (payload %v)", i, sl.payload)
		}
	}
	if err := k.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	if len(sink.got) != inFlight || !store.idle() {
		t.Fatalf("delivered %d of %d, idle %v", len(sink.got), inFlight, store.idle())
	}
	for i := range inFlight {
		store.Send(0, i)
	}
	if len(store.pages) != pages {
		t.Fatalf("a second burst of %d grew the pool to %d pages, want the %d it has", inFlight, len(store.pages), pages)
	}
}

// page keeps TestPoolPageFillsItsSizeClass's page on the heap.
var page *[pageSlots]slot

// TestPoolPageFillsItsSizeClass: a page past the first is allocated whole,
// and the size class it is served from has no room for another slot beside
// it and the 8-B header the allocator puts before an object that holds
// pointers and exceeds 512 B. A page of 64 slots, 2,048 B, left 248 B of its
// 2,304-B class unused.
func TestPoolPageFillsItsSizeClass(t *testing.T) {
	const mallocHeader = 8
	_, warm := allocbudget.Measure(func() { page = new([pageSlots]slot) })
	bytes, objects := warm.Bytes, warm.Objects
	size, slotSize := uint64(unsafe.Sizeof(*page)), uint64(unsafe.Sizeof(slot{}))
	if objects != 1 || bytes < size+mallocHeader || bytes-size-mallocHeader >= slotSize {
		t.Errorf("a page of %d slots, %d B, takes %d B in %d objects: %d B unused, room for another %d-B slot",
			pageSlots, size, bytes, objects, bytes-min(bytes, size+mallocHeader), slotSize)
	}
}

// streams returns rows streams derived from seed, one per row.
func streams(seed uint64, rows int) []rng.Source {
	family := rng.New(seed).Indexed("edge")
	out := make([]rng.Source, rows)
	for i := range out {
		out[i] = family.At(i)
	}
	return out
}

// TestSharedStoreInterleavesLinksInSendOrder pins the batching rule across
// links of one store: same-instant deliveries on two links arrive in the
// order they were sent — a link's batch closes as soon as the other link
// schedules — exactly as with one kernel event per message.
func TestSharedStoreInterleavesLinksInSendOrder(t *testing.T) {
	k := sim.New()
	sink := &recordingSink{}
	store := NewStore(k, sink, RandomDelayFactory(dist.NewDeterministic(1)), streams(1, 2))
	const a, b = 0, 1

	store.Send(a, "a1")
	store.Send(a, "a2") // joins a1: one event
	store.Send(b, "b1") // closes a's batch
	store.Send(a, "a3") // fresh event behind b1
	store.Send(b, "b2") // b's batch was closed by a3's event
	store.Send(b, "b3") // joins b2
	if got := k.ScheduleSeq() - k.Executed(); got != 4 {
		t.Fatalf("%d kernel events pending, want 4 ({a1 a2} {b1} {a3} {b2 b3})", got)
	}
	if err := k.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	want := []delivery{{0, "a1"}, {0, "a2"}, {1, "b1"}, {0, "a3"}, {1, "b2"}, {1, "b3"}}
	if len(sink.got) != len(want) {
		t.Fatalf("delivered %v, want %v", sink.got, want)
	}
	for i := range want {
		if sink.got[i] != want[i] {
			t.Fatalf("delivery %d = %v, want %v (all: %v)", i, sink.got[i], want[i], sink.got)
		}
	}
	if sa, sb := store.Stats(a), store.Stats(b); sa.Delivered != 3 || sb.Delivered != 3 || sa.TotalDelay != 3 || sb.TotalDelay != 3 {
		t.Fatalf("per-link stats mixed up: a %+v, b %+v", sa, sb)
	}
	if !store.idle() {
		t.Fatal("slots still occupied after the run")
	}
}

// TestStopMidBatchAbandonsAndFreesTheRest: a Stop raised by one delivery of
// a batch cuts off the batch's remaining deliveries — as it would have cut
// off their separate events — and their slots go back to the pool.
func TestStopMidBatchAbandonsAndFreesTheRest(t *testing.T) {
	k := sim.New()
	sink := &recordingSink{}
	sink.then = func(_ int, payload any) {
		if payload == "second" {
			k.Stop("enough")
		}
	}
	store := NewStore(k, sink, FIFOFactory(dist.NewDeterministic(1)), streams(1, 1))
	for _, p := range []string{"first", "second", "third", "fourth"} {
		store.Send(0, p)
	}
	if got := k.ScheduleSeq() - k.Executed(); got != 1 {
		t.Fatalf("%d kernel events pending, want the one batch", got)
	}
	if err := k.Run(simtime.Forever, 0); err != sim.ErrStopped {
		t.Fatalf("Run = %v, want ErrStopped", err)
	}
	if len(sink.got) != 2 || sink.got[1].payload != "second" {
		t.Fatalf("delivered %v, want first and second only", sink.got)
	}
	if st := store.Stats(0); st.Sent != 4 || st.Delivered != 2 {
		t.Fatalf("stats = %+v, want 4 sent, 2 delivered", st)
	}
	if !store.idle() {
		t.Fatal("abandoned deliveries still hold their slots")
	}
}

// TestReentrantSameInstantSendOpensFreshEvent: a delivery handler that sends
// again with zero delay must not extend the batch being walked; its message
// gets a kernel event of its own, behind everything already scheduled.
func TestReentrantSameInstantSendOpensFreshEvent(t *testing.T) {
	k := sim.New()
	sink := &recordingSink{}
	store := NewStore(k, sink, RandomDelayFactory(dist.NewDeterministic(0)), streams(1, 2))
	sink.then = func(_ int, payload any) {
		if payload == "x1" {
			store.Send(0, "echo")
		}
	}
	store.Send(0, "x1")
	store.Send(0, "x2")
	store.Send(1, "y")
	if err := k.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	want := []delivery{{0, "x1"}, {0, "x2"}, {1, "y"}, {0, "echo"}}
	for i := range want {
		if i >= len(sink.got) || sink.got[i] != want[i] {
			t.Fatalf("delivered %v, want %v", sink.got, want)
		}
	}
	if got := k.Executed(); got != 3 {
		t.Fatalf("%d kernel events ran, want 3 ({x1 x2} {y} {echo})", got)
	}
	if !store.idle() {
		t.Fatal("slots still occupied after the run")
	}
}

// TestRowIsPointerFree pins the layout that keeps a network's links off the
// collector's scan list: a row holds no pointer at all — a link names nothing,
// it is named by its index — and a slot's only pointer is its payload. A row
// is its three counters, 24 B: batch state is the store's one record, a FIFO
// link's last delivery instant is a column only a FIFO store has, and an ARQ
// link's transmission attempts a column only an ARQ store has.
func TestRowIsPointerFree(t *testing.T) {
	if got := pointers(reflect.TypeOf(row{}), "row"); len(got) != 0 {
		t.Errorf("row holds pointers at %v", got)
	}
	if got, want := pointers(reflect.TypeOf(slot{}), "slot"), []string{"slot.payload"}; !slices.Equal(got, want) {
		t.Errorf("slot holds pointers at %v, want %v", got, want)
	}
	if got := unsafe.Sizeof(row{}); got != 24 {
		t.Errorf("a row is %d B, want 24 (sent, delivered, total delay)", got)
	}
	for _, tc := range []struct {
		name      string
		links     Factory
		fifo, arq bool
	}{
		{"random-delay", RandomDelayFactory(dist.NewExponential(1)), false, false},
		{"fifo", FIFOFactory(dist.NewExponential(1)), true, false},
		{"arq", ARQFactory(0.5, 1), false, true},
		{"heterogeneous", HeterogeneousFactory(func(int) dist.Dist { return dist.NewExponential(1) }), false, false},
	} {
		store := NewStore(sim.New(), &recordingSink{}, tc.links, streams(1, 5))
		if has := store.last != nil; has != tc.fifo || (has && len(store.last) != 5) {
			t.Errorf("%s store: FIFO column of %d entries, want one per row only on a FIFO store", tc.name, len(store.last))
		}
		if has := store.tx != nil; has != tc.arq || (has && len(store.tx) != 5) {
			t.Errorf("%s store: transmissions column of %d entries, want one per row only on an ARQ store", tc.name, len(store.tx))
		}
	}
}

// pointers lists the paths under typ whose values the collector must scan.
func pointers(typ reflect.Type, path string) []string {
	switch typ.Kind() {
	case reflect.Struct:
		var out []string
		for i := range typ.NumField() {
			f := typ.Field(i)
			out = append(out, pointers(f.Type, path+"."+f.Name)...)
		}
		return out
	case reflect.Array:
		return pointers(typ.Elem(), path+"[]")
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return nil
	default: // pointer, interface, slice, map, channel, func, string
		return []string{path}
	}
}
