package channel

import (
	"slices"
	"testing"

	"abenet/internal/rng"
	"abenet/internal/sim"
	"abenet/internal/simtime"
)

// scripted is a delay law whose next sample the test sets before each Send.
type scripted struct{ next *float64 }

func (d scripted) Sample(*rng.Source) float64 { return *d.next }
func (scripted) Mean() float64                { return 1 }
func (scripted) Name() string                 { return "scripted" }

// TestFiringOneLinkLeavesAnotherLinksBatchOpen: link k sends at delay 1, then
// link j at delay 2, so j's batch is the store's open one. When k's batch
// fires, nothing is scheduled, so a send on j from k's delivery handler at
// delay 1 — j's instant — still joins j's batch, exactly as under a per-link
// batch record: two kernel events, not three. Clearing the open batch
// whenever any batch fires would cost the third.
func TestFiringOneLinkLeavesAnotherLinksBatchOpen(t *testing.T) {
	const linkK, linkJ = 0, 1
	var delay float64
	k := sim.New()
	sink := &recordingSink{}
	store := NewStore(k, sink, RandomDelayFactory(scripted{&delay}), streams(1, 2))
	send := func(link int, d float64, payload string) {
		delay = d
		store.Send(link, payload)
	}
	sink.then = func(link int, payload any) {
		if payload == "k" {
			send(linkJ, 1, "echo")
		}
	}
	send(linkK, 1, "k")
	send(linkJ, 2, "j")
	if err := k.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	want := []delivery{{linkK, "k"}, {linkJ, "j"}, {linkJ, "echo"}}
	if !slices.Equal(sink.got, want) {
		t.Fatalf("delivered %v, want %v", sink.got, want)
	}
	if got := k.Executed(); got != 2 {
		t.Fatalf("%d kernel events ran, want 2 ({k} {j echo})", got)
	}
	if k.Now() != 2 || !store.idle() {
		t.Fatalf("ended at %v with idle %v, want 2 and every slot free", k.Now(), store.idle())
	}
}

// perRowBatches is the batching rule as it was stated per link, kept as the
// reference the store's one-record rule is checked against: every row holds
// its own open flag, instant and sequence mark, a Send joins its row's batch
// when all three say so, and a batch that starts firing closes its own row's
// record and nobody else's.
type perRowBatches struct {
	open    []bool
	openAt  []simtime.Time
	openSeq []uint64
	last    []simtime.Time // a FIFO row's last delivery instant
}

func newPerRowBatches(links int) *perRowBatches {
	return &perRowBatches{
		open:    make([]bool, links),
		openAt:  make([]simtime.Time, links),
		openSeq: make([]uint64, links),
		last:    make([]simtime.Time, links),
	}
}

// joins reports whether a send on link at instant at joins its batch.
func (m *perRowBatches) joins(k *sim.Kernel, link int, at simtime.Time) bool {
	return m.open[link] && at == m.openAt[link] && k.ScheduleSeq() == m.openSeq[link]
}

// opened records that a send on link scheduled a fresh batch at instant at.
func (m *perRowBatches) opened(k *sim.Kernel, link int, at simtime.Time) {
	m.open[link], m.openAt[link], m.openSeq[link] = true, at, k.ScheduleSeq()
}

// batchLinks is the number of links in a batch-rule program's store.
const batchLinks = 3

// runBatchProgram executes prog on one store and checks every Send's merge
// decision against perRowBatches. A program byte b either sends on link
// (b&3)%batchLinks at delay (b>>2&3)%3 or, when its top two bits are set,
// schedules an unrelated kernel event (b&3) units ahead. The first eight
// bytes run at time zero; each delivery then reads one byte c and runs the
// next c%3 bytes from inside the delivery handler, so reentrant sends land on
// open and firing batches of every link. The program's bytes are its only
// bound: a send consumes one.
func runBatchProgram(t *testing.T, fifo bool, prog []byte) {
	var delay float64
	k := sim.New()
	sink := &recordingSink{}
	links := RandomDelayFactory(scripted{&delay})
	if fifo {
		links = FIFOFactory(scripted{&delay})
	}
	store := NewStore(k, sink, links, streams(1, batchLinks))
	nothing := k.Register(func(uint32) {})
	ref := newPerRowBatches(batchLinks)

	sent, pc := 0, 0
	step := func() {
		if pc >= len(prog) {
			return
		}
		b := prog[pc]
		pc++
		now := k.Now()
		if b&0xC0 == 0xC0 {
			k.AtArg(now.Add(simtime.Duration(b&3)), nothing, 0)
			return
		}
		link := int(b&3) % batchLinks
		delay = float64(b >> 2 & 3 % 3)
		at := now.Add(simtime.Duration(delay))
		if fifo {
			at = max(at, ref.last[link])
			ref.last[link] = at
		}
		want := ref.joins(k, link, at)
		before := k.ScheduleSeq()
		store.Send(link, sent)
		sent++
		if joined := k.ScheduleSeq() == before; joined != want {
			t.Fatalf("send %d (byte %d, link %d at %v): joined %v, the per-row rule says %v", sent-1, pc-1, link, at, joined, want)
		}
		if !want {
			ref.opened(k, link, at)
		}
	}
	// A delivery under a kernel event the sink has not seen yet is the first
	// of its batch: that batch has started firing and closes its own row.
	lastEvent := uint64(0)
	sink.then = func(link int, _ any) {
		if e := k.Executed(); e != lastEvent {
			lastEvent = e
			ref.open[link] = false
		}
		if pc < len(prog) {
			c := prog[pc]
			pc++
			for range c % 3 {
				step()
			}
		}
	}
	for range 8 {
		step()
	}
	if err := k.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	if len(sink.got) != sent || !store.idle() {
		t.Fatalf("%d of %d sends delivered, idle %v", len(sink.got), sent, store.idle())
	}
}

// batchPrograms is the seed corpus: the shapes the one-record rule has to get
// right, then pseudo-random programs.
func batchPrograms() [][]byte {
	send := func(link, delay int) byte { return byte(delay<<2 | link) }
	unrelated := func(ahead int) byte { return byte(0xC0 | ahead) }
	progs := [][]byte{
		// k at 1, j at 2; k's delivery sends on j at 1: joins j's batch.
		{send(0, 1), send(1, 2), 1, send(1, 1)},
		// ... and on k at 1: k's batch is firing, a fresh event.
		{send(0, 1), send(1, 2), 1, send(0, 1)},
		// An unrelated event between two same-instant sends on one link.
		{send(0, 1), unrelated(1), send(0, 1), send(0, 1)},
		// Three links interleaved on one instant, then back to the first.
		{send(0, 1), send(1, 1), send(2, 1), send(0, 1), send(0, 1)},
		// Zero-delay sends from inside same-instant deliveries.
		{send(0, 0), send(1, 0), 2, send(1, 0), send(0, 0), 2, send(0, 0), send(0, 0), 2, send(2, 0), send(2, 0)},
	}
	for seed := uint64(1); seed <= 16; seed++ {
		r := rng.New(seed)
		prog := make([]byte, 200)
		for i := range prog {
			prog[i] = byte(r.Intn(256))
		}
		progs = append(progs, prog)
	}
	return progs
}

// TestOneOpenBatchMatchesPerRowRule runs the corpus on a random-delay and a
// FIFO store.
func TestOneOpenBatchMatchesPerRowRule(t *testing.T) {
	for _, prog := range batchPrograms() {
		runBatchProgram(t, false, prog)
		runBatchProgram(t, true, prog)
	}
}

// FuzzOneOpenBatch: on any program, the store's one open-batch record makes
// the merge decision the per-row rule makes, send for send.
func FuzzOneOpenBatch(f *testing.F) {
	for _, prog := range batchPrograms() {
		f.Add(false, prog)
		f.Add(true, prog)
	}
	f.Fuzz(func(t *testing.T, fifo bool, prog []byte) {
		if len(prog) > 1024 {
			prog = prog[:1024]
		}
		runBatchProgram(t, fifo, prog)
	})
}
