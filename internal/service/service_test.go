package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"abenet/internal/runner"
	"abenet/internal/spec"
)

const fixtureDir = "../../examples/specs"

func loadFixture(t *testing.T, name string) *spec.Spec {
	t.Helper()
	s, err := spec.DecodeFile(filepath.Join(fixtureDir, name))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// specJSON is the document Submit takes for sp: its canonical encoding.
func specJSON(t *testing.T, sp *spec.Spec) []byte {
	t.Helper()
	b, err := sp.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// await runs Wait with a test deadline.
func await(t *testing.T, svc *Service, id string) View {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	v, err := svc.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if v.Status == StatusQueued || v.Status == StatusRunning {
		t.Fatalf("job %s still %s after Wait", id, v.Status)
	}
	return v
}

// TestSubmitRunAndCache is the acceptance loop: a submitted spec computes
// the same metrics as a direct runner.Run, and resubmitting the identical
// (scenario, seed) is served from the result cache with a hit counter.
func TestSubmitRunAndCache(t *testing.T) {
	svc := New(Options{Workers: 1})
	defer svc.Close()

	sp := loadFixture(t, "election_ring.json")
	v, err := svc.Submit(specJSON(t, sp), nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.CacheHits != 0 {
		t.Fatalf("fresh submission reports %d cache hits", v.CacheHits)
	}
	v = await(t, svc, v.ID)
	if v.Status != StatusDone {
		t.Fatalf("job ended %s (%s)", v.Status, v.Error)
	}

	// Byte-identical to running the scenario directly.
	rep, err := sp.Run()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(rep.Metrics())
	got, _ := json.Marshal(v.Result.Metrics)
	if !bytes.Equal(got, want) {
		t.Fatalf("service metrics diverged from direct run:\nservice: %s\ndirect:  %s", got, want)
	}

	// Resubmission: served from cache, no recomputation, counter visible.
	v2, err := svc.Submit(specJSON(t, sp), nil)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Status != StatusDone {
		t.Fatalf("cached submission is %s, want done", v2.Status)
	}
	if v2.CacheHits != 1 {
		t.Fatalf("cached submission reports %d hits, want 1", v2.CacheHits)
	}
	got2, _ := json.Marshal(v2.Result.Metrics)
	if !bytes.Equal(got2, want) {
		t.Fatal("cached result differs from computed result")
	}
	// Third submission bumps the counter again.
	v3, _ := svc.Submit(specJSON(t, sp), nil)
	if v3.CacheHits != 2 {
		t.Fatalf("second cached submission reports %d hits, want 2", v3.CacheHits)
	}

	// A different seed is a different run: fresh computation.
	seed := uint64(99)
	v4, err := svc.Submit(specJSON(t, sp), &seed)
	if err != nil {
		t.Fatal(err)
	}
	if v4.CacheHits != 0 {
		t.Fatal("different seed was served from cache")
	}
	if v4.Seed != 99 {
		t.Fatalf("seed override not applied: %d", v4.Seed)
	}
	if await(t, svc, v4.ID).Status != StatusDone {
		t.Fatal("seed-override job failed")
	}
}

// TestSingleflightDedupCancelAndQueueFull drives the whole lifecycle
// deterministically by holding the single worker on a barrier.
func TestSingleflightDedupCancelAndQueueFull(t *testing.T) {
	entered := make(chan struct{}, 16)
	release := make(chan struct{})
	svc := New(Options{
		Workers:    1,
		QueueDepth: 1,
		BeforeJob: func() {
			entered <- struct{}{}
			<-release
		},
	})
	defer svc.Close()

	spA := loadFixture(t, "election_ring.json")
	spB := loadFixture(t, "chang_roberts_pareto.json")
	spC := loadFixture(t, "peterson_bimodal.json")

	// J1 occupies the worker (popped from the queue, held at the barrier).
	j1, err := svc.Submit(specJSON(t, spA), nil)
	if err != nil {
		t.Fatal(err)
	}
	<-entered

	// J2 waits in the queue; an identical submission coalesces onto it.
	j2, err := svc.Submit(specJSON(t, spB), nil)
	if err != nil {
		t.Fatal(err)
	}
	if j2.Status != StatusQueued {
		t.Fatalf("J2 is %s, want queued", j2.Status)
	}
	dup, err := svc.Submit(specJSON(t, spB), nil)
	if err != nil {
		t.Fatal(err)
	}
	if dup.ID != j2.ID {
		t.Fatalf("identical in-flight submission got a new job: %s vs %s", dup.ID, j2.ID)
	}
	if dup.Deduplicated != 1 {
		t.Fatalf("dedup counter = %d, want 1", dup.Deduplicated)
	}

	// The queue (depth 1) is full now.
	if _, err := svc.Submit(specJSON(t, spC), nil); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit into a full queue: %v, want ErrQueueFull", err)
	}

	// J2 has a rider: cancellation is refused, the job stays queued.
	if _, err := svc.Cancel(j2.ID); !errors.Is(err, ErrShared) {
		t.Fatalf("cancel of shared job: %v, want ErrShared", err)
	}
	got, err := svc.Get(j2.ID)
	if err != nil || got.Status != StatusQueued {
		t.Fatalf("shared job after refused cancel is %s (%v), want queued", got.Status, err)
	}

	// Release the worker; J1 completes, then the shared J2 runs for both
	// its submitters.
	close(release)
	if v := await(t, svc, j1.ID); v.Status != StatusDone {
		t.Fatalf("J1 ended %s (%s)", v.Status, v.Error)
	}
	if v := await(t, svc, j2.ID); v.Status != StatusDone {
		t.Fatalf("J2 ended %s, want done", v.Status)
	}

	// Resubmitting the completed scenario is a cache hit, not a rerun.
	j5, err := svc.Submit(specJSON(t, spB), nil)
	if err != nil {
		t.Fatal(err)
	}
	if j5.CacheHits != 1 {
		t.Fatalf("resubmission of finished scenario: %d hits, want 1", j5.CacheHits)
	}

	// Cancelling a finished job is refused.
	if _, err := svc.Cancel(j2.ID); !errors.Is(err, ErrFinished) {
		t.Fatalf("cancel of finished job: %v, want ErrFinished", err)
	}
	// Unknown ids are refused.
	if _, err := svc.Get("run-999999-nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get of unknown job: %v, want ErrNotFound", err)
	}
}

// TestCancelQueuedJob: cancelling a queued job with no riders is
// immediate, the worker skips it, and the scenario key is free again — a
// resubmission starts a fresh job instead of attaching to the corpse.
func TestCancelQueuedJob(t *testing.T) {
	entered := make(chan struct{}, 16)
	release := make(chan struct{})
	svc := New(Options{
		Workers:    1,
		QueueDepth: 4,
		BeforeJob: func() {
			entered <- struct{}{}
			<-release
		},
	})
	defer svc.Close()

	j1, err := svc.Submit(specJSON(t, loadFixture(t, "election_ring.json")), nil)
	if err != nil {
		t.Fatal(err)
	}
	<-entered

	spB := loadFixture(t, "chang_roberts_pareto.json")
	j2, err := svc.Submit(specJSON(t, spB), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Cancel(j2.ID); err != nil {
		t.Fatal(err)
	}
	got, err := svc.Get(j2.ID)
	if err != nil || got.Status != StatusCancelled {
		t.Fatalf("cancelled job is %s (%v)", got.Status, err)
	}

	close(release)
	if v := await(t, svc, j1.ID); v.Status != StatusDone {
		t.Fatalf("J1 ended %s (%s)", v.Status, v.Error)
	}
	if v := await(t, svc, j2.ID); v.Status != StatusCancelled {
		t.Fatalf("J2 ended %s, want cancelled", v.Status)
	}

	// The key is free: a fresh submission runs (no cache entry, new id).
	j3, err := svc.Submit(specJSON(t, spB), nil)
	if err != nil {
		t.Fatal(err)
	}
	if j3.ID == j2.ID {
		t.Fatal("resubmission attached to the cancelled job")
	}
	if j3.CacheHits != 0 {
		t.Fatal("cancelled scenario served from cache")
	}
	if v := await(t, svc, j3.ID); v.Status != StatusDone {
		t.Fatalf("resubmitted job ended %s (%s)", v.Status, v.Error)
	}
}

// TestSweepJob: a sweep spec runs through the pool and reports filtered,
// aggregated points; resubmission hits the cache.
func TestSweepJob(t *testing.T) {
	svc := New(Options{Workers: 2, SweepWorkers: 2})
	defer svc.Close()

	sp := loadFixture(t, "itai_rodeh_sweep.json")
	v, err := svc.Submit(specJSON(t, sp), nil)
	if err != nil {
		t.Fatal(err)
	}
	v = await(t, svc, v.ID)
	if v.Status != StatusDone {
		t.Fatalf("sweep ended %s (%s)", v.Status, v.Error)
	}
	if v.Kind != "sweep" {
		t.Fatalf("kind = %q, want sweep", v.Kind)
	}
	if len(v.Result.Points) != len(sp.Sweep.Xs) {
		t.Fatalf("%d points, want %d", len(v.Result.Points), len(sp.Sweep.Xs))
	}
	for _, p := range v.Result.Points {
		if len(p.Metrics) != len(sp.Sweep.Metrics) {
			t.Fatalf("point x=%g has %d metrics, want %d", p.X, len(p.Metrics), len(sp.Sweep.Metrics))
		}
	}
	v2, err := svc.Submit(specJSON(t, sp), nil)
	if err != nil {
		t.Fatal(err)
	}
	if v2.CacheHits != 1 {
		t.Fatalf("sweep resubmission: %d cache hits, want 1", v2.CacheHits)
	}
}

// TestFailedJobNotCached: a run-time failure is reported and never cached.
func TestFailedJobNotCached(t *testing.T) {
	svc := New(Options{Workers: 1})
	defer svc.Close()

	// KeepRunning without a horizon validates as an environment but fails
	// in the protocol engine.
	ps, err := spec.ForProtocol(runner.Election{KeepRunning: true})
	if err != nil {
		t.Fatal(err)
	}
	sp := &spec.Spec{Version: spec.Version, Env: spec.EnvSpec{N: 4, Seed: 1}, Protocol: ps}
	v, err := svc.Submit(specJSON(t, sp), nil)
	if err != nil {
		t.Fatal(err)
	}
	v = await(t, svc, v.ID)
	if v.Status != StatusFailed || v.Error == "" {
		t.Fatalf("job ended %s (%q), want failed with a message", v.Status, v.Error)
	}
	if v.Failure != "error" {
		t.Fatalf("failure class = %q, want %q", v.Failure, "error")
	}
	if v.Result != nil {
		t.Fatal("failed job carries a result")
	}
	v2, _ := svc.Submit(specJSON(t, sp), nil)
	if v2.CacheHits != 0 {
		t.Fatal("failure was served from cache")
	}
	await(t, svc, v2.ID)
}

// TestLivelockClassified: a run that exhausts its event budget is a
// failure of a distinguishable kind — the kernel's typed sim.ErrMaxEvents
// survives the runner's wrapping, and the view classifies it "livelock"
// (versus "error" for everything else, pinned above).
func TestLivelockClassified(t *testing.T) {
	svc := New(Options{Workers: 1})
	defer svc.Close()

	ps, err := spec.ForProtocol(runner.Election{})
	if err != nil {
		t.Fatal(err)
	}
	// Five events cannot finish a four-node election: the run trips the
	// livelock guard before any leader emerges.
	sp := &spec.Spec{
		Version:  spec.Version,
		Env:      spec.EnvSpec{N: 4, Seed: 1, MaxEvents: 5},
		Protocol: ps,
	}
	v, err := svc.Submit(specJSON(t, sp), nil)
	if err != nil {
		t.Fatal(err)
	}
	v = await(t, svc, v.ID)
	if v.Status != StatusFailed {
		t.Fatalf("job ended %s (%q), want failed", v.Status, v.Error)
	}
	if v.Failure != "livelock" {
		t.Fatalf("failure class = %q (%q), want %q", v.Failure, v.Error, "livelock")
	}
}

// TestJobHistoryBound: finished jobs are retired FIFO past the history
// bound, so the job map cannot grow without limit under sustained traffic.
func TestJobHistoryBound(t *testing.T) {
	svc := New(Options{Workers: 1, JobHistory: 2})
	defer svc.Close()

	names := []string{"election_ring.json", "chang_roberts_pareto.json", "peterson_bimodal.json"}
	ids := make([]string, len(names))
	for i, name := range names {
		v, err := svc.Submit(specJSON(t, loadFixture(t, name)), nil)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = v.ID
		await(t, svc, v.ID)
	}
	// The oldest finished job fell off the history; the two newest remain.
	if _, err := svc.Get(ids[0]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("oldest finished job still queryable: %v", err)
	}
	for _, id := range ids[1:] {
		if _, err := svc.Get(id); err != nil {
			t.Fatalf("recent job %s evicted too early: %v", id, err)
		}
	}
	if got := svc.Stats().Jobs; got != 2 {
		t.Fatalf("job map holds %d entries, want 2", got)
	}
}

// TestCancelRefusedOnDeduplicatedJob: submit → dedup → cancel must be
// refused (ErrShared), and both waiters must get the computed result — one
// client's DELETE cannot discard a run other submitters are riding.
func TestCancelRefusedOnDeduplicatedJob(t *testing.T) {
	entered := make(chan struct{}, 16)
	release := make(chan struct{})
	svc := New(Options{
		Workers:    1,
		QueueDepth: 4,
		BeforeJob: func() {
			entered <- struct{}{}
			<-release
		},
	})
	defer svc.Close()

	// A blocker occupies the single worker so the shared job stays queued.
	blocker, err := svc.Submit(specJSON(t, loadFixture(t, "election_ring.json")), nil)
	if err != nil {
		t.Fatal(err)
	}
	<-entered

	sp := loadFixture(t, "chang_roberts_pareto.json")
	first, err := svc.Submit(specJSON(t, sp), nil)
	if err != nil {
		t.Fatal(err)
	}
	rider, err := svc.Submit(specJSON(t, sp), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rider.ID != first.ID || rider.Deduplicated != 1 {
		t.Fatalf("second submission did not coalesce: %+v", rider)
	}

	// Two waiters ride the shared job.
	type waited struct {
		v   View
		err error
	}
	results := make(chan waited, 2)
	for i := 0; i < 2; i++ {
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			v, err := svc.Wait(ctx, first.ID)
			results <- waited{v, err}
		}()
	}

	// The cancel is refused while riders are attached.
	if _, err := svc.Cancel(first.ID); !errors.Is(err, ErrShared) {
		t.Fatalf("cancel of deduplicated job: %v, want ErrShared", err)
	}
	got, err := svc.Get(first.ID)
	if err != nil || got.Status != StatusQueued {
		t.Fatalf("shared job after refused cancel: %s (%v), want queued", got.Status, err)
	}

	// Release the worker: the blocker and then the shared job complete,
	// and both waiters observe the result.
	close(release)
	await(t, svc, blocker.ID)
	for i := 0; i < 2; i++ {
		w := <-results
		if w.err != nil {
			t.Fatalf("waiter %d: %v", i, w.err)
		}
		if w.v.Status != StatusDone || w.v.Result == nil {
			t.Fatalf("waiter %d got %s (result %v), want done with a result", i, w.v.Status, w.v.Result != nil)
		}
	}
}

// TestWaitReturnsCtxErrOnSlowJob: when the caller's context ends before a
// slow job, Wait and SubmitAndWait return the non-terminal snapshot
// *alongside* ctx.Err() — a nil error always means the snapshot is final.
func TestWaitReturnsCtxErrOnSlowJob(t *testing.T) {
	entered := make(chan struct{}, 16)
	release := make(chan struct{})
	svc := New(Options{
		Workers:    1,
		QueueDepth: 4,
		BeforeJob: func() {
			entered <- struct{}{}
			<-release
		},
	})
	defer svc.Close()

	slow, err := svc.Submit(specJSON(t, loadFixture(t, "election_ring.json")), nil)
	if err != nil {
		t.Fatal(err)
	}
	<-entered // the job is held on the worker barrier

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	v, err := svc.Wait(ctx, slow.ID)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait on a slow job: err = %v, want DeadlineExceeded", err)
	}
	if v.ID != slow.ID {
		t.Fatalf("snapshot id = %s, want %s", v.ID, slow.ID)
	}
	if v.Status == StatusDone || v.Status == StatusFailed || v.Status == StatusCancelled {
		t.Fatalf("snapshot is terminal (%s) despite ctx ending first", v.Status)
	}

	// SubmitAndWait: same contract on the submit-and-block path.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel2()
	v2, err := svc.SubmitAndWait(ctx2, specJSON(t, loadFixture(t, "chang_roberts_pareto.json")), nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("SubmitAndWait on a slow job: err = %v, want DeadlineExceeded", err)
	}
	if v2.Status != StatusQueued {
		t.Fatalf("SubmitAndWait snapshot is %s, want queued", v2.Status)
	}

	// A cancelled context is reported as Canceled, not invented deadline.
	ctx3, cancel3 := context.WithCancel(context.Background())
	cancel3()
	if _, err := svc.Wait(ctx3, slow.ID); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait with cancelled ctx: %v, want Canceled", err)
	}

	// Once released, the same calls finish with nil errors.
	close(release)
	if v := await(t, svc, slow.ID); v.Status != StatusDone {
		t.Fatalf("released job ended %s (%s)", v.Status, v.Error)
	}
	if v := await(t, svc, v2.ID); v.Status != StatusDone {
		t.Fatalf("second job ended %s (%s)", v.Status, v.Error)
	}
}

// TestMutateAfterSubmit: the worker must run the scenario as submitted.
// Overwriting the submitted bytes after Submit returns with the document
// of a vandalised scenario (fault plan, scripted events, size and seed all
// changed) must not change the job's execution: the decode inside Submit
// is the job's own copy.
func TestMutateAfterSubmit(t *testing.T) {
	entered := make(chan struct{}, 16)
	release := make(chan struct{})
	svc := New(Options{
		Workers:    1,
		QueueDepth: 4,
		BeforeJob: func() {
			entered <- struct{}{}
			<-release
		},
	})
	defer svc.Close()

	blocker, err := svc.Submit(specJSON(t, loadFixture(t, "election_ring.json")), nil)
	if err != nil {
		t.Fatal(err)
	}
	<-entered

	// Baseline: the pristine scenario, run directly.
	pristine := loadFixture(t, "election_lossy_partition.json")
	rep, err := pristine.Run()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(rep.Metrics())

	// Submit, then overwrite the submitted bytes while the job waits in the
	// queue with a valid document for a vandalised scenario (padded with
	// spaces), so a late decode would run the wrong scenario.
	raw := specJSON(t, pristine)
	v, err := svc.Submit(raw, nil)
	if err != nil {
		t.Fatal(err)
	}
	sp := loadFixture(t, "election_lossy_partition.json")
	sp.Env.Faults.Loss = 0.99
	sp.Env.Faults.Duplicate = 0.5
	sp.Env.Faults.Events = sp.Env.Faults.Events[:0]
	sp.Env.N = 2
	sp.Env.Seed = 424242
	vandal := specJSON(t, sp)
	if len(vandal) > len(raw) {
		t.Fatalf("vandalised document (%d bytes) outgrows the submitted one (%d)", len(vandal), len(raw))
	}
	copy(raw, bytes.Repeat([]byte(" "), len(raw)))
	copy(raw, vandal)
	if _, err := spec.DecodeBytes(raw); err != nil {
		t.Fatalf("vandalised document does not decode: %v", err)
	}

	close(release)
	await(t, svc, blocker.ID)
	final := await(t, svc, v.ID)
	if final.Status != StatusDone {
		t.Fatalf("job ended %s (%s)", final.Status, final.Error)
	}
	got, _ := json.Marshal(final.Result.Metrics)
	if !bytes.Equal(got, want) {
		t.Fatalf("post-submit mutation leaked into the run:\ngot:  %s\nwant: %s", got, want)
	}

	// The service kept the document under its own copy of the submitted
	// bytes: the pristine document, sent again, is known, and the vandalised
	// buffer is not.
	if _, err := svc.Submit(specJSON(t, pristine), nil); err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.SpecDecodes != 2 || st.SpecMemoHits != 1 {
		t.Fatalf("decodes %d, memo hits %d; want 2 (blocker, pristine), 1 (pristine again)", st.SpecDecodes, st.SpecMemoHits)
	}
}

// TestCacheEviction: the memory-tier LRU bound holds.
func TestCacheEviction(t *testing.T) {
	c := newTieredCache(2, nil)
	r := &Result{}
	c.put("a", r)
	c.put("b", r)
	if c.get("a") == nil {
		t.Fatal("a evicted too early")
	}
	c.put("c", r) // evicts b (a was just used)
	if c.get("b") != nil {
		t.Fatal("b survived past capacity")
	}
	if c.get("a") == nil || c.get("c") == nil {
		t.Fatal("wrong entry evicted")
	}
	if c.len() != 2 {
		t.Fatalf("cache len %d, want 2", c.len())
	}
	if c.persistLen() != 0 {
		t.Fatal("memory-only cache reports persistent entries")
	}
}

// TestCacheHitCounterAcrossPutRefresh: re-putting a finished result under
// an existing key (a raced recomputation) refreshes the payload but keeps
// the entry's hit counter — the counter counts serves, not payload writes.
func TestCacheHitCounterAcrossPutRefresh(t *testing.T) {
	c := newTieredCache(4, nil)
	r1, r2 := &Result{}, &Result{}
	c.put("k", r1)
	ent := c.get("k")
	if ent == nil {
		t.Fatal("miss after put")
	}
	ent.hits = 3
	c.put("k", r2) // refresh
	ent2 := c.get("k")
	if ent2 == nil {
		t.Fatal("miss after refresh")
	}
	if ent2.hits != 3 {
		t.Fatalf("hit counter after refresh = %d, want 3", ent2.hits)
	}
	if ent2.result != r2 {
		t.Fatal("refresh did not replace the payload")
	}
	if c.len() != 1 {
		t.Fatalf("cache len after refresh = %d, want 1", c.len())
	}
}

// TestStatsCacheEntriesAfterEviction: Stats.CacheEntries reflects the
// post-eviction memory-tier population, not the number of puts.
func TestStatsCacheEntriesAfterEviction(t *testing.T) {
	svc := New(Options{Workers: 1, CacheEntries: 2})
	defer svc.Close()

	names := []string{"election_ring.json", "chang_roberts_pareto.json", "peterson_bimodal.json"}
	for _, name := range names {
		v, err := svc.Submit(specJSON(t, loadFixture(t, name)), nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := await(t, svc, v.ID); got.Status != StatusDone {
			t.Fatalf("%s ended %s (%s)", name, got.Status, got.Error)
		}
	}
	if got := svc.Stats().CacheEntries; got != 2 {
		t.Fatalf("Stats.CacheEntries after eviction = %d, want 2", got)
	}
	// The evicted (oldest) scenario recomputes; the retained ones hit.
	v, err := svc.Submit(specJSON(t, loadFixture(t, names[0])), nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.CacheHits != 0 {
		t.Fatal("evicted scenario served from cache")
	}
	await(t, svc, v.ID)
	v2, err := svc.Submit(specJSON(t, loadFixture(t, names[2])), nil)
	if err != nil {
		t.Fatal(err)
	}
	if v2.CacheHits != 1 {
		t.Fatalf("retained scenario cache hits = %d, want 1", v2.CacheHits)
	}
}
