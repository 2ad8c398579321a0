package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"abenet/internal/runner"
	"abenet/internal/spec"
	"abenet/internal/store"
)

// openDisk opens the persistent tier over dir, failing the test on error.
func openDisk(t *testing.T, dir string) *store.Disk[*Result] {
	t.Helper()
	d, err := store.OpenDisk[*Result](dir)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// awaitStoreEntries waits for the persistent tier to hold want entries. A
// job is done once the memory tier serves it; its write-through follows
// outside the service lock, so a test that reads the store right after
// Wait polls for it.
func awaitStoreEntries(t *testing.T, svc *Service, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		got := svc.Stats().StoreEntries
		if got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("store entries = %d, want %d", got, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPersistentStoreSurvivesRestart is the PR's acceptance loop: a result
// computed by one service process is served by a *fresh* process over the
// same -store directory with no simulation executed — proven by the
// per-tier hit counter and a worker-side execution counter.
func TestPersistentStoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	sp := loadFixture(t, "election_ring.json")

	// Process 1: compute and persist.
	svc1 := New(Options{Workers: 1, Persist: openDisk(t, dir)})
	v, err := svc1.Submit(specJSON(t, sp), nil)
	if err != nil {
		t.Fatal(err)
	}
	v = await(t, svc1, v.ID)
	if v.Status != StatusDone {
		t.Fatalf("job ended %s (%s)", v.Status, v.Error)
	}
	want, _ := json.Marshal(v.Result.Metrics)
	awaitStoreEntries(t, svc1, 1)
	svc1.Close()

	// Process 2: same directory, fresh memory. The resubmission must be
	// served from the disk tier without running a single simulation.
	var executed atomic.Int64
	svc2 := New(Options{
		Workers:   1,
		Persist:   openDisk(t, dir),
		BeforeJob: func() { executed.Add(1) },
	})
	defer svc2.Close()

	v2, err := svc2.Submit(specJSON(t, loadFixture(t, "election_ring.json")), nil)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Status != StatusDone {
		t.Fatalf("restart resubmission is %s, want done straight from the store", v2.Status)
	}
	if v2.CacheHits != 1 {
		t.Fatalf("restart resubmission cache hits = %d, want 1", v2.CacheHits)
	}
	got, _ := json.Marshal(v2.Result.Metrics)
	if !bytes.Equal(got, want) {
		t.Fatalf("persisted result diverged:\nstored:   %s\ncomputed: %s", got, want)
	}
	st := svc2.Stats()
	if st.StoreHits != 1 || st.MemoryHits != 0 {
		t.Fatalf("per-tier hits after restart = mem %d / store %d, want 0 / 1", st.MemoryHits, st.StoreHits)
	}
	if n := executed.Load(); n != 0 {
		t.Fatalf("restart resubmission executed %d simulations, want 0", n)
	}

	// The promoted entry now serves from memory.
	v3, err := svc2.Submit(specJSON(t, loadFixture(t, "election_ring.json")), nil)
	if err != nil {
		t.Fatal(err)
	}
	if v3.CacheHits != 2 {
		t.Fatalf("promoted resubmission cache hits = %d, want 2", v3.CacheHits)
	}
	st = svc2.Stats()
	if st.MemoryHits != 1 || st.StoreHits != 1 {
		t.Fatalf("per-tier hits after promotion = mem %d / store %d, want 1 / 1", st.MemoryHits, st.StoreHits)
	}
	if n := executed.Load(); n != 0 {
		t.Fatalf("promoted resubmission executed %d simulations, want 0", n)
	}
}

// TestPersistentHitIsTheFirstResponse: for every registered protocol, the
// result a restarted service reads off the disk tier encodes to the bytes
// the computing service answered with. Report.Extra used to come back as a
// generic map, whose keys re-encode sorted.
func TestPersistentHitIsTheFirstResponse(t *testing.T) {
	for _, name := range runner.Protocols() {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			submit := func(wantStoreHits int) []byte {
				t.Helper()
				svc := New(Options{Workers: 1, Persist: openDisk(t, dir)})
				defer svc.Close()
				doc := []byte(`{"version": 1, "env": {"n": 8, "seed": 3}, "protocol": {"name": "` + name + `"}}`)
				sp, err := spec.DecodeBytes(doc)
				if err != nil {
					t.Fatal(err)
				}
				v, err := svc.Submit(specJSON(t, sp), nil)
				if err != nil {
					t.Fatal(err)
				}
				if v = await(t, svc, v.ID); v.Status != StatusDone {
					t.Fatalf("job ended %s (%s)", v.Status, v.Error)
				}
				if hits := svc.Stats().StoreHits; hits != wantStoreHits {
					t.Fatalf("store hits = %d, want %d", hits, wantStoreHits)
				}
				out, err := json.Marshal(v.Result)
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
			first, stored := submit(0), submit(1)
			if !bytes.Equal(first, stored) {
				t.Fatalf("disk hit is not the first response:\nfirst:  %s\nstored: %s", first, stored)
			}
		})
	}
}

// TestPersistentTierBackfillsMemoryEviction: when the memory LRU evicts a
// key, the persistent tier still serves it (and promotes it back) in the
// same process — the two-tier read path, not just the restart story.
func TestPersistentTierBackfillsMemoryEviction(t *testing.T) {
	svc := New(Options{Workers: 1, CacheEntries: 1, Persist: openDisk(t, t.TempDir())})
	defer svc.Close()

	a := loadFixture(t, "election_ring.json")
	b := loadFixture(t, "chang_roberts_pareto.json")
	va, err := svc.Submit(specJSON(t, a), nil)
	if err != nil {
		t.Fatal(err)
	}
	await(t, svc, va.ID)
	vb, err := svc.Submit(specJSON(t, b), nil)
	if err != nil {
		t.Fatal(err)
	}
	await(t, svc, vb.ID) // memory tier (capacity 1) now holds only b

	v, err := svc.Submit(specJSON(t, a), nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != StatusDone || v.CacheHits != 1 {
		t.Fatalf("evicted key: status %s hits %d, want done/1 from the store tier", v.Status, v.CacheHits)
	}
	if hits := svc.Stats().StoreHits; hits != 1 {
		t.Fatalf("store hits = %d, want 1", hits)
	}
	awaitStoreEntries(t, svc, 2)
}

// TestSeedsAreDistinctStoreEntries: (hash, seed) is the store key — two
// seeds of one scenario persist as two entries and never cross-serve.
func TestSeedsAreDistinctStoreEntries(t *testing.T) {
	svc := New(Options{Workers: 1, Persist: openDisk(t, t.TempDir())})
	defer svc.Close()

	sp := loadFixture(t, "election_ring.json")
	s1, s2 := uint64(1), uint64(2)
	v1, err := svc.Submit(specJSON(t, sp), &s1)
	if err != nil {
		t.Fatal(err)
	}
	v1 = await(t, svc, v1.ID)
	v2, err := svc.Submit(specJSON(t, sp), &s2)
	if err != nil {
		t.Fatal(err)
	}
	v2 = await(t, svc, v2.ID)
	if v2.CacheHits != 0 {
		t.Fatal("different seed served from the store")
	}
	awaitStoreEntries(t, svc, 2)
	m1, _ := json.Marshal(v1.Result.Metrics)
	m2, _ := json.Marshal(v2.Result.Metrics)
	if bytes.Equal(m1, m2) {
		t.Fatal("distinct seeds produced identical metrics (suspicious fixture)")
	}
}

// TestAdmissionControl: fresh submissions beyond the token bucket fail
// with ErrOverloaded + a retry hint, refill admits again, and cache hits
// are never charged — overload degrades to backpressure while repeats
// keep being served.
func TestAdmissionControl(t *testing.T) {
	clock := time.Unix(1000, 0)
	svc := New(Options{
		Workers:     2,
		SubmitRate:  1,
		SubmitBurst: 2,
		now:         func() time.Time { return clock },
	})
	defer svc.Close()

	sp := loadFixture(t, "election_ring.json")
	seeds := []uint64{10, 11, 12}

	// Burst of 2 admitted, third fresh submission rejected.
	v1, err := svc.Submit(specJSON(t, sp), &seeds[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(specJSON(t, sp), &seeds[1]); err != nil {
		t.Fatal(err)
	}
	_, err = svc.Submit(specJSON(t, sp), &seeds[2])
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third fresh submission: %v, want ErrOverloaded", err)
	}
	if secs := RetryAfter(err); secs < 1 {
		t.Fatalf("RetryAfter = %d, want >= 1", secs)
	}

	// A cache hit is never charged: the first job's result keeps serving
	// even with an empty bucket.
	await(t, svc, v1.ID)
	hit, err := svc.Submit(specJSON(t, sp), &seeds[0])
	if err != nil {
		t.Fatalf("cache hit rejected under overload: %v", err)
	}
	if hit.CacheHits != 1 {
		t.Fatalf("cache hit under overload reports %d hits, want 1", hit.CacheHits)
	}

	// Refill: one second buys one token.
	clock = clock.Add(time.Second)
	v3, err := svc.Submit(specJSON(t, sp), &seeds[2])
	if err != nil {
		t.Fatalf("post-refill submission rejected: %v", err)
	}
	await(t, svc, v3.ID)
}

// TestAdmissionNeverChargesDedup: a submission that coalesces onto an
// in-flight job rides for free.
func TestAdmissionNeverChargesDedup(t *testing.T) {
	entered := make(chan struct{}, 4)
	release := make(chan struct{})
	clock := time.Unix(2000, 0)
	svc := New(Options{
		Workers:     1,
		SubmitRate:  1,
		SubmitBurst: 1,
		now:         func() time.Time { return clock },
		BeforeJob: func() {
			entered <- struct{}{}
			<-release
		},
	})
	defer svc.Close()

	sp := loadFixture(t, "election_ring.json")
	v1, err := svc.Submit(specJSON(t, sp), nil)
	if err != nil {
		t.Fatal(err)
	}
	<-entered // the only token is spent; the job is held running
	dup, err := svc.Submit(specJSON(t, sp), nil)
	if err != nil {
		t.Fatalf("dedup rider rejected by admission control: %v", err)
	}
	if dup.ID != v1.ID || dup.Deduplicated != 1 {
		t.Fatalf("expected a dedup onto %s, got %s (dedups %d)", v1.ID, dup.ID, dup.Deduplicated)
	}
	close(release)
	await(t, svc, v1.ID)
}
