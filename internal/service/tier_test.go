package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"abenet/internal/spec"
	"abenet/internal/store"
)

// mapTier is a persistent tier over a byte map with store.Disk's codec:
// json.Marshal on Put, json.Unmarshal on Get. Close is a no-op, so two
// services in turn can share one map as a restart over the same store.
type mapTier struct {
	mu      sync.Mutex
	entries map[string][]byte
}

func newMapTier() *mapTier { return &mapTier{entries: map[string][]byte{}} }

func (m *mapTier) Get(key string) (*Result, bool) {
	m.mu.Lock()
	data, ok := m.entries[key]
	m.mu.Unlock()
	if !ok {
		return nil, false
	}
	var v *Result
	if err := json.Unmarshal(data, &v); err != nil {
		return nil, false
	}
	return v, true
}

func (m *mapTier) Put(key string, v *Result) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	m.mu.Lock()
	m.entries[key] = data
	m.mu.Unlock()
	return nil
}

func (m *mapTier) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

func (m *mapTier) Close() error { return nil }

// faultTier wraps a persistent tier with injected faults: the next
// failPuts Puts fail with ENOSPC, every Put first sleeps putDelay, and
// while blockPut / blockGet is set the call signals entered and waits for
// release. Len never blocks.
type faultTier struct {
	store.Store[*Result]
	failPuts atomic.Int64
	putDelay time.Duration
	putsDone atomic.Int64
	blockPut atomic.Bool
	blockGet atomic.Bool
	entered  chan struct{}
	release  chan struct{}
}

func newFaultTier(inner store.Store[*Result]) *faultTier {
	return &faultTier{Store: inner, entered: make(chan struct{}, 16), release: make(chan struct{})}
}

func (f *faultTier) hold(block *atomic.Bool) {
	if block.Load() {
		f.entered <- struct{}{}
		<-f.release
	}
}

func (f *faultTier) Get(key string) (*Result, bool) {
	f.hold(&f.blockGet)
	return f.Store.Get(key)
}

func (f *faultTier) Put(key string, v *Result) error {
	f.hold(&f.blockPut)
	defer f.putsDone.Add(1)
	time.Sleep(f.putDelay)
	if f.failPuts.Add(-1) >= 0 {
		return fmt.Errorf("store: writing %q: %w", key, syscall.ENOSPC)
	}
	return f.Store.Put(key, v)
}

// within runs fn and reports an error if it has not returned by the
// deadline. The goroutine is left behind on failure; the caller releases
// whatever it waits on before closing the service.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Errorf("%s did not return while the persistent tier was blocked", what)
	}
}

// postSpec POSTs raw as a submit-and-wait request and returns the status
// code and the body.
func postSpec(t *testing.T, url string, raw []byte, seed *uint64) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(RunRequest{Spec: raw, Seed: seed, Wait: true})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// directResult is the result body a direct run of (raw, seed) encodes to.
func directResult(t *testing.T, raw []byte, seed *uint64) []byte {
	t.Helper()
	sp, err := spec.DecodeBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	if seed != nil {
		sp.Env.Seed = *seed
	}
	var res *Result
	if sp.Sweep != nil {
		points, err := sp.RunSweep(1, nil)
		if err != nil {
			t.Fatal(err)
		}
		res = &Result{Points: spec.SweepView(points, sp.Sweep.Metrics)}
	} else {
		rep, err := sp.Run()
		if err != nil {
			t.Fatal(err)
		}
		res = &Result{Report: &rep, Metrics: rep.Metrics(), Trace: rep.Trace}
		rep.Trace = nil
	}
	out, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// resultOf extracts the compact "result" object of a response body.
func resultOf(t *testing.T, body []byte) []byte {
	t.Helper()
	var v struct {
		Status Status          `json:"status"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("undecodable response %q: %v", body, err)
	}
	if v.Status != StatusDone {
		t.Fatalf("job is %s, want done: %s", v.Status, body)
	}
	var out bytes.Buffer
	if err := json.Compact(&out, v.Result); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// fixtureBytes reads a committed spec document.
func fixtureBytes(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestLockFreeOfTierIO: while the persistent tier's Put — and then,
// separately, its Get — is blocked, a status read, Stats, GET /metrics, a
// memory hit on another key and the cancel of a queued job all return.
// None of them may wait behind tier I/O under the service lock.
func TestLockFreeOfTierIO(t *testing.T) {
	for _, blocked := range []string{"put", "get"} {
		t.Run(blocked, func(t *testing.T) {
			tier := newFaultTier(newMapTier())
			var holdWorker atomic.Bool
			workerIn, workerGo := make(chan struct{}, 4), make(chan struct{})
			svc := New(Options{Workers: 1, QueueDepth: 8, Persist: tier, BeforeJob: func() {
				if holdWorker.Load() {
					workerIn <- struct{}{}
					<-workerGo
				}
			}})
			defer svc.Close()
			handler := NewHandler(svc, HandlerOptions{})
			ring := fixtureBytes(t, filepath.Join(fixtureDir, "election_ring.json"))
			seed := func(s uint64) *uint64 { return &s }

			// Key B is computed, written through and in the memory tier
			// before anything blocks.
			vb, err := svc.Submit(ring, seed(100))
			if err != nil {
				t.Fatal(err)
			}
			await(t, svc, vb.ID)
			awaitPuts(t, tier, 1)

			var unblock func()
			var queued View
			switch blocked {
			case "put":
				// Job A seals and its write-through blocks the one worker;
				// the job behind it waits in the queue.
				tier.blockPut.Store(true)
				va, err := svc.Submit(ring, seed(101))
				if err != nil {
					t.Fatal(err)
				}
				if queued, err = svc.Submit(ring, seed(102)); err != nil {
					t.Fatal(err)
				}
				<-tier.entered
				within(t, "Get of the sealed job", func() {
					if v, err := svc.Get(va.ID); err != nil || v.Status != StatusDone {
						t.Errorf("Get(%s) = %s, %v; want done", va.ID, v.Status, err)
					}
				})
				unblock = func() { tier.blockPut.Store(false); close(tier.release) }
			case "get":
				// The worker is held on one job, another waits in the queue,
				// then a submission of a fresh key blocks in the tier's Get.
				holdWorker.Store(true)
				if _, err := svc.Submit(ring, seed(101)); err != nil {
					t.Fatal(err)
				}
				<-workerIn
				if queued, err = svc.Submit(ring, seed(102)); err != nil {
					t.Fatal(err)
				}
				tier.blockGet.Store(true)
				go func() { _, _ = svc.Submit(ring, seed(103)) }()
				<-tier.entered
				tier.blockGet.Store(false) // only the one Get blocks
				within(t, "Get of the queued job", func() {
					if v, err := svc.Get(queued.ID); err != nil || v.Status != StatusQueued {
						t.Errorf("Get(%s) = %s, %v; want queued", queued.ID, v.Status, err)
					}
				})
				unblock = func() {
					close(tier.release)
					holdWorker.Store(false)
					close(workerGo)
				}
			}

			within(t, "Stats", func() { svc.Stats() })
			within(t, "GET /metrics", func() {
				rec := httptest.NewRecorder()
				handler.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
				if rec.Code != http.StatusOK {
					t.Errorf("GET /metrics = %d", rec.Code)
				}
			})
			within(t, "a memory-hit submit of another key", func() {
				if v, err := svc.Submit(ring, seed(100)); err != nil || v.CacheHits == 0 {
					t.Errorf("memory hit: %+v, %v", v, err)
				}
			})
			within(t, "Cancel of a queued job", func() {
				if v, err := svc.Cancel(queued.ID); err != nil || v.Status != StatusCancelled {
					t.Errorf("Cancel(%s) = %s, %v; want cancelled", queued.ID, v.Status, err)
				}
			})
			unblock()
		})
	}
}

// TestStoreFaults: the persistent tier is allowed to fail. A failed write
// leaves the job done and served from memory, is counted once, and heals
// on the next computation of the key; a slow write delays no response; a
// torn or bit-flipped entry on disk is quarantined and recomputed, never
// served. No case is a 500, and no neighbouring job is touched.
func TestStoreFaults(t *testing.T) {
	ring := fixtureBytes(t, filepath.Join(fixtureDir, "election_ring.json"))
	pareto := fixtureBytes(t, filepath.Join(fixtureDir, "chang_roberts_pareto.json"))

	t.Run("enospc", func(t *testing.T) {
		inner := newMapTier()
		tier := newFaultTier(inner)
		tier.failPuts.Store(1)
		// One memory entry: computing the neighbour evicts the failed key.
		svc := New(Options{Workers: 1, CacheEntries: 1, Persist: tier})
		defer svc.Close()
		ts := httptest.NewServer(NewHandler(svc, HandlerOptions{}))
		defer ts.Close()

		code, body := postSpec(t, ts.URL, ring, nil)
		if code != http.StatusOK {
			t.Fatalf("submit with a failing write-through = %d: %s", code, body)
		}
		want := directResult(t, ring, nil)
		if got := resultOf(t, body); !bytes.Equal(got, want) {
			t.Fatalf("served result differs from a direct run:\ngot:  %s\nwant: %s", got, want)
		}
		awaitPuts(t, tier, 1)
		if st := svc.Stats(); st.StoreErrors != 1 || st.StoreEntries != 0 {
			t.Fatalf("after the failed write: store_errors %d entries %d, want 1 / 0", st.StoreErrors, st.StoreEntries)
		}
		// The job's own view names the failed write, and stays done.
		if v := awaitStoreError(t, ts.URL, body); v.Status != StatusDone || !strings.Contains(v.StoreError.Error, syscall.ENOSPC.Error()) {
			t.Fatalf("view after the failed write: status %s, store_error %+v", v.Status, v.StoreError)
		}
		// Still served, from memory.
		if code, body := postSpec(t, ts.URL, ring, nil); code != http.StatusOK || !bytes.Equal(resultOf(t, body), want) {
			t.Fatalf("memory hit after the failed write = %d: %s", code, body)
		}
		if st := svc.Stats(); st.MemoryHits != 1 {
			t.Fatalf("memory hits = %d, want 1", st.MemoryHits)
		}
		// The neighbour computes and persists normally, evicting the key.
		if code, body := postSpec(t, ts.URL, pareto, nil); code != http.StatusOK ||
			!bytes.Equal(resultOf(t, body), directResult(t, pareto, nil)) {
			t.Fatalf("neighbour = %d: %s", code, body)
		}
		awaitPuts(t, tier, 2)
		// The next computation of the key heals its slot.
		code, body = postSpec(t, ts.URL, ring, nil)
		if code != http.StatusOK || !bytes.Equal(resultOf(t, body), want) {
			t.Fatalf("recomputation = %d: %s", code, body)
		}
		awaitPuts(t, tier, 3)
		st := svc.Stats()
		if st.StoreErrors != 1 || st.StoreEntries != 2 || st.StoreHits != 0 {
			t.Fatalf("after healing: store_errors %d entries %d hits %d, want 1 / 2 / 0", st.StoreErrors, st.StoreEntries, st.StoreHits)
		}
	})

	t.Run("slow put", func(t *testing.T) {
		tier := newFaultTier(newMapTier())
		tier.putDelay = 300 * time.Millisecond
		svc := New(Options{Workers: 2, Persist: tier})
		defer svc.Close()
		ts := httptest.NewServer(NewHandler(svc, HandlerOptions{}))
		defer ts.Close()

		code, body := postSpec(t, ts.URL, ring, nil)
		if tier.putsDone.Load() != 0 {
			t.Error("the response waited for the write-through")
		}
		if code != http.StatusOK || !bytes.Equal(resultOf(t, body), directResult(t, ring, nil)) {
			t.Fatalf("submit over a slow tier = %d: %s", code, body)
		}
		if code, body := postSpec(t, ts.URL, pareto, nil); code != http.StatusOK ||
			!bytes.Equal(resultOf(t, body), directResult(t, pareto, nil)) {
			t.Fatalf("neighbour over a slow tier = %d: %s", code, body)
		}
		awaitStoreEntries(t, svc, 2)
		if st := svc.Stats(); st.StoreErrors != 0 {
			t.Fatalf("store_errors = %d, want 0", st.StoreErrors)
		}
	})

	for _, c := range []struct {
		name    string
		corrupt func([]byte) []byte
	}{
		{"torn", func(b []byte) []byte { return b[:len(b)/2] }},
		{"bit flip", func(b []byte) []byte { b[0] ^= 1; return b }}, // '{' → 'z'
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			svc1 := New(Options{Workers: 1, Persist: openDisk(t, dir)})
			for _, raw := range [][]byte{ring, pareto} {
				v, err := svc1.Submit(raw, nil)
				if err != nil {
					t.Fatal(err)
				}
				await(t, svc1, v.ID)
			}
			svc1.Close() // every write-through has landed
			sp, err := spec.DecodeBytes(ring)
			if err != nil {
				t.Fatal(err)
			}
			hash, err := sp.Hash()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, hash[:2], fmt.Sprintf("%s@%d.json", hash, sp.Env.Seed))
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, c.corrupt(data), 0o644); err != nil {
				t.Fatal(err)
			}

			svc := New(Options{Workers: 1, Persist: openDisk(t, dir)})
			defer svc.Close()
			ts := httptest.NewServer(NewHandler(svc, HandlerOptions{}))
			defer ts.Close()
			code, body := postSpec(t, ts.URL, ring, nil)
			want := directResult(t, ring, nil)
			if code != http.StatusOK || !bytes.Equal(resultOf(t, body), want) {
				t.Fatalf("submit over a corrupt entry = %d: %s", code, body)
			}
			var v View
			if err := json.Unmarshal(body, &v); err != nil || v.CacheHits != 0 {
				t.Fatalf("the corrupt entry was served (cache_hits %d, %v)", v.CacheHits, err)
			}
			// The neighbour's intact entry still serves from the store.
			code, body = postSpec(t, ts.URL, pareto, nil)
			if code != http.StatusOK || !bytes.Equal(resultOf(t, body), directResult(t, pareto, nil)) {
				t.Fatalf("neighbour = %d: %s", code, body)
			}
			awaitStoreEntries(t, svc, 2)
			if st := svc.Stats(); st.StoreHits != 1 || st.StoreErrors != 0 || st.StoreReadErrors != 1 {
				t.Fatalf("store hits %d errors %d read errors %d, want 1 / 0 / 1", st.StoreHits, st.StoreErrors, st.StoreReadErrors)
			}
			// The recomputation rewrote the slot with the served bytes.
			if data, err := os.ReadFile(path); err != nil || !bytes.Equal(data, want) {
				t.Fatalf("healed entry = %q (%v), want the served result", data, err)
			}
		})
	}
}

// awaitStoreError GETs the job a submission's response body names until its
// view carries a StoreError: the worker records it once the write-through
// has returned, just after the tier counts the Put as done.
func awaitStoreError(t *testing.T, url string, submitted []byte) View {
	t.Helper()
	var v View
	if err := json.Unmarshal(submitted, &v); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(url + "/v1/runs/" + v.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if v.StoreError != nil {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s: no store_error on its view", v.ID)
		}
		time.Sleep(time.Millisecond)
	}
}

// awaitPuts waits until the tier has finished n Put calls, failed or not.
func awaitPuts(t *testing.T, tier *faultTier, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for tier.putsDone.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d Puts finished, want %d", tier.putsDone.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// reflectionBody is the body GET /v1/runs/{id} must carry for the job: the
// json package's encoding of its view with the result encoded by reflection
// (raw nil), and a newline.
func reflectionBody(t *testing.T, svc *Service, id string) []byte {
	t.Helper()
	v, err := svc.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if v.Result == nil {
		t.Fatalf("job %s has no result", id)
	}
	plain := *v.Result
	plain.raw = nil
	v.Result = &plain
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return append(body, '\n')
}

// TestEncodeOnceIsTheReflectionEncoding: for every committed spec, the
// response body of a fresh run, a memory hit, a persistent hit over a
// byte-map tier and a persistent hit over store.Disk — and GET
// /v1/runs/{id} of each — equals the body the reflection encoding gives,
// although the handler inserts the stored result bytes unchecked, and all
// four carry the first response's result bytes.
func TestEncodeOnceIsTheReflectionEncoding(t *testing.T) {
	var paths []string
	for _, dir := range []string{fixtureDir, "../../benchmark/specs"} {
		matches, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil || len(matches) == 0 {
			t.Fatalf("no specs under %s (%v)", dir, err)
		}
		paths = append(paths, matches...)
	}
	type tier struct {
		name string
		open func() store.Store[*Result]
	}
	// check submits raw to svc over HTTP and compares the body, and the GET
	// body of the same job, with the reflection encoding.
	check := func(svc *Service, what string, raw []byte, wantHit bool) []byte {
		t.Helper()
		ts := httptest.NewServer(NewHandler(svc, HandlerOptions{}))
		defer ts.Close()
		code, body := postSpec(t, ts.URL, raw, nil)
		var v View
		if err := json.Unmarshal(body, &v); err != nil || code != http.StatusOK || v.Status != StatusDone {
			t.Fatalf("%s: %d %s (%v)", what, code, body, err)
		}
		if (v.CacheHits > 0) != wantHit {
			t.Fatalf("%s: cache_hits %d", what, v.CacheHits)
		}
		if ref := reflectionBody(t, svc, v.ID); !bytes.Equal(body, ref) {
			t.Fatalf("%s: response body is not the reflection encoding:\ngot:  %s\nwant: %s", what, body, ref)
		}
		resp, err := http.Get(ts.URL + "/v1/runs/" + v.ID)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if ref := reflectionBody(t, svc, v.ID); !bytes.Equal(got, ref) {
			t.Fatalf("%s: GET body is not the reflection encoding:\ngot:  %s\nwant: %s", what, got, ref)
		}
		return resultOf(t, body)
	}
	for _, path := range paths {
		t.Run(filepath.Base(filepath.Dir(path))+"/"+filepath.Base(path), func(t *testing.T) {
			raw := fixtureBytes(t, path)
			mapped, diskDir := newMapTier(), t.TempDir()
			tiers := []tier{
				{"map", func() store.Store[*Result] { return mapped }},
				{"disk", func() store.Store[*Result] { return openDisk(t, diskDir) }},
			}
			computing := New(Options{Workers: 1, Persist: tiers[0].open()})
			first := check(computing, "fresh", raw, false)
			if hit := check(computing, "memory hit", raw, true); !bytes.Equal(hit, first) {
				t.Fatalf("memory hit differs from the first response")
			}
			computing.Close()
			// Fill the disk tier the same way, then serve both tiers to a
			// service with an empty memory tier.
			diskFill := New(Options{Workers: 1, Persist: tiers[1].open()})
			check(diskFill, "fresh (disk)", raw, false)
			diskFill.Close()
			for _, tr := range tiers {
				svc := New(Options{Workers: 1, Persist: tr.open()})
				hit := check(svc, "persistent hit over "+tr.name, raw, true)
				if st := svc.Stats(); st.StoreHits != 1 {
					t.Fatalf("%s: store hits %d, want 1", tr.name, st.StoreHits)
				}
				svc.Close()
				if !bytes.Equal(hit, first) {
					t.Fatalf("persistent hit over %s differs from the first response:\nfirst: %s\nhit:   %s", tr.name, first, hit)
				}
			}
		})
	}
}

// TestSubmitCancelStreamStorm: goroutines submit, cancel and subscribe to
// progress streams then disconnect, over a small corpus with a persistent
// tier and a memory tier too small for it. Afterwards no goroutine is
// left behind, every done job's result is a direct run of its (spec,
// seed), and the counters add up: every submission is a memory hit, a
// store hit, a dedup rider or an enqueued job.
func TestSubmitCancelStreamStorm(t *testing.T) {
	corpus := [][]byte{
		fixtureBytes(t, filepath.Join(fixtureDir, "election_ring.json")),
		fixtureBytes(t, filepath.Join(fixtureDir, "chang_roberts_pareto.json")),
	}
	const seeds, clients, rounds = 3, 4, 40
	want := map[string][]byte{}
	for c, raw := range corpus {
		for s := uint64(1); s <= seeds; s++ {
			want[fmt.Sprint(c, "@", s)] = directResult(t, raw, &s)
		}
	}
	baseline := runtime.NumGoroutine()

	svc := New(Options{Workers: 2, QueueDepth: clients * rounds, CacheEntries: 2, Persist: newMapTier()})
	ts := httptest.NewServer(NewHandler(svc, HandlerOptions{}))
	client := &http.Client{Transport: &http.Transport{}}

	var mu sync.Mutex
	hits, submits := 0, 0
	jobIDs := map[string]bool{} // non-hit job ids: enqueued jobs and the ones riders joined
	var finals []struct {
		scenario string
		view     View
	}
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for r := 0; r < rounds; r++ {
				c, s := rng.Intn(len(corpus)), uint64(1+rng.Intn(seeds))
				v, err := svc.Submit(corpus[c], &s)
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				mu.Lock()
				submits++
				if v.CacheHits > 0 {
					hits++
				} else {
					jobIDs[v.ID] = true
				}
				mu.Unlock()
				switch rng.Intn(3) {
				case 0:
					_, _ = svc.Cancel(v.ID) // refused once finished or shared
				case 1:
					// Subscribe, read the first event, disconnect.
					ctx, cancel := context.WithCancel(context.Background())
					req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/runs/"+v.ID+"/events", nil)
					if resp, err := client.Do(req); err == nil {
						_, _ = resp.Body.Read(make([]byte, 64))
						cancel()
						resp.Body.Close()
					}
					cancel()
				}
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				final, err := svc.Wait(ctx, v.ID)
				cancel()
				if err != nil && !errors.Is(err, ErrNotFound) {
					t.Errorf("wait %s: %v", v.ID, err)
					return
				}
				mu.Lock()
				finals = append(finals, struct {
					scenario string
					view     View
				}{fmt.Sprint(c, "@", s), final})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ts.Close()
	client.CloseIdleConnections()
	svc.Close()

	for _, f := range finals {
		if f.view.Status != StatusDone {
			continue
		}
		got, err := json.Marshal(f.view.Result)
		if err != nil || !bytes.Equal(got, want[f.scenario]) {
			t.Fatalf("job %s (%s): result is not a direct run of its (spec, seed):\ngot:  %s\nwant: %s",
				f.view.ID, f.scenario, got, want[f.scenario])
		}
	}
	st := svc.Stats()
	enqueued := len(jobIDs)
	riders := submits - hits - enqueued
	if st.MemoryHits+st.StoreHits != hits {
		t.Fatalf("memory %d + store %d hits, but %d submissions were answered from a cache", st.MemoryHits, st.StoreHits, hits)
	}
	if got := st.Done + st.Failed + st.Cancelled - hits; got != enqueued {
		t.Fatalf("%d enqueued jobs finished, want %d", got, enqueued)
	}
	if st.Submissions != st.MemoryHits+st.StoreHits+riders+enqueued || st.Submissions != submits {
		t.Fatalf("submissions %d != memory hits %d + store hits %d + riders %d + enqueued %d (%d submits)",
			st.Submissions, st.MemoryHits, st.StoreHits, riders, enqueued, submits)
	}
	if st.StoreHits == 0 || st.Cancelled == 0 {
		t.Logf("storm exercised store hits %d, cancels %d", st.StoreHits, st.Cancelled)
	}

	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after the storm, baseline %d:\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
