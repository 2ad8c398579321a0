package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"abenet/internal/runner"
	"abenet/internal/service"
	"abenet/internal/spec"
	"abenet/internal/store"
)

// The serve-mixed corpus is frozen here so that a fixture added to
// examples/specs later cannot change the workload.
//
//go:embed specs/*.json
var corpusFS embed.FS

// scenario is one submittable spec of the corpus.
type scenario struct {
	name string
	raw  []byte // compact JSON, as POSTed
}

// loadCorpus reads and validates the embedded corpus, in name order. Every
// spec must be a single deterministic run: the cache (and so the hit/fresh
// split) only exists for those.
func loadCorpus() ([]scenario, error) {
	entries, err := corpusFS.ReadDir("specs")
	if err != nil {
		return nil, err
	}
	var corpus []scenario
	for _, e := range entries {
		data, err := corpusFS.ReadFile("specs/" + e.Name())
		if err != nil {
			return nil, err
		}
		sp, err := spec.DecodeBytes(data)
		if err != nil {
			return nil, fmt.Errorf("specs/%s: %w", e.Name(), err)
		}
		info, ok := runner.ProtocolInfo(sp.Protocol.Name)
		if sp.Sweep != nil || !ok || !info.Deterministic {
			return nil, fmt.Errorf("specs/%s: the corpus holds single deterministic runs only", e.Name())
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, data); err != nil {
			return nil, fmt.Errorf("specs/%s: %w", e.Name(), err)
		}
		corpus = append(corpus, scenario{name: e.Name(), raw: compact.Bytes()})
	}
	if len(corpus) == 0 {
		return nil, fmt.Errorf("empty spec corpus")
	}
	return corpus, nil
}

// planned is one request of the plan: a (scenario, seed) pair, and for a
// repeat the plan index of the request it repeats (-1 for a first
// submission).
type planned struct {
	scenario int
	seed     uint64
	repeatOf int
}

// repeatFraction is the share of planned requests that repeat an earlier
// (scenario, seed): half the traffic can be served from a cache tier, half
// must simulate.
const repeatFraction = 0.5

// planRequests builds the request plan for a workload seed: the same seed
// yields the same plan. A repeat picks uniformly among all earlier
// requests, so with a 256-entry memory tier the older repeats are served
// from the disk tier.
func planRequests(n int, seed uint64, scenarios int) []planned {
	r := rand.New(rand.NewPCG(seed, 0x5e7e5eed))
	plan := make([]planned, 0, n)
	nextSeed := seed*1_000_003 + 17
	for i := 0; i < n; i++ {
		if i > 0 && r.Float64() < repeatFraction {
			j := r.IntN(i)
			first := j
			if plan[j].repeatOf >= 0 {
				first = plan[j].repeatOf
			}
			plan = append(plan, planned{scenario: plan[j].scenario, seed: plan[j].seed, repeatOf: first})
			continue
		}
		plan = append(plan, planned{scenario: r.IntN(scenarios), seed: nextSeed, repeatOf: -1})
		nextSeed++
	}
	return plan
}

// scratchDir creates a fresh directory under .bench_tmp in the working
// directory: the benchmark writes nowhere outside its checkout.
func scratchDir(prefix string) (string, error) {
	if err := os.MkdirAll(".bench_tmp", 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(".bench_tmp", prefix+"-")
}

// Serving parameters of serve-mixed, stated once.
const (
	serveWorkers   = 2
	serveClients   = 2
	serveMemTier   = 256 // memory-tier entries; older repeats fall to disk
	warmupRequests = 200
	planLength     = 200_000 // far more than any run consumes
	serveTailQ     = 0.90    // see README: p95 sits on a corpus mode boundary
)

// ramTier is the persistent tier serve-mixed measures with: store.Disk's
// JSON encoding on Put and decoding on Get, over a byte map instead of
// files. On the reference box store.Disk's fsync takes 0.3–0.75 ms, drifts
// 2× within minutes, and happens under the service lock, which makes a
// fresh request's latency 75 % disk wait (2.5 ms against 0.6 ms, measured
// with both tiers on the same seeds) and its run-to-run spread wider than
// any bound — a device measurement, not one of this program. The real
// store.Disk is timed by the store probes and by the traced pass's
// real-disk stretch (service.submit_rtt_us.fresh_disk).
type ramTier struct {
	mu      sync.Mutex
	entries map[string][]byte
}

func (t *ramTier) Get(key string) (*service.Result, bool) {
	t.mu.Lock()
	data, ok := t.entries[key]
	t.mu.Unlock()
	if !ok {
		return nil, false
	}
	var v *service.Result
	if err := json.Unmarshal(data, &v); err != nil {
		return nil, false
	}
	return v, true
}

func (t *ramTier) Put(key string, v *service.Result) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	t.mu.Lock()
	t.entries[key] = data
	t.mu.Unlock()
	return nil
}

func (t *ramTier) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.entries)
}

func (t *ramTier) Close() error { return nil }

// server is the in-process serving stack: service + HTTP handler on a
// loopback listener, with a persistent tier behind the memory tier.
type server struct {
	svc     *service.Service
	srv     *http.Server
	base    string
	dir     string         // the real disk store's directory, if any
	clients []*http.Client // serveClients closed-loop callers
}

// startServer starts the stack over a ramTier, or, with realDisk, over a
// store.Disk in a scratch directory.
func startServer(realDisk bool) (*server, error) {
	var persist store.Store[*service.Result] = &ramTier{entries: map[string][]byte{}}
	dir := ""
	if realDisk {
		var err error
		if dir, err = scratchDir("serve"); err != nil {
			return nil, err
		}
		disk, err := store.OpenDisk[*service.Result](dir)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		persist = disk
	}
	svc := service.New(service.Options{Workers: serveWorkers, CacheEntries: serveMemTier, Persist: persist})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	srv := &http.Server{Handler: service.NewHandler(svc, service.HandlerOptions{})}
	go func() { _ = srv.Serve(ln) }() // returns once stop closes the server
	s := &server{svc: svc, srv: srv, base: "http://" + ln.Addr().String(), dir: dir}
	for c := 0; c < serveClients; c++ {
		s.clients = append(s.clients, &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1},
			Timeout:   30 * time.Second,
		})
	}
	return s, nil
}

// stop closes the listener and every connection, drains the workers and
// removes the store directory.
func (s *server) stop() {
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	_ = s.srv.Close()
	s.svc.Close()
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// outcome is one completed request.
type outcome struct {
	idx     int // plan index
	latency time.Duration
	ms      float64 // latency in ms at reference-host speed (set by measure)
	hit     bool    // served with cache_hits > 0: no simulation ran for it
	err     string
	result  []byte // the response's "result" object
}

// response is the part of service.View the client reads.
type response struct {
	Status    service.Status  `json:"status"`
	CacheHits int             `json:"cache_hits"`
	Result    json.RawMessage `json:"result"`
	Error     string          `json:"error"`
}

// submit POSTs one submit-and-wait request and classifies the response.
func submit(client *http.Client, base string, sc scenario, seed uint64) (o outcome) {
	body := make([]byte, 0, len(sc.raw)+64)
	body = append(body, `{"spec":`...)
	body = append(body, sc.raw...)
	body = append(body, `,"seed":`...)
	body = strconv.AppendUint(body, seed, 10)
	body = append(body, `,"wait":true}`...)
	t0 := time.Now()
	defer func() { o.latency = time.Since(t0) }()
	resp, err := client.Post(base+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		o.err = err.Error()
		return o
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		o.err = err.Error()
		return o
	}
	if resp.StatusCode != http.StatusOK {
		// 503 (queue full, admission) and 202 (wait cut short) included:
		// a refused or unfinished request misses every latency bound.
		o.err = fmt.Sprintf("HTTP %d", resp.StatusCode)
		return o
	}
	var v response
	if err := json.Unmarshal(data, &v); err != nil {
		o.err = err.Error()
		return o
	}
	if v.Status != service.StatusDone || len(v.Result) == 0 {
		o.err = fmt.Sprintf("job %s: %s", v.Status, v.Error)
		return o
	}
	o.hit = v.CacheHits > 0
	o.result = v.Result
	return o
}

// drive replays plan[*next:] closed-loop from the server's clients (one
// connection each) until the deadline or the end of the plan, and returns
// the outcomes in completion order per client, concatenated.
func (s *server) drive(corpus []scenario, plan []planned, next *atomic.Int64, deadline time.Time, rec *recorder) []outcome {
	var mu sync.Mutex
	var all []outcome
	var wg sync.WaitGroup
	for _, client := range s.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []outcome
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				if i >= int64(len(plan)) {
					break
				}
				p := plan[i]
				id := rec.begin("request", 0, int(i))
				o := submit(client, s.base, corpus[p.scenario], p.seed)
				rec.end(id)
				o.idx = int(i)
				mine = append(mine, o)
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return all
}

// serveRun carries one serve-mixed invocation.
type serveRun struct {
	seed   uint64
	corpus []scenario
	plan   []planned
	srv    *server
	host   *hostClock
	next   atomic.Int64
	first  map[int][]byte // plan index of a first submission → its result

	attempted, failed int
	events            float64
}

// setup loads the corpus, builds the plan, starts the serving stack and
// warms it (connections, code paths, allocator) with requests whose seeds
// no planned request uses. It returns the seconds taken, at reference-host
// speed.
func (r *serveRun) setup() (float64, error) {
	t0 := time.Now()
	corpus, err := loadCorpus()
	if err != nil {
		return 0, err
	}
	r.corpus = corpus
	r.plan = planRequests(planLength, r.seed, len(corpus))
	if r.srv, err = startServer(false); err != nil {
		return 0, err
	}
	if err := r.srv.warm(corpus); err != nil {
		r.srv.stop()
		return 0, err
	}
	el := time.Since(t0).Seconds()
	return el / r.host.factor(), nil
}

// warm sends warmupRequests first submissions, at seeds no plan uses.
func (s *server) warm(corpus []scenario) error {
	warm := make([]planned, warmupRequests)
	for i := range warm {
		warm[i] = planned{scenario: i % len(corpus), seed: 1<<40 + uint64(i), repeatOf: -1}
	}
	var next atomic.Int64
	for _, o := range s.drive(corpus, warm, &next, time.Now().Add(time.Minute), nil) {
		if o.err != "" {
			return fmt.Errorf("serve-mixed: warm-up request failed: %s", o.err)
		}
	}
	return nil
}

// serveWindow is how long the clients run between two host calibrations.
const serveWindow = time.Second

// measure drives the plan for d in windows, calibrating the host between
// them, and returns the outcomes (latencies scaled to reference-host speed)
// and the windows' total duration at reference-host speed.
func (r *serveRun) measure(d time.Duration, rec *recorder) (outcomes []outcome, busyS float64) {
	end := time.Now().Add(d)
	r.host.factor() // a fresh calibration: set-up or probes may lie behind the last one
	for time.Now().Before(end) {
		start := time.Now()
		deadline := start.Add(serveWindow)
		if deadline.After(end) {
			deadline = end
		}
		outs := r.srv.drive(r.corpus, r.plan, &r.next, deadline, rec)
		el := time.Since(start).Seconds()
		speed := r.host.factor()
		for i := range outs {
			outs[i].ms = float64(outs[i].latency.Nanoseconds()) / 1e6 / speed
		}
		outcomes = append(outcomes, outs...)
		busyS += el / speed
		if r.next.Load() >= int64(len(r.plan)) {
			break
		}
	}
	return outcomes, busyS
}

// setupMedian sets up setupRounds times, keeps the last stack running, and
// returns the median set-up time.
func (r *serveRun) setupMedian() (float64, error) {
	var secs []float64
	for i := 0; i < setupRounds; i++ {
		if r.srv != nil {
			r.srv.stop()
		}
		s, err := r.setup()
		if err != nil {
			return 0, err
		}
		secs = append(secs, s)
	}
	r.first = map[int][]byte{}
	runtime.GC() // start timing from a settled heap
	return median(secs), nil
}

// canonicalJSON re-encodes a JSON value with sorted object keys.
func canonicalJSON(data []byte) ([]byte, error) {
	var v any
	if err := json.Unmarshal(data, &v); err != nil {
		return nil, err
	}
	return json.Marshal(v)
}

// sameResult reports whether two result payloads are the same JSON value.
// Memory-tier hits are byte-identical to the first response; a disk-tier
// hit has been through store.Disk's decode, which turns Report.Extra into a
// map and so re-encodes its keys in sorted order — equal values, different
// bytes — hence the canonical comparison as the fallback.
func sameResult(a, b []byte) bool {
	if bytes.Equal(a, b) {
		return true
	}
	ca, errA := canonicalJSON(a)
	cb, errB := canonicalJSON(b)
	return errA == nil && errB == nil && bytes.Equal(ca, cb)
}

// recomputeEvery: every so-manieth planned request, when it simulated, is
// recomputed outside the service and compared.
const recomputeEvery = 20

// recompute runs a planned request straight through the spec layer and
// checks that the service returned the same result. (Invariant violations
// inside a result are not failures here: the corpus's Byzantine scenarios
// exist to measure them.)
func (r *serveRun) recompute(p planned, got []byte) error {
	sp, err := spec.DecodeBytes(r.corpus[p.scenario].raw)
	if err != nil {
		return err
	}
	sp.Env.Seed = p.seed
	rep, err := sp.Run()
	if err != nil {
		return err
	}
	want, err := json.Marshal(service.Result{Report: &rep, Metrics: rep.Metrics()})
	if err != nil {
		return err
	}
	if !sameResult(want, got) {
		return fmt.Errorf("served result differs from a direct run of the same (spec, seed)")
	}
	return nil
}

// verify checks a batch of outcomes after its timing is over and splits the
// good ones' latencies (in ms) into hit and fresh. Errors, refusals,
// timeouts and wrong results all count as failed.
func (r *serveRun) verify(outcomes []outcome) (hit, fresh []float64) {
	sort.Slice(outcomes, func(i, j int) bool { return outcomes[i].idx < outcomes[j].idx })
	fail := func(o outcome, msg string) {
		r.failed++
		if r.failed <= 10 {
			fmt.Fprintf(os.Stderr, "benchmark: serve-mixed request %d (%s): %s\n", o.idx, r.corpus[r.plan[o.idx].scenario].name, msg)
		}
	}
	for _, o := range outcomes {
		r.attempted++
		if o.err != "" {
			fail(o, o.err)
			continue
		}
		p := r.plan[o.idx]
		if p.repeatOf < 0 {
			r.first[o.idx] = o.result
		} else if want, ok := r.first[p.repeatOf]; ok && !sameResult(want, o.result) {
			fail(o, "repeat's result differs from the first response for the same (spec, seed)")
			continue
		}
		if o.hit {
			hit = append(hit, o.ms)
			continue
		}
		var payload struct {
			Report struct{ Events uint64 } `json:"report"`
		}
		if err := json.Unmarshal(o.result, &payload); err != nil {
			fail(o, "undecodable result: "+err.Error())
			continue
		}
		if o.idx%recomputeEvery == 0 {
			if err := r.recompute(p, o.result); err != nil {
				fail(o, err.Error())
				continue
			}
		}
		r.events += float64(payload.Report.Events)
		fresh = append(fresh, o.ms)
	}
	return hit, fresh
}

// runServeUntraced is the end-to-end pass of serve-mixed.
func runServeUntraced(seed uint64, seconds float64) (result, error) {
	r := &serveRun{seed: seed, host: newHostClock()}
	setupS, err := r.setupMedian()
	if err != nil {
		return result{}, err
	}
	defer r.srv.stop()

	before := snapRuntime(false)
	outcomes, elapsed := r.measure(time.Duration(seconds*float64(time.Second)), nil)
	after := snapRuntime(false)
	r.host.report("serve-mixed")

	hit, fresh := r.verify(outcomes)
	if len(fresh) == 0 || len(hit) == 0 {
		return result{}, fmt.Errorf("serve-mixed: %d hit and %d fresh requests succeeded; need both", len(hit), len(fresh))
	}
	done := float64(len(hit) + len(fresh))
	values := map[string]float64{
		"setup_s":           setupS,
		"op_latency_p50_ms": median(fresh),
		"ops_per_s":         done / elapsed,
		"events_per_s":      r.events / elapsed,
		"alloc_mb_per_op":   float64(after.totalAlloc-before.totalAlloc) / 1e6 / float64(len(outcomes)),
	}
	m, err := attach(endToEnd, values, true)
	if err != nil {
		return result{}, err
	}
	return result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: m}, nil
}

// realDiskStretch swaps in a stack backed by store.Disk, drives the plan
// on for d, and records the fresh requests' median latency.
func (r *serveRun) realDiskStretch(d time.Duration, values map[string]float64) error {
	ram := r.srv
	disk, err := startServer(true)
	if err != nil {
		return err
	}
	defer disk.stop()
	if err := disk.warm(r.corpus); err != nil {
		return err
	}
	r.srv = disk
	outs, _ := r.measure(d, nil)
	r.srv = ram
	// Against the new stack every planned repeat is a first submission
	// again, so classify by what the service answered, and count failures
	// only: results were checked on the main stack.
	var fresh []float64
	for _, o := range outs {
		r.attempted++
		switch {
		case o.err != "":
			r.failed++
		case !o.hit:
			fresh = append(fresh, o.ms)
		}
	}
	values["service.submit_rtt_us.fresh_disk"] = median(fresh) * 1e3
	return nil
}

// runServeTraced is the per-layer pass of serve-mixed: a plain stretch (the
// tracing-overhead reference), then a stretch with a client span around
// every request, a CPU profile and the service's own counters read before
// and after, then the layer probes.
func runServeTraced(seed uint64, seconds float64, outDir string) (result, error) {
	r := &serveRun{seed: seed, host: newHostClock()}
	if _, err := r.setupMedian(); err != nil {
		return result{}, err
	}
	defer r.srv.stop()
	share := func(f float64) time.Duration { return time.Duration(f * seconds * float64(time.Second)) }
	values := map[string]float64{}

	plainOut, _ := r.measure(share(0.25), nil)
	_, plainFresh := r.verify(plainOut)

	rec := newRecorder()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, fmt.Errorf("cpu profile: %w", err)
	}
	statsBefore, rtBefore := r.srv.svc.Stats(), snapRuntime(true)
	eventsBefore := r.events
	tracedOut, _ := r.measure(share(0.35), rec)
	statsAfter, rtAfter := r.srv.svc.Stats(), snapRuntime(true)
	pprof.StopCPUProfile()
	hit, fresh := r.verify(tracedOut)
	if len(plainFresh) == 0 || len(fresh) == 0 || len(hit) == 0 {
		return result{}, fmt.Errorf("serve-mixed: too few successful requests to attribute")
	}
	if err := cpuShares(prof.Bytes(), values); err != nil {
		return result{}, err
	}

	n := float64(len(tracedOut))
	events := r.events - eventsBefore
	memHits := float64(statsAfter.MemoryHits - statsBefore.MemoryHits)
	storeHits := float64(statsAfter.StoreHits - statsBefore.StoreHits)
	// Every cache hit also retires as a done job, so the jobs that
	// simulated are the done/failed transitions that were not hits; the
	// successful non-hit requests beyond those rode an in-flight job.
	jobsRun := float64(statsAfter.Done+statsAfter.Failed-statsBefore.Done-statsBefore.Failed) - memHits - storeHits
	values["service.submit_rtt_us.hit"] = median(hit) * 1e3
	values["service.submit_rtt_us.fresh"] = median(fresh) * 1e3
	values["latency_p95_ms.hit"] = percentile(hit, 0.95)
	values["latency_p99_ms.hit"] = percentile(hit, 0.99)
	values["latency_p99_ms.fresh"] = percentile(fresh, 0.99)
	values["op_latency_tail_ms"] = percentile(fresh, serveTailQ)
	values["service.mem_hit_share"] = memHits / n
	values["service.store_hit_share"] = storeHits / n
	values["service.jobs_run"] = jobsRun
	values["service.dedup_count"] = max(0, float64(len(fresh))-jobsRun)
	values["service.rejected_count"] = float64(statsAfter.RejectedQueueFull + statsAfter.RejectedOverload -
		statsBefore.RejectedQueueFull - statsBefore.RejectedOverload)
	values["sim.events_per_unit"] = ratio(events, float64(len(fresh)))
	runtimeMetrics(rtBefore, rtAfter, n, events, values)
	values["trace.overhead_share"] = (median(fresh) - median(plainFresh)) / median(plainFresh)

	// The same traffic against the real store.Disk, for the record: the
	// plan continues on a second stack whose persistent tier is on disk.
	if err := r.realDiskStretch(share(0.15), values); err != nil {
		return result{}, err
	}

	// Small-n construction, as every fresh job pays it: the n = 16 ring of
	// the corpus's election_ring spec through the layers' own functions,
	// checked against the spec path's digest.
	var allocs, bytesNew []float64
	for k := 0; k < 200; k++ {
		seed := unitSeed(r.seed, k)
		got, cost, err := smallRing.ringScenario().run(seed, rec, k)
		if err == nil {
			var rep runner.Report
			rep, err = runUnit(smallRing.specBytes(seed, ""), nil, 0, 0)
			if err == nil && digestOf(rep) != got {
				err = fmt.Errorf("digest %+v differs from runner.Run's %+v", got, digestOf(rep))
			}
		}
		r.attempted++
		if err != nil {
			r.failed++
			fmt.Fprintf(os.Stderr, "benchmark: serve-mixed replica %d: %v\n", k, err)
			continue
		}
		allocs, bytesNew = append(allocs, cost.newAllocs), append(bytesNew, cost.newBytes)
	}
	values["network.new_allocs_per_node"] = median(allocs) / float64(smallRing.n)
	values["network.new_bytes_per_node"] = median(bytesNew) / float64(smallRing.n)

	res, err := sampleResult()
	if err != nil {
		return result{}, err
	}
	if err := specProbes(r.corpus, res, rec, 50); err != nil {
		return result{}, err
	}
	if err := layerProbes(holdShape{pending: 64, exponential: true}, values); err != nil {
		return result{}, err
	}
	return tracedResult("serve-mixed", seed, outDir, r.host, rec, values, r.attempted, r.failed)
}
