// Command abe-load replays concurrent scenario submissions against an
// abe-serve instance and reports latency percentiles, throughput, and the
// per-tier cache hit rate — the load harness behind the serving tier's
// "every cached byte is exactly reusable" claim: runs are pure functions
// of (scenario, seed), so repeats must be served without simulating.
//
// By default it starts an in-process server (the full HTTP stack on a
// loopback listener) and drives it; -url points it at a remote abe-serve
// instead. The workload is a deterministic mix of fresh submissions
// (unique seeds over the spec corpus) and repeats of earlier submissions,
// controlled by -repeat and -seed.
//
// Usage:
//
//	abe-load [-n 200] [-c 8] [-repeat 0.5] [-seed 1] [-specs examples/specs]
//	         [-sweeps] [-url http://host:8080] [-store DIR]
//	         [-workers 0] [-queue 256] [-timeout 2m]
//
// The summary goes to stderr; stdout stays empty.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"abenet/internal/service"
	"abenet/internal/spec"
	"abenet/internal/store"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "abe-load:", err)
		os.Exit(1)
	}
}

// scenario is one submittable spec: the raw bytes POSTed and the decoded
// form (for its protocol name).
type scenario struct {
	name string
	raw  json.RawMessage
}

// request is one planned submission.
type request struct {
	scenario int
	seed     uint64
}

// outcome is one completed submission's measurement.
type outcome struct {
	latency  time.Duration
	hit      bool // served with CacheHits > 0 (no simulation for this client)
	rejected bool // 503: queue full or admission control
	failed   bool // transport error, non-2xx/503, or a failed job
}

func run() error {
	n := flag.Int("n", 200, "total submissions to replay")
	c := flag.Int("c", 8, "concurrent clients")
	repeat := flag.Float64("repeat", 0.5, "fraction of submissions that repeat an earlier (scenario, seed)")
	seed := flag.Uint64("seed", 1, "workload seed (request mix and fresh-run seeds)")
	specsDir := flag.String("specs", "examples/specs", "directory of scenario spec fixtures")
	sweeps := flag.Bool("sweeps", false, "include sweep specs in the corpus (slower per request)")
	url := flag.String("url", "", "remote abe-serve base URL (empty = start an in-process server)")
	storeDir := flag.String("store", "", "in-process server: persistent result-store directory")
	workers := flag.Int("workers", 0, "in-process server: job executors (0 = 2)")
	queue := flag.Int("queue", 256, "in-process server: queued-job bound")
	timeout := flag.Duration("timeout", 2*time.Minute, "per-request timeout")
	metricsURL := flag.String("metrics-url", "", `Prometheus endpoint to scrape before/after and diff ("auto" = the driven server's /metrics)`)
	flag.Parse()

	if *n <= 0 || *c <= 0 {
		return fmt.Errorf("need positive -n and -c (got %d, %d)", *n, *c)
	}
	if *repeat < 0 || *repeat >= 1 {
		return fmt.Errorf("-repeat %g outside [0, 1)", *repeat)
	}

	corpus, err := loadCorpus(*specsDir, *sweeps)
	if err != nil {
		return err
	}

	base := *url
	if base == "" {
		shutdown, addr, err := startServer(*workers, *queue, *storeDir)
		if err != nil {
			return err
		}
		defer shutdown()
		base = "http://" + addr
	}
	base = strings.TrimSuffix(base, "/")
	client := &http.Client{Timeout: *timeout}

	before, err := fetchStats(client, base)
	if err != nil {
		return fmt.Errorf("server not reachable at %s: %w", base, err)
	}
	scrapeURL := *metricsURL
	if scrapeURL == "auto" {
		scrapeURL = base + "/metrics"
	}
	var promBefore map[string]float64
	if scrapeURL != "" {
		if promBefore, err = scrapeMetrics(client, scrapeURL); err != nil {
			return fmt.Errorf("metrics endpoint not reachable at %s: %w", scrapeURL, err)
		}
	}

	plan := planRequests(*n, *repeat, *seed, len(corpus))

	// Replay: c clients drain the plan; each submission is synchronous
	// (wait=true), so latency covers queueing + execution or cache serve.
	jobs := make(chan request)
	outcomes := make([]outcome, *n)
	var idx struct {
		sync.Mutex
		next int
	}
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < *c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for req := range jobs {
				o := submit(client, base, corpus[req.scenario].raw, req.seed)
				idx.Lock()
				outcomes[idx.next] = o
				idx.next++
				idx.Unlock()
			}
		}()
	}
	for _, req := range plan {
		jobs <- req
	}
	close(jobs)
	wg.Wait()
	elapsed := time.Since(start)

	after, err := fetchStats(client, base)
	if err != nil {
		return err
	}
	var promDeltas map[string]float64
	if scrapeURL != "" {
		promAfter, err := scrapeMetrics(client, scrapeURL)
		if err != nil {
			return err
		}
		promDeltas = metricDeltas(promBefore, promAfter)
	}
	return report(outcomes, elapsed, before, after, promDeltas, corpus, *n, *c, *repeat)
}

// loadCorpus decodes every spec fixture in dir. Sweep specs are included
// only on request.
func loadCorpus(dir string, includeSweeps bool) ([]scenario, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var corpus []scenario
	for _, path := range paths {
		sp, err := spec.DecodeFile(path)
		if err != nil {
			return nil, err
		}
		if sp.Sweep != nil && !includeSweeps {
			continue
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		corpus = append(corpus, scenario{name: filepath.Base(path), raw: raw})
	}
	if len(corpus) == 0 {
		return nil, fmt.Errorf("no usable spec fixtures in %s", dir)
	}
	return corpus, nil
}

// planRequests builds the deterministic workload: each slot is a repeat of
// an earlier planned submission with probability repeatFrac (once one
// exists), otherwise a fresh (scenario, seed) pair. Note a repeat replayed
// concurrently with its original may coalesce onto the in-flight job
// instead of hitting the cache — both mean "no second simulation".
func planRequests(n int, repeatFrac float64, seed uint64, scenarios int) []request {
	rng := rand.New(rand.NewSource(int64(seed)))
	plan := make([]request, 0, n)
	nextSeed := seed*1_000_003 + 17
	for i := 0; i < n; i++ {
		if len(plan) > 0 && rng.Float64() < repeatFrac {
			plan = append(plan, plan[rng.Intn(len(plan))])
			continue
		}
		plan = append(plan, request{scenario: rng.Intn(scenarios), seed: nextSeed})
		nextSeed++
	}
	return plan
}

// startServer runs the full serving stack in-process on a loopback
// listener, so the harness measures the same code path a remote client
// sees, network stack included.
func startServer(workers, queue int, storeDir string) (shutdown func(), addr string, err error) {
	var persist store.Store[*service.Result]
	if storeDir != "" {
		disk, err := store.OpenDisk[*service.Result](storeDir)
		if err != nil {
			return nil, "", err
		}
		persist = disk
	}
	svc := service.New(service.Options{Workers: workers, QueueDepth: queue, Persist: persist})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, "", err
	}
	srv := &http.Server{Handler: service.NewHandler(svc, service.HandlerOptions{})}
	go func() { _ = srv.Serve(ln) }()
	shutdown = func() {
		_ = srv.Close()
		svc.Close()
	}
	return shutdown, ln.Addr().String(), nil
}

// submit POSTs one synchronous run and classifies the outcome.
func submit(client *http.Client, base string, raw json.RawMessage, seed uint64) outcome {
	body, _ := json.Marshal(map[string]any{"spec": raw, "seed": seed, "wait": true})
	t0 := time.Now()
	resp, err := client.Post(base+"/v1/runs", "application/json", bytes.NewReader(body))
	o := outcome{latency: time.Since(t0)}
	if err != nil {
		o.failed = true
		return o
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusServiceUnavailable:
		o.rejected = true
		return o
	case resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted:
		o.failed = true
		return o
	}
	var v service.View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		o.failed = true
		return o
	}
	o.latency = time.Since(t0)
	o.hit = v.CacheHits > 0
	if v.Status != service.StatusDone {
		o.failed = true
	}
	return o
}

// scrapeMetrics reads a Prometheus text-format endpoint into a flat
// series → value map (the metric name with its rendered label set, e.g.
// `abe_cache_hits_total{tier="memory"}`). Sample lines are
// `name value [timestamp]` — the optional trailing millisecond timestamp
// is ignored, and label values may contain spaces. Comment and blank lines
// are skipped; an unparsable sample line is an error — a scrape target
// that is not actually Prometheus-shaped should fail loudly, not diff as
// zeros.
func scrapeMetrics(client *http.Client, url string) (map[string]float64, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// Split the series name from the trailing fields. Label values may
		// contain spaces, but never an unescaped `}`, and the value and
		// timestamp that follow the label set are bare numbers — so the
		// last `}` on the line closes the label set.
		var name string
		var fields []string
		if i := strings.LastIndexByte(line, '}'); i >= 0 {
			name = line[:i+1]
			fields = strings.Fields(line[i+1:])
		} else if all := strings.Fields(line); len(all) >= 2 {
			name, fields = all[0], all[1:]
		}
		if name == "" || len(fields) < 1 || len(fields) > 2 {
			return nil, fmt.Errorf("scrape %s: unparsable sample line %q", url, line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("scrape %s: sample line %q: %w", url, line, err)
		}
		out[name] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// metricDeltas diffs two scrapes, keeping only series that moved. Series
// absent from the first scrape count from zero (counters with labels often
// appear on first increment).
func metricDeltas(before, after map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range after {
		if d := v - before[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}

// fetchStats reads the server's /healthz counters.
func fetchStats(client *http.Client, base string) (service.Stats, error) {
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		return service.Stats{}, err
	}
	defer resp.Body.Close()
	var health struct {
		Stats service.Stats `json:"stats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		return service.Stats{}, err
	}
	return health.Stats, nil
}

// report prints the stderr summary and fails if any submission failed
// outright.
func report(outcomes []outcome, elapsed time.Duration, before, after service.Stats, promDeltas map[string]float64, corpus []scenario, n, c int, repeatFrac float64) error {
	lat := make([]time.Duration, 0, len(outcomes))
	var hits, rejected, failed int
	var total time.Duration
	for _, o := range outcomes {
		if o.failed {
			failed++
			continue
		}
		if o.rejected {
			rejected++
			continue
		}
		lat = append(lat, o.latency)
		total += o.latency
		if o.hit {
			hits++
		}
	}
	if len(lat) == 0 {
		return fmt.Errorf("no submission succeeded (%d rejected, %d failed)", rejected, failed)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p50 := percentile(lat, 0.50)
	p99 := percentile(lat, 0.99)
	mean := total / time.Duration(len(lat))
	rps := float64(len(lat)) / elapsed.Seconds()

	served := len(lat)
	memHits := after.MemoryHits - before.MemoryHits
	storeHits := after.StoreHits - before.StoreHits
	hitRate := float64(hits) / float64(served)

	names := make([]string, len(corpus))
	for i, s := range corpus {
		names[i] = s.name
	}
	fmt.Fprintf(os.Stderr, "abe-load: %d requests, %d concurrent, repeat fraction %.2f, corpus %v\n",
		n, c, repeatFrac, names)
	fmt.Fprintf(os.Stderr, "  latency    p50 %s  p99 %s  mean %s\n", p50, p99, mean)
	fmt.Fprintf(os.Stderr, "  throughput %.1f req/s (%d served in %s)\n", rps, served, elapsed.Round(time.Millisecond))
	fmt.Fprintf(os.Stderr, "  cache      client-visible hit rate %.3f; server tiers: memory %d, store %d (entries: %d mem, %d store)\n",
		hitRate, memHits, storeHits, after.CacheEntries, after.StoreEntries)
	if rejected > 0 || failed > 0 {
		fmt.Fprintf(os.Stderr, "  degraded   %d rejected (503), %d failed\n", rejected, failed)
	}
	if promDeltas != nil {
		// Counter deltas across the run, from the scraped /metrics endpoint
		// (counters only: gauge movements across a whole run are noise).
		keys := make([]string, 0, len(promDeltas))
		for k := range promDeltas {
			if strings.Contains(k, "_total") {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		if len(keys) == 0 {
			fmt.Fprintf(os.Stderr, "  metrics    no counter moved during the run\n")
		}
		for _, k := range keys {
			fmt.Fprintf(os.Stderr, "  metrics    %s +%g\n", k, promDeltas[k])
		}
	}

	if failed > 0 {
		return fmt.Errorf("%d of %d submissions failed", failed, n)
	}
	return nil
}

// percentile returns the q-quantile of sorted latencies (nearest-rank).
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
