// Package service is the experiment job service behind cmd/abe-serve: a
// bounded worker pool running scenario specs (single runs and sweeps), a
// two-tier content-addressed result cache keyed on (spec hash, seed) — an
// in-memory LRU in front of an optional persistent store (internal/store),
// with per-tier hit counters — singleflight-style de-duplication of
// identical in-flight jobs, token-bucket admission control under overload,
// and a submit/status/result/cancel job lifecycle.
//
// Caching is sound because runs are pure functions of (scenario, seed): the
// spec hash identifies the scenario (internal/spec pins the canonical
// encoding) and the harness derives every per-repetition seed from
// (hash, seed) in canonical order, so a cached result is byte-identical to
// a fresh one.
//
// A submission is bytes and a result is bytes. A scenario document is decoded
// once per service: the validated spec and its hash are kept under the exact
// bytes submitted (bounded like the result cache), and a later submission of
// the same bytes runs a copy of that spec with its own seed. A result is
// encoded once, by the worker that computed it, and every response carries
// those bytes as they are.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"abenet/internal/probe"
	"abenet/internal/runner"
	"abenet/internal/sim"
	"abenet/internal/spec"
	"abenet/internal/store"
	"abenet/internal/trace"
)

// The lifecycle errors.
var (
	// ErrNotFound: no job with that id.
	ErrNotFound = errors.New("service: no such job")
	// ErrQueueFull: the submit queue is at capacity; retry later.
	ErrQueueFull = errors.New("service: job queue is full")
	// ErrFinished: the job already finished; it cannot be cancelled.
	ErrFinished = errors.New("service: job already finished")
	// ErrShared: other submissions were deduplicated onto the job, so one
	// client cancelling would discard a result every rider is waiting on.
	ErrShared = errors.New("service: job is shared by other submissions; cancel refused")
	// ErrClosed: the service is shutting down.
	ErrClosed = errors.New("service: closed")
)

// Status is a job's lifecycle state.
type Status string

// The job lifecycle states.
const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
)

// Options configures a Service.
type Options struct {
	// Workers is the number of concurrent job executors; 0 means 2.
	Workers int
	// QueueDepth bounds the number of queued (not yet running) jobs;
	// 0 means 64. Submits beyond it fail with ErrQueueFull.
	QueueDepth int
	// CacheEntries bounds the result cache (LRU eviction); 0 means 1024.
	CacheEntries int
	// JobHistory bounds how many finished (done/failed/cancelled) jobs
	// stay queryable by id; 0 means 4096. Beyond it the oldest finished
	// jobs are forgotten (GET returns not-found) — without a bound a
	// long-serving process would grow one job record per submission
	// forever. Queued and running jobs are never evicted.
	JobHistory int
	// SweepWorkers caps each sweep job's internal parallelism; 0 leaves
	// the spec's own setting (or GOMAXPROCS) in charge.
	SweepWorkers int
	// Persist, when non-nil, is the second cache tier: finished
	// results are written through to it and served back from it after the
	// memory tier evicts them — or after a process restart, when it is a
	// durable store (store.OpenDisk). The service owns it from New on and
	// closes it in Close.
	Persist store.Store[*Result]
	// SubmitRate, when positive, admission-controls *fresh* submissions
	// (jobs that will actually simulate) to this sustained rate per
	// second. Beyond the burst, Submit fails with ErrOverloaded and a
	// retry hint instead of letting the queue starve every client at
	// once. Cache hits and deduplicated submissions are never charged:
	// they cost no simulation, and serving them under overload is the
	// point of the cache. 0 disables admission control.
	SubmitRate float64
	// SubmitBurst is the admission token-bucket depth; 0 means
	// max(1, ceil(2×SubmitRate)).
	SubmitBurst int
	// BeforeJob, when non-nil, runs in the worker goroutine before each
	// job executes. It exists so tests can hold workers deterministically;
	// production code leaves it nil.
	BeforeJob func()

	// now overrides the admission clock; tests only.
	now func() time.Time
}

// Result is one finished job's payload: a single run's report + flattened
// metrics, or a sweep's aggregated points.
type Result struct {
	// Report is the single run's full report (nil for sweeps).
	Report *runner.Report `json:"report,omitempty"`
	// Metrics is the single run's flattened metric map (nil for sweeps).
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Points are the sweep's aggregated positions (nil for single runs).
	Points []spec.PointView `json:"points,omitempty"`
	// Trace is the causal event trace of a traced single run (nil
	// otherwise). It is lifted off Report so the stored payload encodes it
	// once, and so GET /v1/runs/{id}/trace can render it without reparsing
	// the report.
	Trace *trace.Export `json:"trace,omitempty"`

	// raw is the result's one encoding: made by the worker that computed
	// it, or the bytes a persistent tier decoded it from. Every response
	// and every write-through reuses it; nil means encode on demand.
	raw []byte
}

// resultFields is Result without its codec methods: the reflection
// encoding the one stored encoding is made of.
type resultFields Result

// encode is the reflection encoding of r — the only marshal of a result
// body in the package.
func (r *Result) encode() ([]byte, error) { return json.Marshal((*resultFields)(r)) }

// MarshalJSON returns the result's one encoding, byte-equal to the
// reflection encoding of its fields.
func (r *Result) MarshalJSON() ([]byte, error) {
	if r.raw != nil {
		return r.raw, nil
	}
	return r.encode()
}

// UnmarshalJSON decodes a stored result and keeps the bytes it was given,
// so a persistent hit is served as it was stored, not re-encoded.
func (r *Result) UnmarshalJSON(data []byte) error {
	if err := json.Unmarshal(data, (*resultFields)(r)); err != nil {
		return err
	}
	r.raw = bytes.Clone(data)
	return nil
}

// View is a JSON-ready snapshot of one job.
type View struct {
	// ID is the job id (stable across its lifecycle).
	ID string `json:"id"`
	// Status is the lifecycle state at snapshot time.
	Status Status `json:"status"`
	// Protocol is the scenario's registry protocol name.
	Protocol string `json:"protocol"`
	// Kind is "run" or "sweep".
	Kind string `json:"kind"`
	// SpecHash identifies the scenario (seed and sweep workers excluded).
	SpecHash string `json:"spec_hash"`
	// Seed is the run's base seed.
	Seed uint64 `json:"seed"`
	// CacheHits counts how many submissions this cached result has served;
	// 0 on a fresh computation. The acceptance check for "served from
	// cache" reads this.
	CacheHits int `json:"cache_hits"`
	// Deduplicated counts submissions coalesced onto this in-flight job.
	Deduplicated int `json:"deduplicated"`
	// StoreError reports a failed write of the job's result to the
	// persistent tier, once the write has returned; nil otherwise. It is
	// not a failure: the job is done and its result serves from memory.
	StoreError *StoreError `json:"store_error,omitempty"`
	// Result is the payload once Status is done.
	Result *Result `json:"result,omitempty"`
	// Error is the failure message once Status is failed.
	Error string `json:"error,omitempty"`
	// Failure classifies a failed job: "livelock" when the run exhausted
	// its event budget without finishing (the kernel's typed
	// sim.ErrMaxEvents — raise env.max_events or fix the scenario), "error"
	// for everything else. Empty unless Status is failed.
	Failure string `json:"failure,omitempty"`
}

// StoreError is why a done job's result is not in the persistent tier: the
// result still serves from memory, and the next computation of its key writes
// it again.
type StoreError struct {
	// Error is the persistent tier's error message.
	Error string `json:"error"`
}

// encode is json.Marshal(v) without its second pass over the result: the
// json package checks and compacts whatever a Marshaler returns, and a
// result's stored bytes need neither — the worker made them with
// json.Marshal, or a persistent tier's decoder accepted them. So the view is
// marshalled without its result, and the stored bytes close it unchanged: a
// done view has no error or failure, the only members after the result.
func (v View) encode() ([]byte, error) {
	res := v.Result
	if res == nil || res.raw == nil || v.Error != "" || v.Failure != "" {
		return json.Marshal(v)
	}
	v.Result = nil
	head, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	const member = `,"result":`
	// Two bytes over: the closing brace, and the newline writeJSON ends with.
	out := make([]byte, 0, len(head)+len(member)+len(res.raw)+2)
	out = append(out, head[:len(head)-1]...)
	out = append(out, member...)
	out = append(out, res.raw...)
	return append(out, '}'), nil
}

// job is the service-internal state of one submission.
type job struct {
	id        string
	spec      *spec.Spec
	key       string
	hash      string
	status    Status
	result    *Result
	err       string
	failure   string
	storeErr  *StoreError // set once a failed write-through has returned
	cacheHits int
	dedups    int
	done      chan struct{}
	events    *eventLog
}

// view snapshots the job. Callers hold s.mu.
func (j *job) view() View {
	kind := "run"
	if j.spec.Sweep != nil {
		kind = "sweep"
	}
	v := View{
		ID:           j.id,
		Status:       j.status,
		Protocol:     j.spec.Protocol.Name,
		Kind:         kind,
		SpecHash:     j.hash,
		Seed:         j.spec.Env.Seed,
		CacheHits:    j.cacheHits,
		Deduplicated: j.dedups,
		StoreError:   j.storeErr,
		Error:        j.err,
		Failure:      j.failure,
	}
	if j.status == StatusDone {
		v.Result = j.result
	}
	return v
}

// Service runs scenario jobs on a bounded worker pool.
type Service struct {
	opts  Options
	queue chan *job
	wg    sync.WaitGroup
	start time.Time

	// eventsDropped counts progress events discarded past per-job log caps,
	// service-wide (atomic — event sinks run outside s.mu).
	eventsDropped int64

	// docs keeps every document that decoded, as its spec and hash, under
	// the exact bytes submitted (see decode). It has a lock of its own:
	// lookups never take s.mu, and decoding never runs under it. The two
	// counters behind Stats.SpecDecodes and Stats.SpecMemoHits are atomic
	// for the same reason.
	docs                      *store.Memory[*knownDoc]
	specDecodes, specMemoHits atomic.Int64

	mu       sync.Mutex
	closed   bool
	seq      int
	jobs     map[string]*job
	inflight map[string]*job // cache key → queued/running job (singleflight)
	history  []string        // finished job ids, oldest first (FIFO retirement)
	cache    *tieredCache
	bucket   *tokenBucket // nil = no admission control

	// The monotonic service counters behind Stats and /metrics.
	submissions       int            // every Submit that passed validation
	finished          map[Status]int // terminal transitions, by state
	rejectedQueueFull int
	rejectedOverload  int
}

// retireLocked records a job as finished and evicts the oldest finished
// jobs beyond the history bound. Callers hold s.mu and have just moved j
// into a terminal state.
func (s *Service) retireLocked(j *job) {
	s.finished[j.status]++
	s.history = append(s.history, j.id)
	for len(s.history) > s.opts.JobHistory {
		delete(s.jobs, s.history[0])
		s.history = s.history[1:]
	}
}

// New starts a service with opts.
func New(opts Options) *Service {
	if opts.Workers <= 0 {
		opts.Workers = 2
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	if opts.CacheEntries <= 0 {
		opts.CacheEntries = 1024
	}
	if opts.JobHistory <= 0 {
		opts.JobHistory = 4096
	}
	s := &Service{
		opts:     opts,
		queue:    make(chan *job, opts.QueueDepth),
		start:    time.Now(),
		jobs:     map[string]*job{},
		inflight: map[string]*job{},
		finished: map[Status]int{},
		cache:    newTieredCache(opts.CacheEntries, opts.Persist),
		// A kept document is, as a rule, the source of a cached result, so
		// it shares the result cache's bound.
		docs: store.NewMemory[*knownDoc](opts.CacheEntries),
	}
	if opts.SubmitRate > 0 {
		s.bucket = newTokenBucket(opts.SubmitRate, opts.SubmitBurst, opts.now)
	}
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Submit decodes, validates and enqueues a scenario given as spec JSON (the
// internal/spec schema, strict). A document this service has decoded before
// — the same bytes — is not decoded or hashed again (see decode); raw is
// never retained. seedOverride, when non-nil, replaces the spec's Env.Seed
// (the spec file states the scenario; the caller may pick the run). The
// returned view is one of:
//
//   - a done job served straight from the result cache (CacheHits > 0),
//   - the identical in-flight job (Deduplicated > 0, same id), or
//   - a fresh queued job.
func (s *Service) Submit(raw []byte, seedOverride *uint64) (View, error) {
	view, _, err := s.submit(raw, seedOverride)
	return view, err
}

// SubmitAndWait submits and blocks until the job finishes (or ctx ends),
// then snapshots it. The snapshot comes from the job handle submit
// returned — never a second id lookup — so history retirement while the
// caller waits cannot turn a finished run into not-found. When ctx ends
// first the snapshot is still returned — alongside ctx.Err(), so callers
// can tell "finished" from "gave up waiting on a still-running job".
func (s *Service) SubmitAndWait(ctx context.Context, raw []byte, seedOverride *uint64) (View, error) {
	view, j, err := s.submit(raw, seedOverride)
	if err != nil {
		return view, err
	}
	return s.awaitJob(ctx, j)
}

// maxKnownDocBytes is the longest document decode keeps. A longer one is
// decoded on every submission: at the default CacheEntries the kept
// documents then pin at most 16 MiB, where the 1 MiB body limit alone would
// let them pin 1 GiB. Every committed spec is under 1 KiB.
const maxKnownDocBytes = 16 << 10

// knownDoc is a decoded document as decode keeps it: the validated spec,
// which nothing modifies, and its scenario hash.
type knownDoc struct {
	spec *spec.Spec
	hash string
}

// decode returns the job's own spec for document raw, and its scenario hash.
// A document seen before is not decoded again: the kept spec is copied, and
// its hash stands for the copy whatever seed the caller then sets, since Hash
// excludes the seed. The copy is shallow. That is sound because a decoded spec
// is never modified: a seed override lands on the copy's own Env, BuildEnv
// copies the observe and trace blocks before a sink is attached, and a
// protocol's option struct is only read. Only documents that decode are kept,
// so an invalid one is decoded, and refused, every time.
func (s *Service) decode(raw []byte) (*spec.Spec, string, error) {
	keep := len(raw) <= maxKnownDocBytes
	if keep {
		if d, ok := s.docs.Get(string(raw)); ok {
			s.specMemoHits.Add(1)
			c := *d.spec
			return &c, d.hash, nil
		}
	}
	s.specDecodes.Add(1)
	sp, err := spec.DecodeBytes(raw)
	if err != nil {
		return nil, "", err
	}
	hash, err := sp.Hash()
	if err != nil {
		return nil, "", err
	}
	if keep {
		kept := *sp
		_ = s.docs.Put(string(raw), &knownDoc{spec: &kept, hash: hash})
	}
	return sp, hash, nil
}

// submit is the shared submission path, returning the job handle alongside
// the snapshot.
func (s *Service) submit(raw []byte, seedOverride *uint64) (View, *job, error) {
	sp, hash, err := s.decode(raw)
	if err != nil {
		return View{}, nil, err
	}
	if seedOverride != nil {
		sp.Env.Seed = *seedOverride
	}
	key := fmt.Sprintf("%s@%d%s%s", hash, sp.Env.Seed, observeKey(sp.Env.Observe), traceKey(sp.Env.Trace))

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return View{}, nil, ErrClosed
	}
	s.submissions++
	ent, running := s.cache.get(key), s.inflight[key]
	if ent == nil && running == nil && s.cache.persist != nil {
		// A memory miss with nothing in flight reads the persistent tier
		// with the lock released, then looks again: meanwhile another
		// submission may have promoted, computed or enqueued the key.
		s.mu.Unlock()
		res, found := s.cache.load(key)
		s.mu.Lock()
		if s.closed {
			return View{}, nil, ErrClosed
		}
		ent, running = s.cache.get(key), s.inflight[key]
		if ent == nil && running == nil && found {
			ent = s.cache.promote(key, res)
		}
	}
	if ent != nil {
		// Served from cache: a done job materialises instantly, and the
		// hit counter proves no simulation ran.
		ent.hits++
		j := s.newJobLocked(sp, hash, key)
		j.status = StatusDone
		j.result = ent.result
		j.cacheHits = ent.hits
		j.events.finish(StatusDone, "")
		close(j.done)
		s.jobs[j.id] = j
		s.retireLocked(j)
		return j.view(), j, nil
	}
	// Dedup shares the cache's soundness argument: identical (scenario,
	// seed) means identical results.
	if running != nil {
		running.dedups++
		return running.view(), running, nil
	}
	// Only submissions that will actually simulate reach admission
	// control: cache hits and dedup riders above cost nothing, and
	// serving them under overload is the point of the cache.
	if s.bucket != nil {
		if ok, wait := s.bucket.take(); !ok {
			s.rejectedOverload++
			return View{}, nil, &overloadError{retryAfter: wait}
		}
	}
	j := s.newJobLocked(sp, hash, key)
	select {
	case s.queue <- j:
	default:
		s.rejectedQueueFull++
		return View{}, nil, ErrQueueFull
	}
	s.jobs[j.id] = j
	s.inflight[key] = j
	return j.view(), j, nil
}

// newJobLocked allocates a job with the next id. Callers hold s.mu and
// register the job in s.jobs themselves (queue-full submits are discarded).
func (s *Service) newJobLocked(sp *spec.Spec, hash, key string) *job {
	s.seq++
	j := &job{
		id:     fmt.Sprintf("run-%06d-%s", s.seq, hash[:12]),
		spec:   sp,
		hash:   hash,
		key:    key,
		status: StatusQueued,
		done:   make(chan struct{}),
		events: newEventLog(0, &s.eventsDropped),
	}
	j.events.append(Event{Type: EventStatus, Status: StatusQueued}, false)
	return j
}

// observeKey is the cache-key suffix for observed submissions. Hash()
// deliberately excludes the observe block — observation never changes a
// run's results — but the cached Result payload carries the sampled series,
// so two submissions differing only in cadence must not share an entry.
func observeKey(o *probe.Config) string {
	if o == nil {
		return ""
	}
	return fmt.Sprintf("+obs:%d:%g:%d", o.EveryEvents, o.Interval, o.MaxSamples)
}

// traceKey is the cache-key suffix for traced submissions, for the same
// reason as observeKey: Hash() excludes the trace block (tracing never
// changes a run's results), but the cached payload carries the exported
// events, so a traced and an untraced submission of the same scenario must
// not share an entry — nor two traced ones differing in cap.
func traceKey(t *trace.Config) string {
	if t == nil {
		return ""
	}
	return fmt.Sprintf("+tr:%d", t.MaxEvents)
}

// Get snapshots a job by id.
func (s *Service) Get(id string) (View, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return View{}, ErrNotFound
	}
	return j.view(), nil
}

// Wait blocks until the job finishes (done, failed or cancelled) or ctx
// ends, then snapshots it either way. The snapshot comes from the held job
// pointer, not a second id lookup: history retirement may evict the job
// from the index while a long waiter sleeps, and a run that finished must
// never be reported as not-found to the client that submitted it. When
// ctx ends before the job, the (non-terminal) snapshot is returned with
// ctx.Err() — a nil error always means the snapshot is final.
func (s *Service) Wait(ctx context.Context, id string) (View, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return View{}, ErrNotFound
	}
	return s.awaitJob(ctx, j)
}

// awaitJob blocks on the job handle and snapshots it, pairing the snapshot
// with ctx.Err() when the context — not the job — ended the wait. A job
// that finished in the same instant counts as finished: the caller asked
// for the result and it exists.
func (s *Service) awaitJob(ctx context.Context, j *job) (View, error) {
	var werr error
	select {
	case <-j.done:
	case <-ctx.Done():
		select {
		case <-j.done: // finished while ctx raced: deliver the result
		default:
			werr = ctx.Err()
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.view(), werr
}

// Cancel stops a job: a queued job is cancelled immediately; a running
// job's result is discarded when its execution returns (the simulation
// itself is not preemptible). Finished jobs return ErrFinished. A job
// that other submissions were deduplicated onto returns ErrShared: the
// coalesced submitters are waiting on this one run, and one client's
// cancel must not discard everyone else's result.
func (s *Service) Cancel(id string) (View, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return View{}, ErrNotFound
	}
	if j.dedups > 0 && (j.status == StatusQueued || j.status == StatusRunning) {
		return j.view(), ErrShared
	}
	switch j.status {
	case StatusQueued:
		j.status = StatusCancelled
		if s.inflight[j.key] == j {
			delete(s.inflight, j.key)
		}
		j.events.finish(StatusCancelled, "")
		close(j.done)
		s.retireLocked(j)
	case StatusRunning:
		j.status = StatusCancelled
		if s.inflight[j.key] == j {
			delete(s.inflight, j.key)
		}
		// The worker observes the state when the run returns and discards
		// the result; j.done closes there. The event stream seals now —
		// subscribers should not sit through a run whose result is already
		// discarded (finish also stops the run's late sample events).
		j.events.finish(StatusCancelled, "")
	default:
		return j.view(), ErrFinished
	}
	return j.view(), nil
}

// Stats summarises the service for health endpoints. The cache counters
// are split per tier: CacheEntries/MemoryHits describe the in-memory LRU,
// StoreEntries/StoreHits the persistent tier (zero when -store is off).
// A hit on either tier means no simulation ran for that submission.
type Stats struct {
	Workers      int `json:"workers"`
	QueueDepth   int `json:"queue_depth"`
	Jobs         int `json:"jobs"`
	Queued       int `json:"queued"`
	Running      int `json:"running"`
	CacheEntries int `json:"cache_entries"`
	MemoryHits   int `json:"memory_hits"`
	StoreEntries int `json:"store_entries"`
	StoreHits    int `json:"store_hits"`
	// StoreErrors counts failed persistent-tier writes; each such result
	// still serves from memory, and its job's view carries the StoreError.
	StoreErrors int `json:"store_errors"`
	// StoreReadErrors counts corrupt entries the persistent tier read back,
	// served as misses and removed; 0 for a tier that does not count them
	// (see store.Disk.ReadErrors).
	StoreReadErrors int `json:"store_read_errors"`
	// Submissions counts every validated submission (including cache hits
	// and dedup riders).
	Submissions int `json:"submissions"`
	// SpecDecodes counts spec documents decoded, invalid ones included;
	// SpecMemoHits counts submissions of a document already decoded, which
	// skipped decoding and hashing. Traffic that repeats a few documents
	// with fresh seeds reads as many decodes as distinct documents.
	SpecDecodes  int64 `json:"spec_decodes"`
	SpecMemoHits int64 `json:"spec_memo_hits"`
	// Done/Failed/Cancelled count terminal job transitions since start.
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	Cancelled int `json:"cancelled"`
	// RejectedQueueFull/RejectedOverload count refused submissions, by
	// reason (queue at capacity vs admission control).
	RejectedQueueFull int `json:"rejected_queue_full"`
	RejectedOverload  int `json:"rejected_overload"`
	// EventsDropped counts progress events discarded past per-job stream
	// caps, service-wide.
	EventsDropped int64 `json:"events_dropped"`
	// UptimeSeconds is the wall-clock age of the service process.
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// Stats snapshots the service counters.
func (s *Service) Stats() Stats {
	dropped := atomic.LoadInt64(&s.eventsDropped)
	storeEntries := s.cache.persistLen() // tier I/O: outside s.mu
	readErrors := s.cache.persistReadErrors()
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Workers:           s.opts.Workers,
		QueueDepth:        s.opts.QueueDepth,
		Jobs:              len(s.jobs),
		CacheEntries:      s.cache.len(),
		MemoryHits:        s.cache.memHits,
		StoreEntries:      storeEntries,
		StoreHits:         s.cache.persistHits,
		StoreErrors:       int(s.cache.persistErrs.Load()),
		StoreReadErrors:   readErrors,
		Submissions:       s.submissions,
		SpecDecodes:       s.specDecodes.Load(),
		SpecMemoHits:      s.specMemoHits.Load(),
		Done:              s.finished[StatusDone],
		Failed:            s.finished[StatusFailed],
		Cancelled:         s.finished[StatusCancelled],
		RejectedQueueFull: s.rejectedQueueFull,
		RejectedOverload:  s.rejectedOverload,
		EventsDropped:     dropped,
		UptimeSeconds:     time.Since(s.start).Seconds(),
	}
	for _, j := range s.jobs {
		switch j.status {
		case StatusQueued:
			st.Queued++
		case StatusRunning:
			st.Running++
		}
	}
	return st
}

// Close stops accepting submissions, waits for in-flight jobs to drain,
// and closes the cache tiers (including the persistent store, whose
// completed writes are already durable).
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.queue)
	s.wg.Wait()
	s.cache.close()
}

// worker drains the queue.
func (s *Service) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		if s.opts.BeforeJob != nil {
			s.opts.BeforeJob()
		}
		s.mu.Lock()
		if j.status != StatusQueued { // cancelled while queued
			s.mu.Unlock()
			continue
		}
		j.status = StatusRunning
		s.mu.Unlock()
		j.events.append(Event{Type: EventStatus, Status: StatusRunning}, false)

		res, err := execute(j, s.opts.SweepWorkers)
		if err == nil {
			// The one encoding, made before the lock. On failure (a value
			// JSON cannot carry) raw stays nil and every encoder fails
			// exactly as the reflection encoding does.
			if data, encErr := res.encode(); encErr == nil {
				res.raw = data
			}
		}

		s.mu.Lock()
		if s.inflight[j.key] == j {
			delete(s.inflight, j.key)
		}
		done := false
		switch {
		case j.status == StatusCancelled:
			// Result discarded; Cancel already removed the inflight entry
			// and sealed the event stream.
		case err != nil:
			j.status = StatusFailed
			j.err = err.Error()
			j.failure = classifyFailure(err)
			j.events.finish(StatusFailed, j.err)
		default:
			j.status = StatusDone
			j.result = res
			s.cache.put(j.key, res)
			j.events.finish(StatusDone, "")
			done = true
		}
		close(j.done)
		s.retireLocked(j)
		s.mu.Unlock()
		// Write-through after the lock: a submit, status read or cancel
		// never waits on the persistent tier. The memory tier already
		// serves the result; a crash before this write costs one
		// recomputation, never a wrong or partial entry.
		if done {
			if err := s.cache.writeThrough(j.key, res); err != nil {
				s.mu.Lock()
				j.storeErr = &StoreError{Error: err.Error()}
				s.mu.Unlock()
			}
		}
	}
}

// classifyFailure buckets a failed run for operators. The kernel's typed
// livelock error survives every wrapping layer (runner, harness sweeps wrap
// with %w), so errors.Is sees through a sweep whose worst repetition ran out
// of budget just as well as a single run's.
func classifyFailure(err error) string {
	if errors.Is(err, sim.ErrMaxEvents) {
		return "livelock"
	}
	return "error"
}

// execute runs one scenario (guarding against engine panics: a served
// platform must report a bad run, not die with it), streaming progress into
// the job's event log: sweep positions as they complete, probe samples as
// they are taken. Both hooks only append to the log, so the simulation
// itself stays byte-identical to an unstreamed run.
func execute(j *job, sweepWorkers int) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("service: run panicked: %v", r)
		}
	}()
	sp := j.spec
	if sp.Sweep != nil {
		points, err := sp.RunSweep(sweepWorkers, j.pointSink())
		if err != nil {
			return nil, err
		}
		return &Result{Points: spec.SweepView(points, sp.Sweep.Metrics)}, nil
	}
	env, proto, err := sp.Build()
	if err != nil {
		return nil, err
	}
	if env.Observe != nil {
		// BuildEnv copies the spec's probe config, so attaching the live
		// sink mutates nothing the caller shares.
		env.Observe.Sink = j.sampleSink()
	}
	rep, err := runner.Run(env, proto)
	if err != nil {
		return nil, err
	}
	res = &Result{Report: &rep, Metrics: rep.Metrics(), Trace: rep.Trace}
	// The trace lives on the Result, not inside the report: one encoding in
	// the stored payload, and the trace endpoint reads it directly.
	rep.Trace = nil
	return res, nil
}
