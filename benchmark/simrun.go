package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"abenet/internal/runner"
	"abenet/internal/spec"
)

// runUnit is the program under test as a CLI user drives it: spec bytes in
// (decode → build → run) and report JSON out. rec and the span arguments
// are nil/zero in the untraced pass.
func runUnit(specJSON []byte, rec *recorder, parent, unit int) (runner.Report, error) {
	id := rec.begin("spec.decode", parent, unit)
	sp, err := spec.DecodeBytes(specJSON)
	rec.end(id)
	if err != nil {
		return runner.Report{}, err
	}
	if rec != nil {
		// The hash is part of the serving path, not of a CLI run; it is
		// timed here only so every workload reports the spec layer whole.
		id = rec.begin("spec.hash", parent, unit)
		_, err = sp.Hash()
		rec.end(id)
		if err != nil {
			return runner.Report{}, err
		}
	}
	id = rec.begin("spec.build", parent, unit)
	env, proto, err := sp.Build()
	rec.end(id)
	if err != nil {
		return runner.Report{}, err
	}
	id = rec.begin("runner.run", parent, unit)
	rep, err := runner.Run(env, proto)
	rec.end(id)
	if err != nil {
		return runner.Report{}, err
	}
	id = rec.begin("report.encode", parent, unit)
	out, err := json.Marshal(rep)
	rec.end(id)
	if err != nil {
		return runner.Report{}, err
	}
	if len(out) == 0 {
		return runner.Report{}, fmt.Errorf("empty report")
	}
	return rep, nil
}

// unitSample is one timed unit.
type unitSample struct {
	wallS   float64 // wall time at reference-host speed (see hostClock)
	allocMB float64
	rep     runner.Report
}

// simRun carries one simulator workload invocation.
type simRun struct {
	w         simWorkload
	seed      uint64
	pins      expected
	host      *hostClock
	attempted int
	failed    int
	next      int // next unit index
}

func newSimRun(w simWorkload, seed uint64) *simRun {
	return &simRun{w: w, seed: seed, host: newHostClock()}
}

// timedUnit runs and checks unit i, reading the allocator before and after.
// A unit that errors or fails its check counts as failed and returns false.
func (r *simRun) timedUnit(i int, scheduler string, rec *recorder) (unitSample, bool) {
	specJSON := r.w.specBytes(unitSeed(r.seed, i), scheduler)
	root := rec.begin("unit", 0, i)
	before := snapRuntime(false)
	t0 := time.Now()
	rep, err := runUnit(specJSON, rec, root, i)
	wall := time.Since(t0)
	after := snapRuntime(false)
	rec.end(root)
	speed := r.host.factor()
	r.attempted++
	if err == nil {
		err = r.w.checkUnit(r.pins, r.seed, i, rep)
	}
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "benchmark: %s unit %d: %v\n", r.w.name, i, err)
		return unitSample{}, false
	}
	return unitSample{
		wallS:   wall.Seconds() / speed,
		allocMB: float64(after.totalAlloc-before.totalAlloc) / 1e6,
		rep:     rep,
	}, true
}

// setupRounds is how many times a run sets up; setup_s is the median.
const setupRounds = 5

// setup prepares a simulator workload: load the pinned digests and run the
// warm-up unit (unit 0), which pages in the code and grows the heap to its
// working size. It returns the seconds taken, at reference-host speed.
func (r *simRun) setup() (float64, error) {
	t0 := time.Now()
	pins, err := loadExpected()
	if err != nil {
		return 0, err
	}
	r.pins = pins
	specJSON := r.w.specBytes(unitSeed(r.seed, 0), "")
	rep, err := runUnit(specJSON, nil, 0, 0)
	if err == nil {
		err = r.w.checkUnit(r.pins, r.seed, 0, rep)
	}
	r.attempted++
	if err != nil {
		r.failed++
		return 0, fmt.Errorf("%s: warm-up unit: %w", r.w.name, err)
	}
	el := time.Since(t0).Seconds()
	return el / r.host.factor(), nil
}

func (r *simRun) setupMedian() (float64, error) {
	var secs []float64
	for i := 0; i < setupRounds; i++ {
		s, err := r.setup()
		if err != nil {
			return 0, err
		}
		secs = append(secs, s)
	}
	r.next = 1
	runtime.GC() // start timing from a settled heap
	return median(secs), nil
}

// unitsFor runs timed units under the given scheduler until d has elapsed
// (at least minUnits), returning the samples of the units that passed.
func (r *simRun) unitsFor(d time.Duration, minUnits int, scheduler string, rec *recorder) []unitSample {
	var out []unitSample
	start := time.Now()
	for n := 0; n < minUnits || time.Since(start) < d; n++ {
		s, ok := r.timedUnit(r.next, scheduler, rec)
		r.next++
		if ok {
			out = append(out, s)
		}
	}
	return out
}

func walls(us []unitSample) []float64 {
	out := make([]float64, len(us))
	for i, u := range us {
		out[i] = u.wallS
	}
	return out
}

// simTailQ is the percentile op_latency_tail_ms reports on the simulator
// workloads: the highest with ten samples beyond it once 40 units ran.
const simTailQ = 0.75

// runSimUntraced is the end-to-end pass of a simulator workload.
func runSimUntraced(w simWorkload, seed uint64, seconds float64) (result, error) {
	r := newSimRun(w, seed)
	setupS, err := r.setupMedian()
	if err != nil {
		return result{}, err
	}
	units := r.unitsFor(time.Duration(seconds*float64(time.Second)), 4, "", nil)
	r.host.report(w.name)
	if len(units) == 0 {
		return result{}, fmt.Errorf("%s: no unit succeeded", w.name)
	}
	var events, busy float64
	var allocs []float64
	for _, u := range units {
		events += float64(u.rep.Events)
		busy += u.wallS
		allocs = append(allocs, u.allocMB)
	}
	values := map[string]float64{
		"setup_s":           setupS,
		"op_latency_p50_ms": median(walls(units)) * 1e3,
		"ops_per_s":         float64(len(units)) / busy,
		"events_per_s":      events / busy,
		"alloc_mb_per_op":   median(allocs),
	}
	m, err := attach(endToEnd, values, true)
	if err != nil {
		return result{}, err
	}
	return result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: m}, nil
}

// runSimTraced is the per-layer pass of a simulator workload. The measured
// seconds are split between plain units (the tracing-overhead reference),
// traced and profiled units, heap/calendar pairs, and the layer probes.
func runSimTraced(w simWorkload, seed uint64, seconds float64, outDir string) (result, error) {
	r := newSimRun(w, seed)
	if _, err := r.setupMedian(); err != nil {
		return result{}, err
	}
	share := func(f float64) time.Duration { return time.Duration(f * seconds * float64(time.Second)) }
	values := map[string]float64{}

	plain := r.unitsFor(share(0.15), 3, "", nil)

	// Traced units: spans around each layer call, one CPU profile across
	// them, allocator and collector deltas around them.
	rec := newRecorder()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, fmt.Errorf("cpu profile: %w", err)
	}
	firstTraced := r.next
	before := snapRuntime(true)
	traced := r.unitsFor(share(0.30), 3, "", rec)
	after := snapRuntime(true)
	pprof.StopCPUProfile()
	if len(plain) == 0 || len(traced) == 0 {
		return result{}, fmt.Errorf("%s: no unit succeeded", w.name)
	}

	if err := cpuShares(prof.Bytes(), values); err != nil {
		return result{}, fmt.Errorf("%s: %w", w.name, err)
	}

	var events, msgs []float64
	var eventSum float64
	for _, u := range traced {
		events = append(events, float64(u.rep.Events))
		msgs = append(msgs, float64(u.rep.Messages))
		eventSum += float64(u.rep.Events)
	}
	values["sim.events_per_unit"] = median(events)
	values["channel.msgs_per_unit"] = median(msgs)
	runtimeMetrics(before, after, float64(len(traced)), eventSum, values)
	values["trace.overhead_share"] = (median(walls(traced)) - median(walls(plain))) / median(walls(plain))
	all := append(walls(plain), walls(traced)...)
	values["op_latency_tail_ms"] = percentile(all, simTailQ) * 1e3
	if highestTail(len(all)) < simTailQ {
		fmt.Fprintf(os.Stderr, "benchmark: %s: p%.0f of %d units has fewer than ten samples beyond it\n", w.name, simTailQ*100, len(all))
	}

	// Heap against calendar on the same units, alternating which runs
	// first; the digests must agree. The ratio is taken pair by pair (the
	// two runs of a pair are a second apart and share the host's state).
	var ratios []float64
	pairStart := time.Now()
	for k := 0; k < 2 || time.Since(pairStart) < share(0.25); k++ {
		i := r.next
		r.next++
		var h, c unitSample
		var okH, okC bool
		if k%2 == 0 {
			h, okH = r.timedUnit(i, "heap", nil)
			c, okC = r.timedUnit(i, "calendar", nil)
		} else {
			c, okC = r.timedUnit(i, "calendar", nil)
			h, okH = r.timedUnit(i, "heap", nil)
		}
		if !okH || !okC {
			continue
		}
		if digestOf(h.rep) != digestOf(c.rep) {
			r.failed++
			fmt.Fprintf(os.Stderr, "benchmark: %s unit %d: heap %+v and calendar %+v digests differ\n",
				w.name, i, digestOf(h.rep), digestOf(c.rep))
			continue
		}
		ratios = append(ratios, c.wallS/h.wallS)
	}
	values["sim.calendar_over_heap"] = median(ratios)

	// The replica pipeline replays the traced units' scenarios through the
	// layers' own functions and must land on the same digests.
	if err := r.replica(rec, firstTraced, traced, share(0.15), values); err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
	}

	if err := layerProbes(w.hold, values); err != nil {
		return result{}, err
	}

	return tracedResult(w.name, seed, outDir, r.host, rec, values, r.attempted, r.failed)
}

// runtimeMetrics turns allocator and collector deltas around a traced
// stretch of ops units simulating events kernel events into the gc.*,
// alloc.* and heap.* metrics. The heap's high-water mark is read from the
// closing snapshot, before later phases (calendar units, probes) grow it.
func runtimeMetrics(before, after runtimeSnap, ops, events float64, values map[string]float64) {
	values["gc.cycles_per_unit"] = float64(after.numGC-before.numGC) / ops
	values["gc.pause_ms_per_unit"] = float64(after.pauseNs-before.pauseNs) / 1e6 / ops
	values["gc.cpu_share"] = ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU)
	values["alloc.objects_per_event"] = ratio(float64(after.mallocs-before.mallocs), events)
	values["alloc.bytes_per_event"] = ratio(float64(after.totalAlloc-before.totalAlloc), events)
	values["heap.peak_mb"] = float64(after.heapSys) / 1e6
}

// tracedResult closes a traced pass: span metrics, the host's state, the
// trace file, and the result over the per-layer metric set.
func tracedResult(workload string, seed uint64, outDir string, host *hostClock, rec *recorder, values map[string]float64, attempted, failed int) (result, error) {
	spanMetrics(rec.spans, values)
	host.factor() // one more calibration, after the probes
	values["host.calib_ns"] = median(host.calibs)
	values["host.calib_drift"] = host.drift()
	host.report(workload)
	if err := writeTrace(outDir, workload, seed, rec.spans); err != nil {
		return result{}, err
	}
	m, err := attach(perLayer, values, false)
	if err != nil {
		return result{}, err
	}
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// cpuShares folds a CPU profile into the cpu_share.* metrics and checks that
// they account for the whole profile. Samples taken inside the benchmark's
// own host-calibration loop are not the program's time and are dropped.
func cpuShares(profile []byte, values map[string]float64) error {
	samples, err := parseProfile(profile)
	if err != nil {
		return err
	}
	samples = slices.DeleteFunc(samples, func(s stackSample) bool {
		return slices.Contains(s.stack, "main.calibrate")
	})
	var sum float64
	for class, v := range foldCPU(samples) {
		values["cpu_share."+class] = v
		sum += v
	}
	if len(samples) > 0 && (sum < 0.95 || sum > 1.05) {
		return fmt.Errorf("cpu shares sum to %.3f, not 1", sum)
	}
	return nil
}

// spanMetrics turns the recorded spans into the per-call layer metrics: the
// median self time of each span name.
func spanMetrics(spans []span, values map[string]float64) {
	byName := selfByName(spans)
	for _, name := range []string{"spec.decode", "spec.hash", "spec.build", "report.encode"} {
		values[name+"_us"] = median(byName[name]) * 1e6
	}
	for _, name := range []string{"runner.run", "topology.build", "network.new", "network.run", "network.collect"} {
		values[name+"_s"] = median(byName[name])
	}
}
