package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// percentile returns the q-quantile of xs by the nearest-rank rule: the
// smallest sample with at least a share q of the samples at or below it.
// xs need not be sorted; an empty slice yields 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// tailLadder is the set of tail percentiles a report may quote.
var tailLadder = []float64{0.75, 0.90, 0.95, 0.99}

// highestTail returns the highest percentile of tailLadder that still has
// at least ten of n samples beyond it (the choosing-metrics rule for how
// far into the tail a sample of size n can be read), or 0.5 when even p75
// does not.
func highestTail(n int) float64 {
	best := 0.5
	for _, q := range tailLadder {
		beyond := n - int(math.Ceil(q*float64(n)))
		if beyond >= 10 {
			best = q
		}
	}
	return best
}

// relDiff is |a−b| as a share of |a| (0 when both are 0).
func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	if a == 0 {
		return math.Inf(1)
	}
	return math.Abs(a-b) / math.Abs(a)
}

// calibSink keeps the calibration loop's result live.
var calibSink uint64

// calibrate times a fixed pure-CPU loop (an xorshift chain: no memory
// traffic, no allocation, no syscalls) and returns the median of three
// timings in nanoseconds, about nine milliseconds in all.
func calibrate() float64 {
	const iters = 2_000_000
	var ns [3]float64
	for r := range ns {
		x := uint64(88172645463325252) + uint64(r)
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		ns[r] = float64(time.Since(t0).Nanoseconds())
		calibSink += x
	}
	return median(ns[:])
}

// calibRefNs is what calibrate returns on the reference host: the two-core
// box the baseline was taken on, in its fast state.
const calibRefNs = 3.0e6

// hostClock turns measured durations into reference-host durations. The
// boxes this benchmark runs on change speed by ±30 % for seconds at a time
// (shared cores), which no median over a 20-second run removes; a
// calibration loop run between units moves with the host and not with the
// program under test, so dividing a unit's wall time by the calibration
// taken around it removes the host's part (ROADMAP item 1b asks for exactly
// this ratio). Every end-to-end time and rate is reported this way; span
// times in the traced pass are raw.
type hostClock struct {
	last   float64   // the latest calibration, ns
	calibs []float64 // every calibration taken
}

func newHostClock() *hostClock {
	c := calibrate()
	return &hostClock{last: c, calibs: []float64{c}}
}

// factor calibrates again and returns how much slower than the reference
// host this one ran since the previous calibration (1 = reference speed).
func (h *hostClock) factor() float64 {
	c := calibrate()
	f := (h.last + c) / 2 / calibRefNs
	h.last = c
	h.calibs = append(h.calibs, c)
	return f
}

// drift is the spread of the run's calibrations, (max − min) / min.
func (h *hostClock) drift() float64 {
	lo, hi := h.calibs[0], h.calibs[0]
	for _, c := range h.calibs {
		lo, hi = min(lo, c), max(hi, c)
	}
	return (hi - lo) / lo
}

// noisyDrift is the calibration spread beyond which a run is marked noisy.
const noisyDrift = 0.10

// report prints the host's state over the run to standard error.
func (h *hostClock) report(workload string) {
	noisy := ""
	if h.drift() > noisyDrift {
		noisy = " noisy: true"
	}
	fmt.Fprintf(os.Stderr, "benchmark: %s: host calibration median %.3g ns (reference %.3g), drift %.1f%%%s\n",
		workload, median(h.calibs), calibRefNs, h.drift()*100, noisy)
}

// runtimeSnap is the allocator and collector state read between units.
type runtimeSnap struct {
	totalAlloc, mallocs uint64
	numGC               uint32
	pauseNs             uint64
	heapSys             uint64
	gcCPU, totalCPU     float64
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// snapRuntime reads MemStats (which stops the world briefly, so it is
// called between units, never inside one).
func snapRuntime(withCPU bool) runtimeSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s := runtimeSnap{
		totalAlloc: m.TotalAlloc,
		mallocs:    m.Mallocs,
		numGC:      m.NumGC,
		pauseNs:    m.PauseTotalNs,
		heapSys:    m.HeapSys,
	}
	if withCPU {
		metrics.Read(cpuSamples)
		if cpuSamples[0].Value.Kind() == metrics.KindFloat64 {
			s.gcCPU = cpuSamples[0].Value.Float64()
		}
		if cpuSamples[1].Value.Kind() == metrics.KindFloat64 {
			s.totalCPU = cpuSamples[1].Value.Float64()
		}
	}
	return s
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
