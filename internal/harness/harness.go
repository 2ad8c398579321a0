// Package harness runs experiment sweeps: repeated seeded simulations over
// a parameter range, aggregated into samples, rendered as the tables the
// paper's claims are checked against (and as CSV for plotting).
package harness

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"abenet/internal/rng"
	"abenet/internal/stats"
)

// Point aggregates all repetitions at one sweep position.
type Point struct {
	// X is the sweep variable's value (e.g. the ring size).
	X float64
	// Samples holds one aggregated sample per metric name.
	Samples map[string]*stats.Sample
}

// Mean returns the mean of a metric at this point (0 if absent).
func (p Point) Mean(metric string) float64 {
	s, ok := p.Samples[metric]
	if !ok {
		return 0
	}
	return s.Mean()
}

// DefaultRepetitions is the repetition count behind Sweep.Repetitions = 0,
// exported so tools and validators account for the same number of runs the
// sweep actually executes.
const DefaultRepetitions = 100

// Sweep describes a parameter sweep.
type Sweep struct {
	// Name labels the experiment (used in errors and tables).
	Name string
	// Repetitions is the number of seeded runs per sweep position;
	// 0 means DefaultRepetitions.
	Repetitions int
	// Workers bounds parallelism; 0 means GOMAXPROCS.
	Workers int
	// Seed is the base seed; per-run seeds are derived deterministically
	// from it, so results are independent of worker scheduling.
	Seed uint64
	// OnPoint, when non-nil, is called once per sweep position as soon as
	// that position's last repetition completes — the streaming-progress
	// hook behind served sweeps. The point carries the same aggregated
	// values the final result will (repetitions fold in canonical order
	// either way); only the *arrival order across positions* depends on
	// scheduling. Calls are serialized (never concurrent) but may come
	// from worker goroutines, so the callback must not block for long and
	// must not call back into the sweep. Positions with a failed
	// repetition are skipped; Run reports the error at the end as usual.
	OnPoint func(xIdx int, p Point)
}

// run executes fn at every position in xs, Repetitions times each, in
// parallel, and returns one aggregated Point per position (in xs order).
// The first error aborts the sweep; a run that panics fails it with an
// *ErrRunPanicked.
func (s Sweep) run(xs []float64, fn func(x float64, seed uint64) (map[string]float64, error)) ([]Point, error) {
	if len(xs) == 0 {
		return nil, errors.New("harness: empty sweep")
	}
	if fn == nil {
		return nil, errors.New("harness: nil run function")
	}
	if s.Repetitions < 0 {
		return nil, fmt.Errorf("harness: %s has %d repetitions", s.Name, s.Repetitions)
	}
	reps := s.Repetitions
	if reps == 0 {
		reps = DefaultRepetitions
	}
	workers := s.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	type task struct {
		xIdx, rep int
	}

	tasks := make(chan task)
	var wg sync.WaitGroup

	root := rng.New(s.Seed)
	seedOf := func(xIdx, rep int) uint64 {
		// Derivation is pure: identical regardless of scheduling.
		return root.DeriveIndexed(fmt.Sprintf("%s/x%d", s.Name, xIdx), rep).Uint64()
	}

	// Workers write each run's metrics into its own slot; aggregation
	// happens afterwards in canonical (xIdx, rep) order, so the floating-
	// point folds — and therefore the results — are bit-identical for any
	// worker count.
	results := make([][]map[string]float64, len(xs))
	errs := make([][]error, len(xs))
	for i := range xs {
		results[i] = make([]map[string]float64, reps)
		errs[i] = make([]error, reps)
	}

	// remaining counts each position's unfinished repetitions so the
	// OnPoint streaming hook can fire the moment a position completes.
	var remaining []int64
	var onPointMu sync.Mutex
	if s.OnPoint != nil {
		remaining = make([]int64, len(xs))
		for i := range remaining {
			remaining[i] = int64(reps)
		}
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range tasks {
				m, err := runOne(fn, xs[t.xIdx], seedOf(t.xIdx, t.rep))
				results[t.xIdx][t.rep] = m
				errs[t.xIdx][t.rep] = err
				if remaining != nil && atomic.AddInt64(&remaining[t.xIdx], -1) == 0 {
					// This position is done; aggregate its slots in
					// canonical repetition order (identical folds to the
					// final pass) and stream it out.
					if p, perr := aggregatePoint(xs[t.xIdx], results[t.xIdx], errs[t.xIdx]); perr == nil {
						onPointMu.Lock()
						s.OnPoint(t.xIdx, p)
						onPointMu.Unlock()
					}
				}
			}
		}()
	}
	for xIdx := range xs {
		for rep := 0; rep < reps; rep++ {
			tasks <- task{xIdx: xIdx, rep: rep}
		}
	}
	close(tasks)
	wg.Wait()

	points := make([]Point, len(xs))
	for xIdx, x := range xs {
		p, err := aggregatePoint(x, results[xIdx], errs[xIdx])
		if err != nil {
			return nil, fmt.Errorf("harness: %s at x=%g: %w", s.Name, x, err)
		}
		points[xIdx] = p
	}
	return points, nil
}

// ErrRunPanicked is the error of a sweep run that panicked. The worker that
// ran it recovers, so one panicking point fails its sweep with this error —
// never the process, and never a run on another worker — and the seed says
// which run to replay.
type ErrRunPanicked struct {
	Value any    // what the run panicked with
	Seed  uint64 // the run's seed
}

func (e *ErrRunPanicked) Error() string {
	return fmt.Sprintf("harness: the run with seed %d panicked: %v", e.Seed, e.Value)
}

// runOne calls fn for one run, turning a panic into an *ErrRunPanicked.
func runOne(fn func(x float64, seed uint64) (map[string]float64, error), x float64, seed uint64) (m map[string]float64, err error) {
	defer func() {
		if v := recover(); v != nil {
			m, err = nil, &ErrRunPanicked{Value: v, Seed: seed}
		}
	}()
	return fn(x, seed)
}

// aggregatePoint folds one position's repetition slots, in canonical
// repetition order, into an aggregated Point. The fold order is fixed, so
// the floating-point results are bit-identical for any worker count — and
// identical between the streaming OnPoint hook and the final pass.
func aggregatePoint(x float64, results []map[string]float64, errs []error) (Point, error) {
	p := Point{X: x, Samples: make(map[string]*stats.Sample)}
	for rep := range results {
		if err := errs[rep]; err != nil {
			return Point{}, err
		}
		for name, v := range results[rep] {
			sample, ok := p.Samples[name]
			if !ok {
				sample = &stats.Sample{}
				p.Samples[name] = sample
			}
			sample.Add(v)
		}
	}
	return p, nil
}

// GrowthExponent fits metric ~ C·x^k over the sweep's points and returns
// the fitted exponent k (see stats.GrowthExponent).
func GrowthExponent(points []Point, metric string) (stats.LinearFit, error) {
	xs := make([]float64, 0, len(points))
	ys := make([]float64, 0, len(points))
	for _, p := range points {
		xs = append(xs, p.X)
		ys = append(ys, p.Mean(metric))
	}
	return stats.GrowthExponent(xs, ys)
}

// MetricNames returns the sorted union of metric names across points.
func MetricNames(points []Point) []string {
	set := map[string]bool{}
	for _, p := range points {
		for name := range p.Samples {
			set[name] = true
		}
	}
	names := make([]string, 0, len(set))
	for name := range set {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
