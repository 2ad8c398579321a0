// Building and running specs: Spec → runner.Env + runner.Protocol →
// runner.Run / harness.Sweep. CLI, tests and the serving layer all run
// scenarios through these two entry points, which is what makes a spec's
// results byte-identical across all three.
package spec

import (
	"errors"
	"fmt"
	"math"

	"abenet/internal/harness"
	"abenet/internal/runner"
	"abenet/internal/simtime"
	"abenet/internal/stats"
)

// The resource ceilings. Specs arrive over the network (abe-serve), so a
// single request must not be able to demand unbounded goroutines, result
// slots or network sizes; Validate enforces these before anything
// allocates.
const (
	// MaxSweepPositions bounds len(Sweep.Xs).
	MaxSweepPositions = 4096
	// MaxSweepSize bounds each swept network size.
	MaxSweepSize = 1 << 20
	// MaxEdges bounds the directed edges of any one network, a named
	// topology's or the one a protocol builds from a bare size: a
	// bidirectional ring of the largest sweepable size. (Memory goes with
	// edges, not nodes: "complete" at n = 10⁵ is 10¹⁰ of them.)
	MaxEdges = 2 * MaxSweepSize
	// MaxSweepRepetitions bounds Sweep.Repetitions.
	MaxSweepRepetitions = 1_000_000
	// MaxSweepWorkers bounds Sweep.Workers (0 still means GOMAXPROCS).
	MaxSweepWorkers = 1024
	// MaxSweepRuns bounds the total run count len(Xs)·Repetitions (the
	// harness preallocates one result slot per run).
	MaxSweepRuns = 10_000_000
)

// ErrEdgeBudget is wrapped by the rejection of a scenario whose network
// would hold more than MaxEdges directed edges.
var ErrEdgeBudget = errors.New("network exceeds the edge budget")

// checkEdges refuses an edge count over the budget. Counts are computed in
// floating point from the scenario's parameters, before anything of that
// size exists, so a parameter near the integer range cannot overflow one.
func checkEdges(edges float64) error {
	if edges > MaxEdges {
		return fmt.Errorf("%w: %.0f directed edges, the limit is %d", ErrEdgeBudget, edges, MaxEdges)
	}
	return nil
}

// BuildEnv constructs the runner.Env the spec describes. The returned
// environment is not yet checked against the protocol — runner.Check does
// that — but every component is constructed, so component-level errors
// (unknown names, invalid parameters) surface here.
func (s *Spec) BuildEnv() (runner.Env, error) {
	var env runner.Env
	e := s.Env
	if e.Topology != nil {
		if e.N != 0 {
			return runner.Env{}, errors.New(`spec: env sets both "topology" and "n"; the size lives in the topology params`)
		}
		g, err := e.Topology.Build()
		if err != nil {
			return runner.Env{}, err
		}
		env.Graph = g
	} else {
		env.N = e.N
	}
	if e.Delay != nil {
		d, err := e.Delay.Build()
		if err != nil {
			return runner.Env{}, err
		}
		env.Delay = d
	}
	if e.Links != nil {
		f, err := e.Links.Build()
		if err != nil {
			return runner.Env{}, err
		}
		env.Links = f
	}
	env.Delta = e.Delta
	if e.Clocks != nil {
		m, err := e.Clocks.Build()
		if err != nil {
			return runner.Env{}, err
		}
		env.Clocks = m
	}
	if e.Processing != nil {
		d, err := e.Processing.Build()
		if err != nil {
			return runner.Env{}, err
		}
		env.Processing = d
	}
	env.Seed = e.Seed
	env.Scheduler = e.Scheduler
	if e.Horizon < 0 || math.IsInf(e.Horizon, 0) {
		return runner.Env{}, fmt.Errorf("spec: horizon %g must be finite and non-negative", e.Horizon)
	}
	env.Horizon = simtime.Time(e.Horizon)
	env.MaxEvents = e.MaxEvents
	env.MaxRounds = e.MaxRounds
	if e.Faults != nil {
		plan, err := e.Faults.Build()
		if err != nil {
			return runner.Env{}, err
		}
		env.Faults = plan
	}
	if e.Byzantine != nil {
		plan, err := e.Byzantine.Build()
		if err != nil {
			return runner.Env{}, err
		}
		env.Byzantine = plan
	}
	env.LocalBroadcast = e.LocalBroadcast
	// Observe and Trace are copied: a caller of BuildEnv may hang a live
	// Sink on its env (the service does), and that must never land on the
	// spec, which is shared and hashed.
	if e.Observe != nil {
		cfg := *e.Observe
		env.Observe = &cfg
	}
	if e.Trace != nil {
		cfg := *e.Trace
		env.Trace = &cfg
	}
	return env, nil
}

// Build returns the (environment, protocol) pair of a single-scenario spec,
// for callers that want to adjust the env (attach a tracer, override the
// seed) before running.
func (s *Spec) Build() (runner.Env, runner.Protocol, error) {
	env, err := s.BuildEnv()
	if err != nil {
		return runner.Env{}, nil, err
	}
	if s.Protocol.proto == nil {
		return runner.Env{}, nil, errors.New("spec: no protocol (decode a spec or use ForProtocol)")
	}
	return env, s.Protocol.proto, nil
}

// Validate checks the whole spec semantically: components build, the sweep
// block (if any) is consistent, and the scenario — at every sweep size —
// passes runner.Check, the check runner.Run makes before it runs, after the
// network a bare size names to the protocol is held to the edge budget. So
// a decoded spec is always runnable: runner.Run refuses nothing that
// Validate admits. DecodeBytes calls it; success is latched, so later
// Run/RunSweep/Submit calls do not re-pay it.
func (s *Spec) Validate() error {
	if s.validated {
		return nil
	}
	if err := s.validate(); err != nil {
		return err
	}
	s.validated = true
	return nil
}

func (s *Spec) validate() error {
	if s.Protocol.proto == nil {
		return errors.New("spec: no protocol")
	}
	env, err := s.BuildEnv()
	if err != nil {
		return err
	}
	sw := s.Sweep
	if sw == nil {
		if err := s.check(env); err != nil {
			return fmt.Errorf("spec: %w", err)
		}
		return nil
	}
	if s.Env.Observe != nil {
		return errors.New(`spec: "observe" applies to a single run; a sweep streams per-point completions instead — drop one of the two blocks`)
	}
	if s.Env.Trace != nil {
		return errors.New(`spec: "trace" applies to a single run; tracing every run of a sweep would multiply its memory by the event cap — drop one of the two blocks`)
	}
	if len(sw.Xs) == 0 {
		return errors.New(`spec: sweep needs at least one size in "xs"`)
	}
	if len(sw.Xs) > MaxSweepPositions {
		return fmt.Errorf("spec: sweep has %d positions; the limit is %d", len(sw.Xs), MaxSweepPositions)
	}
	if env.Graph != nil || env.N != 0 {
		return errors.New(`spec: a sweep varies the ring size over "xs"; leave env "topology" and "n" unset`)
	}
	if sw.Repetitions < 0 || sw.Repetitions > MaxSweepRepetitions {
		return fmt.Errorf("spec: sweep repetitions %d outside [0, %d]", sw.Repetitions, MaxSweepRepetitions)
	}
	reps := sw.Repetitions
	if reps == 0 {
		reps = harness.DefaultRepetitions
	}
	if total := len(sw.Xs) * reps; total > MaxSweepRuns {
		return fmt.Errorf("spec: sweep demands %d runs (%d sizes × %d repetitions); the limit is %d",
			total, len(sw.Xs), reps, MaxSweepRuns)
	}
	if sw.Workers < 0 || sw.Workers > MaxSweepWorkers {
		return fmt.Errorf("spec: sweep workers %d outside [0, %d]", sw.Workers, MaxSweepWorkers)
	}
	for _, m := range sw.Metrics {
		if m == "" {
			return errors.New("spec: empty metric name in sweep metrics")
		}
	}
	// Check the scenario at every sweep size, not just the first: a fault
	// event targeting node 12 is fine at n=16 and invalid at n=8, and "a
	// decoded spec is always runnable" has to mean the whole sweep.
	for _, x := range sw.Xs {
		n := int(x)
		if float64(n) != x || n < 2 {
			return fmt.Errorf("spec: sweep size %g is not a network size (integer >= 2)", x)
		}
		if n > MaxSweepSize {
			return fmt.Errorf("spec: sweep size %d exceeds the limit %d", n, MaxSweepSize)
		}
		env.N = n
		if err := s.check(env); err != nil {
			return fmt.Errorf("spec: at sweep size %d: %w", n, err)
		}
	}
	return nil
}

// check holds the network a bare size names to the protocol to the edge
// budget (a named topology is held to it by its own table entry, on every
// Build), then makes runner.Check.
func (s *Spec) check(env runner.Env) error {
	p := s.Protocol.proto
	if env.Graph == nil {
		if err := checkEdges(runner.BareGraph(p).Edges(float64(env.N))); err != nil {
			return fmt.Errorf("%s at n = %d: %w", p.Name(), env.N, err)
		}
	}
	return runner.Check(env, p)
}

// Run executes a single-scenario spec through runner.Run.
func (s *Spec) Run() (runner.Report, error) {
	if s.Sweep != nil {
		return runner.Report{}, errors.New("spec: spec has a sweep block; use RunSweep")
	}
	env, proto, err := s.Build()
	if err != nil {
		return runner.Report{}, err
	}
	return runner.Run(env, proto)
}

// RunSweep executes the spec's sweep block through harness.Sweep. The sweep
// name is the execution hash and the base seed is Env.Seed, so
// per-repetition seeds — and therefore every number — are a pure function
// of (simulated scenario, seed), independent of worker count and of the
// view-only metrics filter. workersOverride, when positive, replaces
// Sweep.Workers (a resource hint, not part of the scenario identity).
//
// onPoint, when non-nil, receives each position's aggregated,
// metrics-filtered view as soon as its last repetition completes — the
// values are identical to the final result's, only the arrival order across
// positions depends on scheduling. Calls are serialized but come from sweep
// workers, so the callback must be quick and must not block on the sweep
// itself.
func (s *Spec) RunSweep(workersOverride int, onPoint func(xIdx int, pv PointView)) ([]harness.Point, error) {
	if s.Sweep == nil {
		return nil, errors.New("spec: no sweep block; use Run")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	env, err := s.BuildEnv()
	if err != nil {
		return nil, err
	}
	// Seeds derive from the execution hash, which excludes the view-only
	// metrics filter: changing displayed columns never changes the runs.
	hash, err := s.ExecutionHash()
	if err != nil {
		return nil, err
	}
	workers := s.Sweep.Workers
	if workersOverride > 0 {
		workers = workersOverride
	}
	sweep := harness.Sweep{
		Name:        hash,
		Repetitions: s.Sweep.Repetitions,
		Workers:     workers,
		Seed:        env.Seed,
	}
	if onPoint != nil {
		keep := s.Sweep.Metrics
		sweep.OnPoint = func(xIdx int, p harness.Point) {
			views := SweepView(FilterPoints([]harness.Point{p}, keep), nil)
			onPoint(xIdx, views[0])
		}
	}
	// Run the spec's own decoded protocol instance, not the registry's
	// zero-value default: the options are part of the scenario identity
	// (they are in the hash), so they must be part of the execution.
	env.Seed = 0 // the harness injects per-repetition seeds
	return sweep.Run(s.Sweep.Xs, harness.Sizes(env, s.Protocol.proto), nil)
}

// MetricView is one aggregated metric of one sweep point, JSON-ready.
type MetricView struct {
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"std_dev"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

// PointView is one sweep position's aggregated metrics, JSON-ready.
type PointView struct {
	X       float64               `json:"x"`
	Metrics map[string]MetricView `json:"metrics"`
}

// SweepView converts harness points into the JSON-ready view, keeping only
// the named metrics (all of them when keep is empty). Unknown names in keep
// are ignored: the metric key set is protocol-dependent and a view filter
// should never fail a finished run.
func SweepView(points []harness.Point, keep []string) []PointView {
	views := make([]PointView, len(points))
	for i, p := range FilterPoints(points, keep) {
		view := PointView{X: p.X, Metrics: map[string]MetricView{}}
		for name, sample := range p.Samples {
			view.Metrics[name] = metricView(sample)
		}
		views[i] = view
	}
	return views
}

// FilterPoints keeps only the named samples in each point (all of them
// when keep is empty) — the shared filter behind SweepView and the CLI
// table renderers, so every door reports the same metric set for the same
// spec. The input points are not mutated.
func FilterPoints(points []harness.Point, keep []string) []harness.Point {
	if len(keep) == 0 {
		return points
	}
	keepSet := make(map[string]bool, len(keep))
	for _, name := range keep {
		keepSet[name] = true
	}
	out := make([]harness.Point, len(points))
	for i, p := range points {
		filtered := harness.Point{X: p.X, Samples: make(map[string]*stats.Sample)}
		for name, s := range p.Samples {
			if keepSet[name] {
				filtered.Samples[name] = s
			}
		}
		out[i] = filtered
	}
	return out
}

func metricView(s *stats.Sample) MetricView {
	return MetricView{
		Mean:   s.Mean(),
		StdDev: s.StdDev(),
		Min:    s.Min(),
		Max:    s.Max(),
		N:      s.N(),
	}
}
