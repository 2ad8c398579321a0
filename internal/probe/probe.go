// Package probe is a deterministic, allocation-light time-series
// collection layer for simulation runs.
//
// A Collector samples a fixed set of named gauges — instantaneous float64
// readings such as in-flight messages, cumulative sends, or a protocol's
// candidate count — on a configurable cadence: every K executed events,
// at fixed virtual-time intervals, or both. It says when its next sample
// is due (Due), and the engine runs the kernel in segments that pause right
// after that event (sim.Kernel.RunSegment) and calls Observe there, between
// two events, so sampling can never perturb the schedule: an observed run
// is byte-identical to an unobserved one at the same (Env, Plan, seed). The
// golden pins in the runner tests enforce that. An event between two
// samples pays nothing for the collector: observation costs per sample,
// not per event.
//
// Gauges are pull-based: protocols and networks expose their state through
// the Observable interface and the Collector reads it when a sample is
// due. Sample values live in one flat backing slice (one append per
// sample, amortised), so a long observed run costs a handful of slice
// growths rather than per-sample allocations.
package probe

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"abenet/internal/simtime"
)

// DefaultMaxSamples bounds a series when Config.MaxSamples is zero.
// Cadence samples past the cap are counted in Series.Truncated, not
// stored; the closing sample taken by Final is exempt from the cap.
const DefaultMaxSamples = 100_000

// Gauge is one named instantaneous reading. Read must not mutate any
// simulation state and must not schedule events: it runs between two
// events of a paused run, which resumes as if nothing had happened. Every
// sample reads every gauge, so a gauge's cost is paid once per sample; one
// that walks every node makes each sample O(n).
type Gauge struct {
	Name string
	Read func() float64
}

// Observable exposes a component's gauges for sampling. Networks and
// protocol runtimes implement it; the engine hands every relevant
// Observable to NewCollector when a run is observed.
type Observable interface {
	ProbeGauges() []Gauge
}

// Config selects the sampling cadence. At least one of EveryEvents and
// Interval must be set; when both are, a sample is taken whenever either
// cadence is due (at most one sample per executed event).
type Config struct {
	// EveryEvents samples after every K-th executed event (K ≥ 1).
	EveryEvents uint64 `json:"every_events,omitempty"`
	// Interval samples at fixed virtual-time intervals: the first event
	// executed at or after each multiple of Interval triggers a sample.
	Interval float64 `json:"interval,omitempty"`
	// MaxSamples caps the stored cadence samples; 0 means
	// DefaultMaxSamples. Cadence samples past the cap are dropped and
	// counted in Series.Truncated; the closing sample recorded by Final
	// is exempt, so a series holds at most MaxSamples+1 rows.
	MaxSamples int `json:"max_samples,omitempty"`

	// Sink, when non-nil, receives every recorded sample as it is taken
	// (including the final end-of-run sample). The names slice is shared
	// across calls and must not be mutated; the sample's Values slice is
	// only valid for the duration of the call unless copied. Sink is a
	// live-streaming hook, not part of the serialised configuration.
	Sink func(names []string, s Sample) `json:"-"`
}

// Validate checks the cadence configuration.
func (c *Config) Validate() error {
	if c == nil {
		return nil
	}
	if c.EveryEvents == 0 && c.Interval == 0 {
		return errors.New("probe: config needs every_events and/or interval")
	}
	if c.Interval < 0 || math.IsInf(c.Interval, 0) || math.IsNaN(c.Interval) {
		return fmt.Errorf("probe: interval %g must be finite and non-negative", c.Interval)
	}
	if c.MaxSamples < 0 {
		return fmt.Errorf("probe: max_samples %d must be non-negative", c.MaxSamples)
	}
	return nil
}

// Sample is one synchronous reading of every gauge, stamped with the
// virtual time and the executed-event count at which it was taken.
type Sample struct {
	// Time is the kernel's virtual time at the sample instant.
	Time float64 `json:"time"`
	// Event is the number of events executed so far (the sample was taken
	// immediately after event number Event ran).
	Event uint64 `json:"event"`
	// Values holds one reading per series name, in Series.Names order.
	Values []float64 `json:"values"`
}

// Series is a completed time series: the gauge names (column headers) and
// the samples in the order they were taken.
type Series struct {
	// Names are the gauge names, one per column of every sample.
	Names []string `json:"names"`
	// Samples are the recorded rows, in sampling order.
	Samples []Sample `json:"samples"`
	// Truncated counts cadence samples dropped after MaxSamples was
	// reached. A non-zero value means the stored rows are a prefix plus
	// the end-of-run closing sample, not the whole run.
	Truncated int `json:"truncated,omitempty"`
}

// Collector samples gauges on the configured cadence. Create one with
// NewCollector, call Observe after each event at which Due says a sample is
// due, and close it with Final; Series returns the result. A Collector is not safe
// for concurrent use — it lives on the single-threaded simulation path.
type Collector struct {
	cfg    Config
	names  []string
	gauges []func() float64

	nextEvent uint64       // next executed-count due for EveryEvents cadence
	nextTime  simtime.Time // next virtual instant due for Interval cadence

	samples   []Sample
	backing   []float64 // flat storage; each Sample.Values slices into it
	max       int
	truncated int
	finalized bool
}

// NewCollector builds a collector over the gauges of every observable, in
// argument order. Gauge names must be unique across all observables.
func NewCollector(cfg Config, observables ...Observable) (*Collector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Collector{cfg: cfg, max: cfg.MaxSamples}
	if c.max == 0 {
		c.max = DefaultMaxSamples
	}
	seen := make(map[string]bool)
	for _, obs := range observables {
		if obs == nil {
			continue
		}
		for _, g := range obs.ProbeGauges() {
			if g.Name == "" || g.Read == nil {
				return nil, fmt.Errorf("probe: observable %T exposes an incomplete gauge %q", obs, g.Name)
			}
			if seen[g.Name] {
				return nil, fmt.Errorf("probe: duplicate gauge name %q", g.Name)
			}
			seen[g.Name] = true
			c.names = append(c.names, g.Name)
			c.gauges = append(c.gauges, g.Read)
		}
	}
	if len(c.gauges) == 0 {
		return nil, errors.New("probe: no gauges to sample")
	}
	if cfg.EveryEvents > 0 {
		c.nextEvent = cfg.EveryEvents
	}
	// With an Interval cadence, nextTime = 0 makes the first executed
	// event record the run's initial state.
	return c, nil
}

// Names returns the series column names. The slice is shared; callers
// must not mutate it.
func (c *Collector) Names() []string { return c.names }

// Due returns where the next cadence sample falls: after the event that
// brings the executed count to events, or after the first event executed at
// or after the instant at, whichever comes first. A cadence that is not
// configured is never due: events is math.MaxUint64, at simtime.Forever.
// Observe records nothing after any other event, so an engine needs to call
// it only there (network.Network.Run pauses the kernel there).
func (c *Collector) Due() (events uint64, at simtime.Time) {
	events, at = math.MaxUint64, simtime.Forever
	if c.cfg.EveryEvents > 0 {
		events = c.nextEvent
	}
	if c.cfg.Interval > 0 {
		at = c.nextTime
	}
	return events, at
}

// Observe takes a sample if one is due after the event that just ran: it is
// called with the kernel's virtual time and executed-event count right after
// an event's handler returns, before the next event runs. It records a
// sample when either cadence is due and changes nothing otherwise, so it may
// be called after every event or only after those Due names. Observe only
// reads simulation state — it never schedules or mutates — so the event
// schedule of an observed run is identical to an unobserved one.
func (c *Collector) Observe(now simtime.Time, executed uint64) {
	due := false
	if c.cfg.EveryEvents > 0 && executed >= c.nextEvent {
		due = true
		c.nextEvent = executed + c.cfg.EveryEvents
	}
	if c.cfg.Interval > 0 && !now.Before(c.nextTime) {
		due = true
		// Advance past now so a burst of same-instant events yields one
		// sample, and a long delivery gap yields one sample, not a
		// backlog of catch-up rows. The next due instant is computed
		// arithmetically: stepping one interval per missed tick would cost
		// O(gap/Interval), and once Interval drops below the float ULP of
		// now the step stops advancing nextTime at all.
		k := math.Floor(float64(now)/c.cfg.Interval) + 1
		next := simtime.Time(k * c.cfg.Interval)
		if !now.Before(next) {
			// Interval is within rounding error of now's ULP; the smallest
			// representable instant after now keeps the cadence progressing.
			next = simtime.Time(math.Nextafter(float64(now), math.Inf(1)))
		}
		c.nextTime = next
	}
	if due {
		c.record(now, executed, false)
	}
}

// Final records one closing sample of the end-of-run state (unless the
// cadence already sampled at exactly this point) and freezes the
// collector. Engines call it once after the kernel drains or stops. The
// closing sample is exempt from the MaxSamples cap — a truncated series
// still ends with the end-of-run reading — so a series holds at most
// MaxSamples cadence rows plus one closing row.
func (c *Collector) Final(now simtime.Time, executed uint64) {
	if c.finalized {
		return
	}
	c.finalized = true
	if n := len(c.samples); n > 0 && c.samples[n-1].Event == executed && c.truncated == 0 {
		return
	}
	c.record(now, executed, true)
}

// record appends one sample (or, past the cap, counts it as truncated —
// unless it is the cap-exempt closing sample).
func (c *Collector) record(now simtime.Time, executed uint64, closing bool) {
	if len(c.samples) >= c.max && !closing {
		c.truncated++
		return
	}
	// Both slices double: append grows a large slice by a quarter, which
	// copies each value about four times over a long series.
	if len(c.backing)+len(c.gauges) > cap(c.backing) {
		c.backing = slices.Grow(c.backing, max(len(c.backing), len(c.gauges)))
	}
	if len(c.samples) == cap(c.samples) {
		c.samples = slices.Grow(c.samples, max(len(c.samples), 1))
	}
	start := len(c.backing)
	for _, read := range c.gauges {
		c.backing = append(c.backing, read())
	}
	s := Sample{Time: float64(now), Event: executed, Values: c.backing[start:len(c.backing):len(c.backing)]}
	c.samples = append(c.samples, s)
	if c.cfg.Sink != nil {
		c.cfg.Sink(c.names, s)
	}
}

// Len returns the number of recorded samples so far.
func (c *Collector) Len() int { return len(c.samples) }

// Series returns the collected series. The returned struct shares the
// collector's storage; take it once, after Final.
func (c *Collector) Series() *Series {
	return &Series{Names: c.names, Samples: c.samples, Truncated: c.truncated}
}
