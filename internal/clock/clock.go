// Package clock models the local hardware clocks of network nodes.
//
// Condition 2 of the ABE model (Bakhshi et al., PODC 2010, Definition 1)
// assumes known bounds 0 < s_low <= s_high on the speed of local clocks:
// for every node A and real instants t1 <= t2,
//
//	s_low·(t2−t1) <= C_A(t2) − C_A(t1) <= s_high·(t2−t1).
//
// Nodes act on local clock ticks (the election algorithm wakes idle nodes
// once per tick), so clock speed couples directly into time complexity.
// This package provides perfect clocks, constant-drift clocks, and
// wandering-drift clocks whose rate is resampled over time while always
// staying inside [s_low, s_high].
package clock

import (
	"fmt"
	"math"
	"sort"

	"abenet/internal/rng"
	"abenet/internal/simtime"
)

// Clock maps real (simulation) time to a node's local time. Implementations
// must be monotone and respect fixed rate bounds for all intervals.
type Clock interface {
	// LocalAt returns the local clock reading at real instant t. Clocks
	// read 0 at real time 0.
	LocalAt(t simtime.Time) float64

	// RealAfterLocal returns the real instant at which the local clock
	// will have advanced by localDelta (> 0) beyond its reading at real
	// instant now. This is what nodes use to schedule their next tick.
	RealAfterLocal(now simtime.Time, localDelta float64) simtime.Time

	// RateBounds returns constants (low, high) such that the clock's
	// instantaneous rate always lies in [low, high].
	RateBounds() (low, high float64)
}

// Fixed is a clock running at a constant Rate (local units per real unit).
// Rate 1 is a perfect clock.
type Fixed struct {
	Rate float64
}

var _ Clock = Fixed{}

// NewFixed returns a constant-rate clock. It panics unless rate > 0 and
// finite.
func NewFixed(rate float64) Fixed {
	if !(rate > 0) || math.IsInf(rate, 0) || math.IsNaN(rate) {
		panic(fmt.Sprintf("clock: fixed rate %g must be positive and finite", rate))
	}
	return Fixed{Rate: rate}
}

// LocalAt implements Clock.
func (c Fixed) LocalAt(t simtime.Time) float64 { return c.Rate * float64(t) }

// RealAfterLocal implements Clock.
func (c Fixed) RealAfterLocal(now simtime.Time, localDelta float64) simtime.Time {
	return now.Add(simtime.Duration(localDelta / c.Rate))
}

// RateBounds implements Clock.
func (c Fixed) RateBounds() (low, high float64) { return c.Rate, c.Rate }

// Wandering is a piecewise-constant-rate clock: the rate is redrawn
// uniformly from [Low, High] at random segment boundaries (segment lengths
// are exponential with mean SegmentMean real units). Segments are generated
// lazily and deterministically from the clock's private random stream.
type Wandering struct {
	low, high   float64
	segmentMean float64
	r           *rng.Source

	// starts[i] is the real start of segment i; locals[i] the local reading
	// there; rates[i] its rate. Invariant: starts[0] == 0, locals[0] == 0.
	starts []float64
	locals []float64
	rates  []float64
}

var _ Clock = (*Wandering)(nil)

// NewWandering returns a wandering clock with rates in [low, high] and mean
// segment length segmentMean, driven by stream r. It panics unless
// 0 < low <= high, both finite, and segmentMean > 0.
func NewWandering(low, high, segmentMean float64, r *rng.Source) *Wandering {
	if !(low > 0) || !(high >= low) || math.IsInf(high, 0) || math.IsNaN(low) || math.IsNaN(high) {
		panic(fmt.Sprintf("clock: invalid rate bounds [%g, %g]", low, high))
	}
	if !(segmentMean > 0) || math.IsInf(segmentMean, 0) {
		panic(fmt.Sprintf("clock: segment mean %g must be positive and finite", segmentMean))
	}
	if r == nil {
		panic("clock: wandering clock needs a random source")
	}
	w := &Wandering{low: low, high: high, segmentMean: segmentMean, r: r}
	w.starts = append(w.starts, 0)
	w.locals = append(w.locals, 0)
	w.rates = append(w.rates, w.drawRate())
	return w
}

func (w *Wandering) drawRate() float64 {
	return w.low + (w.high-w.low)*w.r.Float64()
}

// extendOne draws one more segment boundary. Rates are strictly positive,
// so both starts and locals stay strictly increasing.
func (w *Wandering) extendOne() {
	lastIdx := len(w.starts) - 1
	segLen := w.segmentMean * w.r.ExpFloat64()
	if segLen <= 0 {
		segLen = w.segmentMean * 1e-9 // guard against a zero draw
	}
	w.starts = append(w.starts, w.starts[lastIdx]+segLen)
	w.locals = append(w.locals, w.locals[lastIdx]+w.rates[lastIdx]*segLen)
	w.rates = append(w.rates, w.drawRate())
}

// segmentFor returns the index i of the segment containing real time t,
// i.e. starts[i] <= t < starts[i+1]; it extends the boundary list as
// needed so that i+1 always exists.
func (w *Wandering) segmentFor(t float64) int {
	for w.starts[len(w.starts)-1] <= t {
		w.extendOne()
	}
	// First index with starts[i] >= t.
	i := sort.SearchFloat64s(w.starts, t)
	if i == len(w.starts) || w.starts[i] > t {
		i--
	}
	return i
}

// LocalAt implements Clock.
func (w *Wandering) LocalAt(t simtime.Time) float64 {
	rt := float64(t)
	if rt < 0 {
		panic(fmt.Sprintf("clock: LocalAt before time zero: %v", t))
	}
	i := w.segmentFor(rt)
	return w.locals[i] + w.rates[i]*(rt-w.starts[i])
}

// RealAfterLocal implements Clock.
func (w *Wandering) RealAfterLocal(now simtime.Time, localDelta float64) simtime.Time {
	if localDelta <= 0 {
		panic(fmt.Sprintf("clock: RealAfterLocal needs positive local delta, got %g", localDelta))
	}
	targetLocal := w.LocalAt(now) + localDelta
	for w.locals[len(w.locals)-1] <= targetLocal {
		w.extendOne()
	}
	// First index with locals[i] >= targetLocal.
	i := sort.SearchFloat64s(w.locals, targetLocal)
	if i == len(w.locals) || w.locals[i] > targetLocal {
		i--
	}
	within := (targetLocal - w.locals[i]) / w.rates[i]
	return simtime.Time(w.starts[i] + within)
}

// RateBounds implements Clock.
func (w *Wandering) RateBounds() (low, high float64) { return w.low, w.high }

// Model creates the per-node clocks of a network. Implementations draw any
// randomness from the provided per-node stream so that clock assignment is
// reproducible and independent of other random consumers.
type Model interface {
	// NewClock returns the clock for one node, using r for randomness.
	NewClock(r *rng.Source) Clock
	// Bounds returns the (s_low, s_high) the model guarantees.
	Bounds() (low, high float64)
}

// PerfectModel gives every node a rate-1 clock (synchronised speeds, not
// synchronised readings — there is still no global time visible to nodes).
type PerfectModel struct{}

var _ Model = PerfectModel{}

// unitClock is the one rate-1 clock every PerfectModel node shares: Fixed is
// immutable, and boxing a fresh one per node is an allocation per node of a
// million-node network.
var unitClock Clock = NewFixed(1)

// NewClock implements Model.
func (PerfectModel) NewClock(*rng.Source) Clock { return unitClock }

// Bounds implements Model.
func (PerfectModel) Bounds() (low, high float64) { return 1, 1 }

// UniformFixedModel draws each node's constant rate uniformly from
// [Low, High].
type UniformFixedModel struct {
	Low, High float64
}

var _ Model = UniformFixedModel{}

// NewUniformFixedModel validates the bounds and returns the model.
func NewUniformFixedModel(low, high float64) UniformFixedModel {
	if !(low > 0) || !(high >= low) || math.IsInf(high, 0) || math.IsNaN(low) || math.IsNaN(high) {
		panic(fmt.Sprintf("clock: invalid rate bounds [%g, %g]", low, high))
	}
	return UniformFixedModel{Low: low, High: high}
}

// NewClock implements Model.
func (m UniformFixedModel) NewClock(r *rng.Source) Clock {
	if r == nil {
		panic("clock: UniformFixedModel needs a random source")
	}
	return NewFixed(m.Low + (m.High-m.Low)*r.Float64())
}

// Bounds implements Model.
func (m UniformFixedModel) Bounds() (low, high float64) { return m.Low, m.High }

// WanderingModel gives each node a wandering clock with rates in
// [Low, High] and mean segment length SegmentMean.
type WanderingModel struct {
	Low, High   float64
	SegmentMean float64
}

var _ Model = WanderingModel{}

// NewWanderingModel validates parameters and returns the model.
func NewWanderingModel(low, high, segmentMean float64) WanderingModel {
	if !(low > 0) || !(high >= low) || math.IsInf(high, 0) || math.IsNaN(low) || math.IsNaN(high) {
		panic(fmt.Sprintf("clock: invalid rate bounds [%g, %g]", low, high))
	}
	if !(segmentMean > 0) || math.IsInf(segmentMean, 0) {
		panic(fmt.Sprintf("clock: invalid segment mean %g", segmentMean))
	}
	return WanderingModel{Low: low, High: high, SegmentMean: segmentMean}
}

// NewClock implements Model.
func (m WanderingModel) NewClock(r *rng.Source) Clock {
	return NewWandering(m.Low, m.High, m.SegmentMean, r)
}

// Bounds implements Model.
func (m WanderingModel) Bounds() (low, high float64) { return m.Low, m.High }
