// Component codecs: each environment ingredient (topology, delay
// distribution, clock model, link factory) is named JSON —
// {"name": ..., "params": {...}} — resolved through a small per-family
// registry of typed parameter structs. Parameters are typed, never
// free-form maps, so canonical encoding is deterministic; construction
// funnels through the library constructors, whose panics are captured as
// decode errors.
package spec

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"abenet/internal/channel"
	"abenet/internal/clock"
	"abenet/internal/dist"
	"abenet/internal/topology"
)

// componentJSON is the shared wire shape of every named component.
type componentJSON struct {
	Name   string          `json:"name"`
	Params json.RawMessage `json:"params,omitempty"`
}

// entry describes one name in a component family: a fresh-parameters
// constructor (nil for parameterless components) and a builder from the
// populated parameters to the concrete value.
type entry[T any] struct {
	newParams func() any
	build     func(params any) (T, error)
}

// family is one component kind's name table.
type family[T any] struct {
	kind    string
	entries map[string]entry[T]
}

// names returns the family's sorted component names (for error messages).
func (f *family[T]) names() []string {
	out := make([]string, 0, len(f.entries))
	for name := range f.entries {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// unknown is the error for a name the family does not have.
func (f *family[T]) unknown(name string) error {
	return fmt.Errorf("spec: unknown %s %q (have %v)", f.kind, name, f.names())
}

// of is the table entry of a component whose parameters decode into a P.
func of[P, T any](build func(*P) (T, error)) entry[T] {
	return entry[T]{
		newParams: func() any { return new(P) },
		build:     func(p any) (T, error) { return build(p.(*P)) },
	}
}

// kind names a component family at the type level: it is how the one codec
// below finds the table of the value it is decoding.
type kind[T any] interface{ family() *family[T] }

// component is a named environment ingredient of kind K that builds a T.
type component[T any, K kind[T]] struct {
	Name   string
	params any
}

// family returns the component's name table (K's, reached through a zero K).
func (component[T, K]) family() *family[T] {
	var k K
	return k.family()
}

// UnmarshalJSON implements json.Unmarshaler: {"name", "params"} decoded
// strictly against the family table.
func (c *component[T, K]) UnmarshalJSON(data []byte) error {
	f := c.family()
	var cj componentJSON
	if err := strictUnmarshal(data, &cj); err != nil {
		return fmt.Errorf("spec: %s: %w", f.kind, err)
	}
	if cj.Name == "" {
		return fmt.Errorf(`spec: %s needs a "name" (have %v)`, f.kind, f.names())
	}
	ent, ok := f.entries[cj.Name]
	if !ok {
		return f.unknown(cj.Name)
	}
	var params any
	if ent.newParams == nil {
		if len(cj.Params) > 0 {
			return fmt.Errorf("spec: %s %q takes no params", f.kind, cj.Name)
		}
	} else {
		params = ent.newParams()
		if len(cj.Params) > 0 {
			if err := strictUnmarshal(cj.Params, params); err != nil {
				return fmt.Errorf("spec: %s %q params: %w", f.kind, cj.Name, err)
			}
		}
	}
	c.Name, c.params = cj.Name, params
	return nil
}

// MarshalJSON implements json.Marshaler canonically: the params object is
// always present and complete for parameterised components.
func (c component[T, K]) MarshalJSON() ([]byte, error) {
	f := c.family()
	ent, ok := f.entries[c.Name]
	if !ok {
		return nil, f.unknown(c.Name)
	}
	cj := componentJSON{Name: c.Name}
	if ent.newParams != nil {
		params := c.params
		if params == nil {
			params = ent.newParams()
		}
		raw, err := json.Marshal(params)
		if err != nil {
			return nil, fmt.Errorf("spec: %s %q params: %w", f.kind, c.Name, err)
		}
		cj.Params = raw
	}
	return json.Marshal(cj)
}

// Build constructs the value the component names, converting constructor
// panics (the library treats mis-parameterisation as a programming error)
// into decode-side errors.
func (c *component[T, K]) Build() (out T, err error) {
	f := c.family()
	ent, ok := f.entries[c.Name]
	if !ok {
		return out, f.unknown(c.Name)
	}
	params := c.params
	if ent.newParams != nil && params == nil {
		params = ent.newParams()
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("spec: %s %q: %v", f.kind, c.Name, r)
		}
	}()
	if out, err = ent.build(params); err != nil {
		err = fmt.Errorf("spec: %s %q: %w", f.kind, c.Name, err)
	}
	return out, err
}

// ---- Delay distributions ----

// DistSpec names a delay distribution plus its parameters. Names:
// deterministic, uniform, exponential, erlang, pareto, retransmission,
// bimodal (whose fast/slow components are themselves DistSpecs).
type DistSpec = component[dist.Dist, distKind]

type distKind struct{}

func (distKind) family() *family[dist.Dist] { return distFamily }

// The distribution parameter structs (exported so specs can be built
// programmatically and so the JSON schema is visible in one place).
type (
	// DeterministicParams: the distribution concentrated on Value ≥ 0.
	DeterministicParams struct {
		Value float64 `json:"value"`
	}
	// UniformParams: uniform on [Low, High], 0 ≤ Low ≤ High.
	UniformParams struct {
		Low  float64 `json:"low"`
		High float64 `json:"high"`
	}
	// ExponentialParams: exponential with Mean > 0.
	ExponentialParams struct {
		Mean float64 `json:"mean"`
	}
	// ErlangParams: K-stage Erlang with total Mean.
	ErlangParams struct {
		K    int     `json:"k"`
		Mean float64 `json:"mean"`
	}
	// ParetoParams: Pareto scaled to Mean with tail index Alpha > 1.
	ParetoParams struct {
		Mean  float64 `json:"mean"`
		Alpha float64 `json:"alpha"`
	}
	// RetransmissionParams: stop-and-wait ARQ delay, per-attempt success
	// probability P, slot time Slot (mean Slot/P).
	RetransmissionParams struct {
		P    float64 `json:"p"`
		Slot float64 `json:"slot"`
	}
	// BimodalParams: Fast with probability 1−PSlow, Slow with PSlow.
	BimodalParams struct {
		Fast  *DistSpec `json:"fast"`
		Slow  *DistSpec `json:"slow"`
		PSlow float64   `json:"p_slow"`
	}
)

var distFamily = &family[dist.Dist]{kind: "distribution", entries: map[string]entry[dist.Dist]{
	"deterministic": of(func(p *DeterministicParams) (dist.Dist, error) {
		return dist.NewDeterministic(p.Value), nil
	}),
	"uniform": of(func(p *UniformParams) (dist.Dist, error) {
		return dist.NewUniform(p.Low, p.High), nil
	}),
	"exponential": of(func(p *ExponentialParams) (dist.Dist, error) {
		return dist.NewExponential(p.Mean), nil
	}),
	"erlang": of(func(p *ErlangParams) (dist.Dist, error) {
		return dist.NewErlang(p.K, p.Mean), nil
	}),
	"pareto": of(func(p *ParetoParams) (dist.Dist, error) {
		return dist.ParetoWithMean(p.Mean, p.Alpha), nil
	}),
	"retransmission": of(func(p *RetransmissionParams) (dist.Dist, error) {
		return dist.NewRetransmission(p.P, p.Slot), nil
	}),
}}

// The bimodal entry recurses through DistSpec.Build for its components, so
// it is registered in init() to break the initialisation cycle.
func init() {
	distFamily.entries["bimodal"] = of(func(p *BimodalParams) (dist.Dist, error) {
		if p.Fast == nil || p.Slow == nil {
			return nil, fmt.Errorf(`bimodal needs both "fast" and "slow" component distributions`)
		}
		fast, err := p.Fast.Build()
		if err != nil {
			return nil, err
		}
		slow, err := p.Slow.Build()
		if err != nil {
			return nil, err
		}
		return dist.NewBimodal(fast, slow, p.PSlow), nil
	})
}

// The programmatic DistSpec constructors.

// Deterministic is the spec of dist.NewDeterministic(v).
func Deterministic(v float64) *DistSpec {
	return &DistSpec{Name: "deterministic", params: &DeterministicParams{Value: v}}
}

// Uniform is the spec of dist.NewUniform(low, high).
func Uniform(low, high float64) *DistSpec {
	return &DistSpec{Name: "uniform", params: &UniformParams{Low: low, High: high}}
}

// Exponential is the spec of dist.NewExponential(mean).
func Exponential(mean float64) *DistSpec {
	return &DistSpec{Name: "exponential", params: &ExponentialParams{Mean: mean}}
}

// Erlang is the spec of dist.NewErlang(k, mean).
func Erlang(k int, mean float64) *DistSpec {
	return &DistSpec{Name: "erlang", params: &ErlangParams{K: k, Mean: mean}}
}

// Pareto is the spec of dist.ParetoWithMean(mean, alpha).
func Pareto(mean, alpha float64) *DistSpec {
	return &DistSpec{Name: "pareto", params: &ParetoParams{Mean: mean, Alpha: alpha}}
}

// Retransmission is the spec of dist.NewRetransmission(p, slot).
func Retransmission(p, slot float64) *DistSpec {
	return &DistSpec{Name: "retransmission", params: &RetransmissionParams{P: p, Slot: slot}}
}

// Bimodal is the spec of dist.NewBimodal(fast, slow, pSlow).
func Bimodal(fast, slow *DistSpec, pSlow float64) *DistSpec {
	return &DistSpec{Name: "bimodal", params: &BimodalParams{Fast: fast, Slow: slow, PSlow: pSlow}}
}

// ---- Topologies ----

// TopologySpec names a communication graph plus its parameters. Names:
// ring, biring, line, star, complete (SizeParams), hypercube
// (HypercubeParams), torus (TorusParams).
type TopologySpec = component[*topology.Graph, topologyKind]

type topologyKind struct{}

func (topologyKind) family() *family[*topology.Graph] { return topologyFamily }

type (
	// SizeParams: the node count of ring/biring/line/star/complete.
	SizeParams struct {
		N int `json:"n"`
	}
	// HypercubeParams: the dimension (2^Dim nodes).
	HypercubeParams struct {
		Dim int `json:"dim"`
	}
	// TorusParams: the Rows×Cols 2-D torus.
	TorusParams struct {
		Rows int `json:"rows"`
		Cols int `json:"cols"`
	}
)

// budgeted is the table entry of a topology: edges is the number of directed
// edges build would lay out, computed from the parameters alone (in floating
// point, so no parameter can overflow it), and a graph over MaxEdges is
// refused before build allocates anything.
func budgeted[P any](edges func(*P) float64, build func(*P) *topology.Graph) entry[*topology.Graph] {
	return of(func(p *P) (*topology.Graph, error) {
		if err := checkEdges(edges(p)); err != nil {
			return nil, err
		}
		return build(p), nil
	})
}

func sizedTopology(f topology.Family) entry[*topology.Graph] {
	return budgeted(func(p *SizeParams) float64 { return f.Edges(float64(p.N)) },
		func(p *SizeParams) *topology.Graph { return f.Build(p.N) })
}

// bidirectional bounds the n-node families that lay two directed edges per
// neighbour pair over n (biring) or n−1 (line, star) pairs.
func bidirectional(n float64) float64 { return 2 * n }

var topologyFamily = &family[*topology.Graph]{kind: "topology", entries: map[string]entry[*topology.Graph]{
	"ring":     sizedTopology(topology.RingFamily),
	"biring":   sizedTopology(topology.Family{Name: "biring", Edges: bidirectional, Build: topology.BiRing}),
	"line":     sizedTopology(topology.Family{Name: "line", Edges: bidirectional, Build: topology.Line}),
	"star":     sizedTopology(topology.Family{Name: "star", Edges: bidirectional, Build: topology.Star}),
	"complete": sizedTopology(topology.CompleteFamily),
	"hypercube": budgeted(func(p *HypercubeParams) float64 { return math.Ldexp(float64(p.Dim), p.Dim) },
		func(p *HypercubeParams) *topology.Graph { return topology.Hypercube(p.Dim) }),
	"torus": budgeted(func(p *TorusParams) float64 { return 4 * float64(p.Rows) * float64(p.Cols) },
		func(p *TorusParams) *topology.Graph { return topology.Torus(p.Rows, p.Cols) }),
}}

// RingTopology is the spec of topology.Ring(n).
func RingTopology(n int) *TopologySpec {
	return &TopologySpec{Name: "ring", params: &SizeParams{N: n}}
}

// BiRingTopology is the spec of topology.BiRing(n).
func BiRingTopology(n int) *TopologySpec {
	return &TopologySpec{Name: "biring", params: &SizeParams{N: n}}
}

// LineTopology is the spec of topology.Line(n).
func LineTopology(n int) *TopologySpec {
	return &TopologySpec{Name: "line", params: &SizeParams{N: n}}
}

// StarTopology is the spec of topology.Star(n).
func StarTopology(n int) *TopologySpec {
	return &TopologySpec{Name: "star", params: &SizeParams{N: n}}
}

// CompleteTopology is the spec of topology.Complete(n).
func CompleteTopology(n int) *TopologySpec {
	return &TopologySpec{Name: "complete", params: &SizeParams{N: n}}
}

// HypercubeTopology is the spec of topology.Hypercube(dim).
func HypercubeTopology(dim int) *TopologySpec {
	return &TopologySpec{Name: "hypercube", params: &HypercubeParams{Dim: dim}}
}

// TorusTopology is the spec of topology.Torus(rows, cols).
func TorusTopology(rows, cols int) *TopologySpec {
	return &TopologySpec{Name: "torus", params: &TorusParams{Rows: rows, Cols: cols}}
}

// ---- Clock models ----

// ClockSpec names a clock model. Names: perfect (no params), uniform
// (UniformClockParams), wandering (WanderingClockParams).
type ClockSpec = component[clock.Model, clockKind]

type clockKind struct{}

func (clockKind) family() *family[clock.Model] { return clockFamily }

type (
	// UniformClockParams: each node's constant rate drawn uniformly from
	// [Low, High].
	UniformClockParams struct {
		Low  float64 `json:"low"`
		High float64 `json:"high"`
	}
	// WanderingClockParams: piecewise-constant rates in [Low, High],
	// resampled at exponential boundaries of mean SegmentMean.
	WanderingClockParams struct {
		Low         float64 `json:"low"`
		High        float64 `json:"high"`
		SegmentMean float64 `json:"segment_mean"`
	}
)

var clockFamily = &family[clock.Model]{kind: "clock model", entries: map[string]entry[clock.Model]{
	"perfect": {
		build: func(any) (clock.Model, error) { return clock.PerfectModel{}, nil },
	},
	"uniform": of(func(p *UniformClockParams) (clock.Model, error) {
		return clock.NewUniformFixedModel(p.Low, p.High), nil
	}),
	"wandering": of(func(p *WanderingClockParams) (clock.Model, error) {
		return clock.NewWanderingModel(p.Low, p.High, p.SegmentMean), nil
	}),
}}

// PerfectClocks is the spec of clock.PerfectModel.
func PerfectClocks() *ClockSpec { return &ClockSpec{Name: "perfect"} }

// UniformClocks is the spec of clock.NewUniformFixedModel(low, high).
func UniformClocks(low, high float64) *ClockSpec {
	return &ClockSpec{Name: "uniform", params: &UniformClockParams{Low: low, High: high}}
}

// WanderingClocks is the spec of clock.NewWanderingModel.
func WanderingClocks(low, high, segmentMean float64) *ClockSpec {
	return &ClockSpec{Name: "wandering", params: &WanderingClockParams{Low: low, High: high, SegmentMean: segmentMean}}
}

// ---- Link factories ----

// LinksSpec names a full link factory, overriding the plain delay
// distribution. Names: arq (ARQLinkParams), fifo and random-delay
// (DelayLinkParams, whose delay is a DistSpec).
type LinksSpec = component[channel.Factory, linksKind]

type linksKind struct{}

func (linksKind) family() *family[channel.Factory] { return linksFamily }

type (
	// ARQLinkParams: lossy stop-and-wait ARQ links, per-attempt success
	// probability P, slot time Slot.
	ARQLinkParams struct {
		P    float64 `json:"p"`
		Slot float64 `json:"slot"`
	}
	// DelayLinkParams: a delay distribution applied with a fixed link
	// discipline (fifo preserves per-link order; random-delay does not).
	DelayLinkParams struct {
		Delay *DistSpec `json:"delay"`
	}
)

func delayLinks(wrap func(dist.Dist) channel.Factory) entry[channel.Factory] {
	return of(func(p *DelayLinkParams) (channel.Factory, error) {
		if p.Delay == nil {
			return nil, fmt.Errorf(`needs a "delay" distribution`)
		}
		d, err := p.Delay.Build()
		if err != nil {
			return nil, err
		}
		return wrap(d), nil
	})
}

var linksFamily = &family[channel.Factory]{kind: "link factory", entries: map[string]entry[channel.Factory]{
	"arq": of(func(p *ARQLinkParams) (channel.Factory, error) {
		// The factory defers link construction into the run, so validate
		// the parameters eagerly here (panics become decode errors):
		// an invalid (p, slot) must fail at decode time, not mid-run.
		dist.NewRetransmission(p.P, p.Slot)
		return channel.ARQFactory(p.P, p.Slot), nil
	}),
	"fifo":         delayLinks(channel.FIFOFactory),
	"random-delay": delayLinks(channel.RandomDelayFactory),
}}

// ARQLinks is the spec of channel.ARQFactory(p, slot).
func ARQLinks(p, slot float64) *LinksSpec {
	return &LinksSpec{Name: "arq", params: &ARQLinkParams{P: p, Slot: slot}}
}

// FIFOLinks is the spec of channel.FIFOFactory(delay).
func FIFOLinks(delay *DistSpec) *LinksSpec {
	return &LinksSpec{Name: "fifo", params: &DelayLinkParams{Delay: delay}}
}

// RandomDelayLinks is the spec of channel.RandomDelayFactory(delay).
func RandomDelayLinks(delay *DistSpec) *LinksSpec {
	return &LinksSpec{Name: "random-delay", params: &DelayLinkParams{Delay: delay}}
}
