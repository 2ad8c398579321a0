package channel

import (
	"fmt"
	"math"

	"abenet/internal/dist"
	"abenet/internal/rng"
	"abenet/internal/sim"
	"abenet/internal/simtime"
)

// Impairment is the stochastic per-message fault model an Impaired link
// injects in front of any inner link — including ARQ links, where a drop
// models loss the retransmission scheme cannot see (e.g. the sender dying
// mid-transfer). Probabilities are independent per message.
type Impairment struct {
	// Drop destroys the message before it reaches the inner link.
	Drop float64
	// Duplicate hands the message to the inner link twice; the copy
	// samples its own delay, so duplicates can also overtake.
	Duplicate float64
	// Delay holds the message back for an ExtraDelay sample before the
	// inner link sees it — forcing reorderings even on FIFO links.
	Delay float64
	// ExtraDelay is the hold-back distribution; nil means Exponential(1).
	ExtraDelay dist.Dist
}

// validate panics on out-of-range probabilities: impairments are built
// from validated fault plans, so a bad value here is a programming error.
func (imp Impairment) validate() {
	for _, p := range []struct {
		name string
		v    float64
	}{{"Drop", imp.Drop}, {"Duplicate", imp.Duplicate}, {"Delay", imp.Delay}} {
		if math.IsNaN(p.v) || p.v < 0 || p.v > 1 {
			panic(fmt.Sprintf("channel: impairment %s probability %g outside [0, 1]", p.name, p.v))
		}
	}
}

// ImpairmentStats counts what one impaired link injected.
type ImpairmentStats struct {
	Dropped    uint64 // messages destroyed
	Duplicated uint64 // extra copies created
	Delayed    uint64 // hold-backs injected
}

// ImpairmentReporter is implemented by links that can report injected
// faults; the network layer aggregates these into the run's telemetry.
type ImpairmentReporter interface {
	ImpairmentStats() ImpairmentStats
}

// Impaired wraps an inner Link with an Impairment. The wrapper draws its
// randomness from a stream derived off the edge stream, so the inner
// link's delay sequence for the messages that do get through is unchanged
// by the wrapping — and a zero Impairment consumes no randomness at all.
type Impaired struct {
	kernel *sim.Kernel
	inner  Link
	imp    Impairment
	extra  dist.Dist
	r      *rng.Source
	stats  ImpairmentStats
}

var (
	_ Link               = (*Impaired)(nil)
	_ ImpairmentReporter = (*Impaired)(nil)
)

// NewImpaired wraps inner with the given impairment. All arguments must be
// non-nil.
func NewImpaired(k *sim.Kernel, inner Link, imp Impairment, r *rng.Source) *Impaired {
	if k == nil || inner == nil || r == nil {
		panic("channel: impaired link requires kernel, inner link and rng")
	}
	imp.validate()
	extra := imp.ExtraDelay
	if extra == nil {
		extra = dist.NewExponential(1)
	}
	return &Impaired{kernel: k, inner: inner, imp: imp, extra: extra, r: r}
}

// Send implements Link. A dropped message reports a zero delay; a held
// message reports only the hold-back — its inner delay is sampled later,
// at the hand-off instant, so it cannot be known here.
func (l *Impaired) Send(payload any) simtime.Duration {
	// rng.Bool does not consume randomness for p = 0, so disabled fault
	// axes leave the stream untouched (replay stability across plans).
	if l.r.Bool(l.imp.Drop) {
		l.stats.Dropped++
		return 0
	}
	copies := 1
	if l.r.Bool(l.imp.Duplicate) {
		l.stats.Duplicated++
		copies = 2
	}
	if l.r.Bool(l.imp.Delay) {
		l.stats.Delayed++
		hold := simtime.Duration(l.extra.Sample(l.r))
		l.kernel.AfterFunc(hold, func() {
			for i := 0; i < copies; i++ {
				l.inner.Send(payload)
			}
		})
		return hold
	}
	d := l.inner.Send(payload)
	for i := 1; i < copies; i++ {
		l.inner.Send(payload)
	}
	return d
}

// Stats implements Link by delegating to the inner link: Sent/Delivered/
// Transmissions count what the physical link actually carried (dropped
// messages never reach it). Injected-fault counts are in ImpairmentStats.
func (l *Impaired) Stats() Stats { return l.inner.Stats() }

// MeanDelay implements Link: the inner link's mean, i.e. the expected
// delay of the messages that are neither dropped nor held back. With
// Drop > 0 the ABE condition 1 only holds conditionally on delivery — the
// point of the fault model is to leave Definition 1's comfort zone.
func (l *Impaired) MeanDelay() float64 { return l.inner.MeanDelay() }

// ImpairmentStats implements ImpairmentReporter.
func (l *Impaired) ImpairmentStats() ImpairmentStats { return l.stats }

// Inner exposes the wrapped link (tests and telemetry).
func (l *Impaired) Inner() Link { return l.inner }

// ImpairedFactory wraps any link factory with per-message impairments.
// Each produced link derives the interceptor's random stream from the edge
// stream via Derive (which does not advance the parent), so the inner
// factory sees exactly the stream it would see unwrapped.
func ImpairedFactory(inner Factory, imp Impairment) Factory {
	if inner == nil {
		panic("channel: ImpairedFactory needs an inner factory")
	}
	imp.validate()
	return func(s *Store, edge int, edgeRNG *rng.Source) Link {
		faultRNG := edgeRNG.Derive("impair")
		return NewImpaired(s.Kernel(), inner(s, edge, edgeRNG), imp, faultRNG)
	}
}
