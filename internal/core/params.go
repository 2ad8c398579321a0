// Package core implements the paper's two contributions: the ABE network
// model (Definition 1) as machine-checkable parameters, and the
// leader-election algorithm for anonymous unidirectional ABE rings
// (Section 3).
package core

import (
	"fmt"
	"math"

	"abenet/internal/network"
)

// Params are the known bounds that make a network ABE (Bakhshi et al.,
// PODC 2010, Definition 1):
//
//  1. Delta bounds the expected message delay; delays of different
//     messages are stochastically independent.
//  2. SLow and SHigh bound local clock speeds: for every node A and real
//     instants t1 <= t2,
//     SLow·(t2−t1) <= C_A(t2) − C_A(t1) <= SHigh·(t2−t1).
//  3. Gamma bounds the expected time to process a local event.
//
// Note these are *bounds*, not exact values: the paper motivates this by
// networks whose true expected delays vary over time, or differ per link —
// only an upper bound is realistically knowable.
type Params struct {
	Delta float64 // bound on expected message delay, > 0
	SLow  float64 // lower clock-speed bound, > 0
	SHigh float64 // upper clock-speed bound, >= SLow
	Gamma float64 // bound on expected event-processing time, >= 0
}

// DefaultParams is the unit parameterisation used throughout the
// experiments: expected delay at most one time unit, perfect clocks,
// instantaneous processing.
func DefaultParams() Params {
	return Params{Delta: 1, SLow: 1, SHigh: 1, Gamma: 0}
}

// Validate checks the Definition 1 side conditions on the bounds
// themselves.
func (p Params) Validate() error {
	switch {
	case !(p.Delta > 0) || !isFinite(p.Delta):
		return fmt.Errorf("core: δ = %g must be positive and finite", p.Delta)
	case !(p.SLow > 0) || !isFinite(p.SLow):
		return fmt.Errorf("core: s_low = %g must be positive and finite", p.SLow)
	case p.SHigh < p.SLow || !isFinite(p.SHigh):
		return fmt.Errorf("core: s_high = %g must be finite and >= s_low = %g", p.SHigh, p.SLow)
	case p.Gamma < 0 || !isFinite(p.Gamma):
		return fmt.Errorf("core: γ = %g must be non-negative and finite", p.Gamma)
	}
	return nil
}

// Admits reports whether a network with tightest parameters q satisfies the
// declared bounds p (i.e. p is a valid ABE declaration for that network).
func (p Params) Admits(q Params) bool {
	return q.Delta <= p.Delta &&
		q.SLow >= p.SLow &&
		q.SHigh <= p.SHigh &&
		q.Gamma <= p.Gamma
}

// ParamsOf extracts the tightest ABE parameters a built network actually
// satisfies, from its link means, clock model bounds and processing mean.
func ParamsOf(net *network.Network) Params {
	low, high := net.ClockBounds()
	return Params{
		Delta: net.MaxLinkMeanDelay(),
		SLow:  low,
		SHigh: high,
		Gamma: net.ProcessingMean(),
	}
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
