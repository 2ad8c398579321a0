// Package stats provides the statistics used to turn seeded simulation
// runs into the paper's expected-complexity claims: sample moments,
// normal-approximation confidence intervals, least-squares fits (for
// "messages grow linearly in n" style statements) and quantiles.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Sample accumulates observations online (Welford's algorithm), so large
// experiment sweeps never hold raw values unless quantiles are needed.
type Sample struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (s *Sample) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// N returns the number of observations.
func (s *Sample) N() int { return s.n }

// Mean returns the sample mean (0 for an empty sample).
func (s *Sample) Mean() float64 { return s.mean }

// Variance returns the unbiased sample variance (0 for n < 2).
func (s *Sample) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Sample) StdDev() float64 { return math.Sqrt(s.Variance()) }

// StdErr returns the standard error of the mean.
func (s *Sample) StdErr() float64 {
	if s.n == 0 {
		return 0
	}
	return s.StdDev() / math.Sqrt(float64(s.n))
}

// Min returns the smallest observation (0 for an empty sample).
func (s *Sample) Min() float64 { return s.min }

// Max returns the largest observation (0 for an empty sample).
func (s *Sample) Max() float64 { return s.max }

// CI95 returns the half-width of the 95% normal-approximation confidence
// interval for the mean. Experiments use enough repetitions (>= 30) that
// the normal approximation is appropriate.
func (s *Sample) CI95() float64 { return 1.96 * s.StdErr() }

// String formats mean ± CI95.
func (s *Sample) String() string {
	return fmt.Sprintf("%.4g ± %.2g (n=%d)", s.Mean(), s.CI95(), s.n)
}

// LinearFit is an ordinary-least-squares line y = Slope·x + Intercept with
// its coefficient of determination.
type LinearFit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// FitLine fits y = a·x + b by least squares. It requires at least two
// points with distinct x values.
func FitLine(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) {
		return LinearFit{}, fmt.Errorf("stats: %d xs vs %d ys", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return LinearFit{}, errors.New("stats: need at least two points")
	}
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{}, errors.New("stats: all x values identical")
	}
	slope := sxy / sxx
	fit := LinearFit{Slope: slope, Intercept: my - slope*mx}
	if syy == 0 {
		fit.R2 = 1 // a perfectly flat, perfectly fitted line
	} else {
		fit.R2 = (sxy * sxy) / (sxx * syy)
	}
	return fit, nil
}

// GrowthExponent fits y ~ C·x^k on log-log axes and returns k with the fit
// quality. A growth exponent near 1 over a wide range of x is the
// operational meaning of "linear complexity" in the experiments; n·log n
// data shows up as k ≈ 1.15–1.3 over the measured ranges, and quadratic
// data as k ≈ 2. All xs and ys must be positive.
func GrowthExponent(xs, ys []float64) (LinearFit, error) {
	lx := make([]float64, len(xs))
	ly := make([]float64, len(ys))
	if len(xs) != len(ys) {
		return LinearFit{}, fmt.Errorf("stats: %d xs vs %d ys", len(xs), len(ys))
	}
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			return LinearFit{}, fmt.Errorf("stats: log-log fit needs positive data, got (%g, %g)", xs[i], ys[i])
		}
		lx[i] = math.Log(xs[i])
		ly[i] = math.Log(ys[i])
	}
	return FitLine(lx, ly)
}

// Quantile returns the q-quantile (0 <= q <= 1) of values using linear
// interpolation between order statistics. The input is copied, not mutated.
func Quantile(values []float64, q float64) (float64, error) {
	if len(values) == 0 {
		return 0, errors.New("stats: quantile of empty data")
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, fmt.Errorf("stats: quantile %g outside [0, 1]", q)
	}
	sorted := make([]float64, len(values))
	copy(sorted, values)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}
