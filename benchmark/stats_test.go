package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(40 - i) // unsorted on purpose: 40, 39, ..., 1
	}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 20}, {0.75, 30}, {0.9, 36}, {0.99, 40}, {0, 1}, {1, 40},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..40, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if xs[0] != 40 {
		t.Error("percentile sorted its argument in place")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %g, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %g, want 2", got)
	}
}

// The tail a report may quote is the highest percentile with at least ten
// samples beyond it.
func TestHighestTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{9, 0.5}, {39, 0.5}, {40, 0.75}, {99, 0.75}, {100, 0.90}, {199, 0.90},
		{200, 0.95}, {999, 0.95}, {1000, 0.99}, {6000, 0.99},
	} {
		if got := highestTail(c.n); got != c.want {
			t.Errorf("highestTail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestRelDiff(t *testing.T) {
	if got := relDiff(100, 110); got < 0.0999 || got > 0.1001 {
		t.Errorf("relDiff(100, 110) = %g, want 0.1", got)
	}
	if relDiff(0, 0) != 0 {
		t.Error("relDiff(0, 0) != 0")
	}
}
