package harness

import (
	"errors"
	"sync"
	"testing"

	"abenet/internal/rng"
)

// TestOnPointStreamsEveryPosition: the streaming hook fires exactly once
// per position, and the streamed values are bit-identical to the final
// result — the aggregation folds repetitions in canonical order on both
// paths, whatever the worker count.
func TestOnPointStreamsEveryPosition(t *testing.T) {
	var mu sync.Mutex
	streamed := map[int]Point{}
	s := Sweep{
		Name: "stream", Repetitions: 25, Workers: 4, Seed: 3,
		OnPoint: func(xIdx int, p Point) {
			mu.Lock()
			defer mu.Unlock()
			if _, dup := streamed[xIdx]; dup {
				t.Errorf("position %d streamed twice", xIdx)
			}
			streamed[xIdx] = p
		},
	}
	xs := []float64{1, 2, 3, 4}
	points, err := s.run(xs, func(x float64, seed uint64) (map[string]float64, error) {
		r := rng.New(seed)
		return map[string]float64{"v": r.Float64() * x, "w": x}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(xs) {
		t.Fatalf("streamed %d positions, want %d", len(streamed), len(xs))
	}
	for i, final := range points {
		got, ok := streamed[i]
		if !ok {
			t.Fatalf("position %d never streamed", i)
		}
		if got.X != final.X {
			t.Fatalf("position %d streamed X=%g, final X=%g", i, got.X, final.X)
		}
		for name, sample := range final.Samples {
			gs, ok := got.Samples[name]
			if !ok {
				t.Fatalf("position %d streamed without metric %q", i, name)
			}
			// Bit-identical, not approximately equal: both paths fold the
			// same slots in the same order.
			if gs.Mean() != sample.Mean() || gs.StdDev() != sample.StdDev() || gs.N() != sample.N() {
				t.Fatalf("position %d metric %q: streamed %v/%v/%d, final %v/%v/%d",
					i, name, gs.Mean(), gs.StdDev(), gs.N(), sample.Mean(), sample.StdDev(), sample.N())
			}
		}
	}
}

// TestOnPointSkipsFailedPositions: a position with a failed repetition is
// never streamed; healthy positions still are, and Run reports the error.
func TestOnPointSkipsFailedPositions(t *testing.T) {
	var mu sync.Mutex
	var streamed []int
	s := Sweep{
		Name: "failing", Repetitions: 10, Workers: 2, Seed: 1,
		OnPoint: func(xIdx int, p Point) {
			mu.Lock()
			streamed = append(streamed, xIdx)
			mu.Unlock()
		},
	}
	boom := errors.New("boom")
	_, err := s.run([]float64{1, 2}, func(x float64, seed uint64) (map[string]float64, error) {
		if x == 2 {
			return nil, boom
		}
		return map[string]float64{"v": x}, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Run error = %v, want the repetition failure", err)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, idx := range streamed {
		if idx == 1 {
			t.Fatal("failed position was streamed")
		}
	}
	if len(streamed) != 1 {
		t.Fatalf("streamed positions = %v, want just the healthy one", streamed)
	}
}
