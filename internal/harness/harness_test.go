package harness

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"abenet/internal/rng"
	"abenet/internal/runner"
	"abenet/internal/sim"
	"abenet/internal/simtime"
)

// TestSweepPreservesLivelockIdentity: the sweep's error wrapping keeps the
// kernel's typed livelock error errors.Is-able, so callers (the service, the
// CLIs) can tell an exhausted event budget from any other run failure even
// when it surfaced deep inside a parallel sweep.
func TestSweepPreservesLivelockIdentity(t *testing.T) {
	s := Sweep{Name: "livelock", Repetitions: 3, Seed: 1}
	_, err := s.run([]float64{1}, func(x float64, seed uint64) (map[string]float64, error) {
		k := sim.New()
		var spin func()
		spin = func() { k.AfterFunc(1, spin) }
		spin()
		return nil, k.Run(simtime.Forever, 10)
	})
	if !errors.Is(err, sim.ErrMaxEvents) {
		t.Fatalf("sweep error = %v, want errors.Is(_, sim.ErrMaxEvents)", err)
	}
}

func TestSweepAggregates(t *testing.T) {
	s := Sweep{Name: "test", Repetitions: 50, Seed: 1}
	points, err := s.run([]float64{1, 2, 3}, func(x float64, seed uint64) (map[string]float64, error) {
		r := rng.New(seed)
		return map[string]float64{"y": 2*x + r.Float64()*0.01}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	for i, want := range []float64{2, 4, 6} {
		got := points[i].Mean("y")
		if math.Abs(got-want) > 0.02 {
			t.Fatalf("point %d mean = %v, want about %v", i, got, want)
		}
		if points[i].Samples["y"].N() != 50 {
			t.Fatalf("point %d n = %d", i, points[i].Samples["y"].N())
		}
	}
}

func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) []Point {
		s := Sweep{Name: "det", Repetitions: 40, Workers: workers, Seed: 7}
		points, err := s.run([]float64{1, 2}, func(x float64, seed uint64) (map[string]float64, error) {
			r := rng.New(seed)
			return map[string]float64{"v": r.Float64() * x}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return points
	}
	a, b := run(1), run(4)
	for i := range a {
		if a[i].Mean("v") != b[i].Mean("v") {
			t.Fatalf("point %d differs across worker counts: %v vs %v", i, a[i].Mean("v"), b[i].Mean("v"))
		}
	}
}

func TestSweepSeedsDistinct(t *testing.T) {
	var mu sync.Mutex
	seeds := map[uint64]bool{}
	s := Sweep{Name: "seeds", Repetitions: 30, Seed: 3}
	_, err := s.run([]float64{1, 2}, func(x float64, seed uint64) (map[string]float64, error) {
		mu.Lock()
		seeds[seed] = true
		mu.Unlock()
		return map[string]float64{"k": 1}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) != 60 {
		t.Fatalf("distinct seeds = %d, want 60", len(seeds))
	}
}

func TestSweepPropagatesErrors(t *testing.T) {
	s := Sweep{Name: "err", Repetitions: 5, Seed: 1}
	wantErr := errors.New("boom")
	_, err := s.run([]float64{1}, func(float64, uint64) (map[string]float64, error) {
		return nil, wantErr
	})
	if err == nil || !errors.Is(err, wantErr) {
		t.Fatalf("err = %v", err)
	}
}

func TestSweepValidation(t *testing.T) {
	s := Sweep{Name: "v"}
	if _, err := s.run(nil, func(float64, uint64) (map[string]float64, error) { return nil, nil }); err == nil {
		t.Fatal("empty sweep accepted")
	}
	if _, err := s.run([]float64{1}, nil); err == nil {
		t.Fatal("nil fn accepted")
	}
	if _, err := s.Run([]float64{1}, nil, nil); err == nil {
		t.Fatal("nil build accepted")
	}
	negative := Sweep{Name: "v", Repetitions: -1}
	if _, err := negative.Run([]float64{1}, Sizes(runner.Env{}, runner.Election{}), nil); err == nil {
		t.Fatal("negative repetitions accepted")
	}
}

func TestGrowthExponentOnPoints(t *testing.T) {
	s := Sweep{Name: "growth", Repetitions: 10, Seed: 2}
	points, err := s.run([]float64{8, 16, 32, 64}, func(x float64, seed uint64) (map[string]float64, error) {
		return map[string]float64{"messages": 3 * x}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	fit, err := GrowthExponent(points, "messages")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-1) > 1e-9 {
		t.Fatalf("exponent = %v", fit.Slope)
	}
}

func TestMetricNamesSorted(t *testing.T) {
	s := Sweep{Name: "names", Repetitions: 2, Seed: 1}
	pts, err := s.run([]float64{1}, func(float64, uint64) (map[string]float64, error) {
		return map[string]float64{"zeta": 1, "alpha": 2}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	names := MetricNames(pts)
	if len(names) != 2 || names[0] != "alpha" || names[1] != "zeta" {
		t.Fatalf("names = %v", names)
	}
}

func TestTableRender(t *testing.T) {
	table := NewTable("demo", "n", "messages")
	table.AddRow("8", "24.1 ± 1.2")
	table.AddRow("16", "48.9 ± 2.0")
	var b strings.Builder
	if err := table.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "## demo") || !strings.Contains(out, "messages") {
		t.Fatalf("render:\n%s", out)
	}
	// Title + header + divider + two data rows.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("expected 5 lines, got %d:\n%s", len(lines), out)
	}
}

func TestTableCSV(t *testing.T) {
	table := NewTable("", "a", "b")
	table.AddRow("1", "x,y")
	table.AddRow("2", `say "hi"`)
	var b strings.Builder
	if err := table.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,\"x,y\"\n2,\"say \"\"hi\"\"\"\n"
	if b.String() != want {
		t.Fatalf("csv = %q, want %q", b.String(), want)
	}
}

func TestTableShortRowsPadded(t *testing.T) {
	table := NewTable("", "a", "b", "c")
	table.AddRow("1")
	if len(table.Rows[0]) != 3 {
		t.Fatalf("row = %v", table.Rows[0])
	}
}

func TestPointsTable(t *testing.T) {
	s := Sweep{Name: "pt", Repetitions: 20, Seed: 5}
	pts, err := s.run([]float64{4, 8}, func(x float64, seed uint64) (map[string]float64, error) {
		return map[string]float64{"m": x * 10}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	table := PointsTable("exp", "n", pts)
	var b strings.Builder
	if err := table.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "40") || !strings.Contains(b.String(), "80") {
		t.Fatalf("table:\n%s", b.String())
	}
}
