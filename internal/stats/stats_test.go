package stats

import (
	"math"
	"testing"
	"testing/quick"

	"abenet/internal/rng"
)

func TestSampleMoments(t *testing.T) {
	var s Sample
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if got := s.Mean(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("mean = %v", got)
	}
	// Unbiased variance of this classic dataset is 32/7.
	if got, want := s.Variance(), 32.0/7.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("variance = %v, want %v", got, want)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
}

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Variance() != 0 || s.StdErr() != 0 || s.CI95() != 0 {
		t.Fatal("empty sample must report zeros")
	}
}

func TestSampleSingle(t *testing.T) {
	var s Sample
	s.Add(3)
	if s.Mean() != 3 || s.Variance() != 0 {
		t.Fatalf("single-value sample: mean %v var %v", s.Mean(), s.Variance())
	}
}

func TestCI95ShrinksWithN(t *testing.T) {
	r := rng.New(2)
	var small, large Sample
	for i := 0; i < 100; i++ {
		small.Add(r.NormFloat64())
	}
	for i := 0; i < 10000; i++ {
		large.Add(r.NormFloat64())
	}
	if large.CI95() >= small.CI95() {
		t.Fatalf("CI95 did not shrink: %v vs %v", large.CI95(), small.CI95())
	}
}

func TestFitLineExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{5, 7, 9, 11} // y = 2x + 3
	fit, err := FitLine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-2) > 1e-12 || math.Abs(fit.Intercept-3) > 1e-12 {
		t.Fatalf("fit = %+v", fit)
	}
	if math.Abs(fit.R2-1) > 1e-12 {
		t.Fatalf("R2 = %v, want 1", fit.R2)
	}
}

func TestFitLineNoisy(t *testing.T) {
	r := rng.New(3)
	var xs, ys []float64
	for i := 0; i < 500; i++ {
		x := float64(i)
		xs = append(xs, x)
		ys = append(ys, 1.5*x+10+r.NormFloat64()*5)
	}
	fit, err := FitLine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-1.5) > 0.05 {
		t.Fatalf("slope = %v, want about 1.5", fit.Slope)
	}
	if fit.R2 < 0.99 {
		t.Fatalf("R2 = %v", fit.R2)
	}
}

func TestFitLineErrors(t *testing.T) {
	if _, err := FitLine([]float64{1}, []float64{1}); err == nil {
		t.Fatal("single point accepted")
	}
	if _, err := FitLine([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := FitLine([]float64{2, 2}, []float64{1, 5}); err == nil {
		t.Fatal("vertical data accepted")
	}
}

func TestGrowthExponentLinearData(t *testing.T) {
	var xs, ys []float64
	for _, n := range []float64{8, 16, 32, 64, 128} {
		xs = append(xs, n)
		ys = append(ys, 3.7*n)
	}
	fit, err := GrowthExponent(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-1) > 1e-9 {
		t.Fatalf("exponent = %v, want 1", fit.Slope)
	}
}

func TestGrowthExponentQuadraticData(t *testing.T) {
	var xs, ys []float64
	for _, n := range []float64{8, 16, 32, 64, 128} {
		xs = append(xs, n)
		ys = append(ys, 0.5*n*n)
	}
	fit, err := GrowthExponent(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-2) > 1e-9 {
		t.Fatalf("exponent = %v, want 2", fit.Slope)
	}
}

func TestGrowthExponentNLogNDistinguishable(t *testing.T) {
	// n log n data over a decade should land visibly above exponent 1.
	var xs, ys []float64
	for _, n := range []float64{16, 32, 64, 128, 256, 512} {
		xs = append(xs, n)
		ys = append(ys, n*math.Log(n))
	}
	fit, err := GrowthExponent(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if fit.Slope < 1.1 || fit.Slope > 1.5 {
		t.Fatalf("n log n exponent = %v, expected in (1.1, 1.5)", fit.Slope)
	}
}

func TestGrowthExponentRejectsNonPositive(t *testing.T) {
	if _, err := GrowthExponent([]float64{1, 0}, []float64{1, 2}); err == nil {
		t.Fatal("zero x accepted")
	}
	if _, err := GrowthExponent([]float64{1, 2}, []float64{1, -2}); err == nil {
		t.Fatal("negative y accepted")
	}
}

func TestQuantile(t *testing.T) {
	values := []float64{5, 1, 3, 2, 4}
	for q, want := range map[float64]float64{0: 1, 0.25: 2, 0.5: 3, 0.75: 4, 1: 5} {
		got, err := Quantile(values, q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("Quantile(%v) = %v, want %v", q, got, want)
		}
	}
	// Input must be untouched.
	if values[0] != 5 {
		t.Fatal("Quantile mutated input")
	}
}

func TestQuantileInterpolates(t *testing.T) {
	got, err := Quantile([]float64{0, 10}, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("interpolated quantile = %v, want 2.5", got)
	}
}

func TestQuantileErrors(t *testing.T) {
	if _, err := Quantile(nil, 0.5); err == nil {
		t.Fatal("empty data accepted")
	}
	if _, err := Quantile([]float64{1}, 1.5); err == nil {
		t.Fatal("q > 1 accepted")
	}
}

func TestSampleMeanMatchesDirectComputationProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(200)
		var s Sample
		sum := 0.0
		for i := 0; i < n; i++ {
			v := r.Float64()*100 - 50
			s.Add(v)
			sum += v
		}
		return math.Abs(s.Mean()-sum/float64(n)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
