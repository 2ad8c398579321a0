package main

import (
	"fmt"
	"strings"
	"testing"
)

// bench renders one `go test -bench` result line.
func bench(name string, ns float64) string {
	return fmt.Sprintf("%s \t      10\t %12.0f ns/op\t    1024 B/op\t       3 allocs/op", name, ns)
}

// rounds renders alternating rounds of the probe pair: odd rounds run the
// baseline first and even rounds the observed leg, as the CI gates do. Each
// pair is (baseline ns/op, observed ns/op); suffix is the GOMAXPROCS suffix.
func rounds(suffix string, pairs ...[2]float64) string {
	var b strings.Builder
	for i, p := range pairs {
		legs := []string{bench("BenchmarkProbeDetached"+suffix, p[0]), bench("BenchmarkProbeAttached"+suffix, p[1])}
		if i%2 == 1 {
			legs[0], legs[1] = legs[1], legs[0]
		}
		fmt.Fprintf(&b, "goos: linux\n%s\n%s\nPASS\n", legs[0], legs[1])
	}
	return b.String()
}

func TestCompare(t *testing.T) {
	for _, tc := range []struct {
		name, input string
		want        []string // the last lines compare writes
		err         string   // substring of the error, or "" for none
	}{{
		name:  "alternating leg order still pairs the i-th runs",
		input: rounds("-2", [2]float64{100, 101}, [2]float64{200, 204}, [2]float64{300, 309}),
		want: []string{
			"obscompare: round 1: BenchmarkProbeDetached 100 ns/op, BenchmarkProbeAttached 101 ns/op, ratio 1.010",
			"obscompare: round 2: BenchmarkProbeDetached 200 ns/op, BenchmarkProbeAttached 204 ns/op, ratio 1.020",
			"obscompare: round 3: BenchmarkProbeDetached 300 ns/op, BenchmarkProbeAttached 309 ns/op, ratio 1.030",
			"obscompare: median of 3 per-round ratios 1.020, overhead +2.00% (limit 5%)",
		},
	}, {
		name:  "names without a GOMAXPROCS suffix",
		input: rounds("", [2]float64{100, 90}, [2]float64{100, 110}),
		want: []string{
			"obscompare: round 1: BenchmarkProbeDetached 100 ns/op, BenchmarkProbeAttached 90 ns/op, ratio 0.900",
			"obscompare: round 2: BenchmarkProbeDetached 100 ns/op, BenchmarkProbeAttached 110 ns/op, ratio 1.100",
			"obscompare: median of 2 per-round ratios 1.000, overhead +0.00% (limit 5%)",
		},
	}, {
		name:  "a dash in a name without the suffix is kept",
		input: rounds("", [2]float64{100, 101}) + bench("BenchmarkProbeDetached-x", 1) + "\n",
		want:  []string{"obscompare: median of 1 per-round ratios 1.010, overhead +1.00% (limit 5%)"},
	}, {
		name:  "median of an odd round count is the middle ratio",
		input: rounds("-4", [2]float64{100, 100}, [2]float64{100, 150}, [2]float64{100, 104}, [2]float64{100, 90}, [2]float64{100, 106}),
		want:  []string{"obscompare: median of 5 per-round ratios 1.040, overhead +4.00% (limit 5%)"},
	}, {
		name:  "median of an even round count is the mean of the middle two",
		input: rounds("-4", [2]float64{100, 104}, [2]float64{100, 200}, [2]float64{100, 108}, [2]float64{100, 50}),
		want:  []string{"obscompare: median of 4 per-round ratios 1.060, overhead +6.00% (limit 5%)"},
		err:   "overhead 6.00% exceeds the 5% budget",
	}, {
		name:  "unequal counts fail",
		input: rounds("-2", [2]float64{100, 101}) + bench("BenchmarkProbeDetached-2", 100) + "\n",
		err:   "2 runs of BenchmarkProbeDetached and 1 of BenchmarkProbeAttached",
	}, {
		name:  "no baseline run fails",
		input: bench("BenchmarkProbeAttached-2", 100) + "\n",
		err:   "0 runs of BenchmarkProbeDetached and 1 of BenchmarkProbeAttached",
	}, {
		name:  "a zero baseline ns/op fails",
		input: rounds("-2", [2]float64{100, 101}, [2]float64{0, 101}),
		want:  []string{"obscompare: round 1: BenchmarkProbeDetached 100 ns/op, BenchmarkProbeAttached 101 ns/op, ratio 1.010"},
		err:   "round 2: BenchmarkProbeDetached read 0 ns/op",
	}} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			err := compare(strings.NewReader(tc.input), &out, "BenchmarkProbeDetached", "BenchmarkProbeAttached", 0.05)
			switch {
			case tc.err == "" && err != nil:
				t.Fatalf("unexpected error: %v", err)
			case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
				t.Fatalf("error %v, want one containing %q", err, tc.err)
			}
			got, ok := strings.CutPrefix(out.String(), tc.input)
			if !ok {
				t.Fatalf("the input is not copied through first:\n%s", out.String())
			}
			if want := strings.Join(tc.want, "\n"); !strings.HasSuffix(strings.TrimSuffix(got, "\n"), want) {
				t.Errorf("got\n%s\nwant\n%s", got, want)
			}
		})
	}
}
