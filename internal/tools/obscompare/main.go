// Command obscompare gates a hook's overhead in CI. It reads `go test -bench`
// output on stdin in which a baseline and an observed benchmark ran in
// alternating rounds, pairs the i-th baseline ns/op with the i-th observed
// one, and exits non-zero if the median of the per-round ratios
// observed/baseline exceeds 1 + -max-overhead.
//
// A round is one run of each leg back to back, so drift of the host — a
// neighbour's load, frequency scaling — lands inside a round and divides out
// of its ratio instead of landing between the legs. Best-of-N over blocks of
// repetitions read +8…+22 % on unchanged code on a loaded 2-core host; the
// median of alternating ratios does not depend on which block the host
// slowed down in. The leg that runs second in a round reads about 3 % faster
// on such a host, so the rounds alternate which leg runs first, and the i-th
// baseline still pairs with the i-th observed run.
//
// Usage, with one -count 1 run per leg per round:
//
//	go test -c -o runner.test ./internal/runner
//	for round in $(seq 10); do
//	    legs="Detached Attached"
//	    if [ $((round % 2)) -eq 0 ]; then legs="Attached Detached"; fi
//	    for leg in $legs; do
//	        ./runner.test -test.run '^$' -test.bench "^BenchmarkProbe$leg\$" -test.benchtime 10x -test.count 1
//	    done
//	done | go run ./internal/tools/obscompare \
//	    -baseline BenchmarkProbeDetached -observed BenchmarkProbeAttached -max-overhead 0.05
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
)

func main() {
	baseline := flag.String("baseline", "BenchmarkProbeDetached", "baseline benchmark name")
	observed := flag.String("observed", "BenchmarkProbeAttached", "observed benchmark name")
	maxOverhead := flag.Float64("max-overhead", 0.05, "maximum tolerated median observed/baseline ratio, minus 1")
	flag.Parse()

	if err := compare(os.Stdin, os.Stdout, *baseline, *observed, *maxOverhead); err != nil {
		fmt.Fprintf(os.Stderr, "obscompare: %v\n", err)
		os.Exit(1)
	}
}

// compare reads `go test -bench` output from r and copies it to w. It pairs
// the i-th baseline ns/op with the i-th observed one, writes each round's
// ratio and their median to w, and returns an error if the runs do not pair
// or the median overhead exceeds maxOverhead.
func compare(r io.Reader, w io.Writer, baseline, observed string, maxOverhead float64) error {
	runs := map[string][]float64{} // ns/op per benchmark, in the order they ran
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for scanner.Scan() {
		line := scanner.Text()
		fmt.Fprintln(w, line) // pass the raw output through for the CI log
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i] // the -GOMAXPROCS suffix
			}
		}
		for i := 2; i+1 < len(fields); i += 2 {
			if fields[i+1] != "ns/op" {
				continue
			}
			if v, err := strconv.ParseFloat(fields[i], 64); err == nil {
				runs[name] = append(runs[name], v)
			}
		}
	}
	if err := scanner.Err(); err != nil {
		return err
	}

	base, obs := runs[baseline], runs[observed]
	if len(base) == 0 || len(base) != len(obs) {
		return fmt.Errorf("%d runs of %s and %d of %s: want the same positive number, one of each per round",
			len(base), baseline, len(obs), observed)
	}
	ratios := make([]float64, len(base))
	for i := range base {
		if base[i] <= 0 {
			return fmt.Errorf("round %d: %s read %g ns/op", i+1, baseline, base[i])
		}
		ratios[i] = obs[i] / base[i]
		fmt.Fprintf(w, "obscompare: round %d: %s %.0f ns/op, %s %.0f ns/op, ratio %.3f\n",
			i+1, baseline, base[i], observed, obs[i], ratios[i])
	}
	overhead := median(ratios) - 1
	fmt.Fprintf(w, "obscompare: median of %d per-round ratios %.3f, overhead %+.2f%% (limit %.0f%%)\n",
		len(ratios), overhead+1, overhead*100, maxOverhead*100)
	if overhead > maxOverhead {
		return fmt.Errorf("overhead %.2f%% exceeds the %.0f%% budget", overhead*100, maxOverhead*100)
	}
	return nil
}

// median returns the median of xs, which must be non-empty.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
