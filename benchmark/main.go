// Command benchmark is the repository's one performance instrument. It runs
// four fixed workloads — three simulator batches driven spec-in→report-out
// and one submit→done serving mix — checks their outputs, and prints every
// metric BENCHMARK.json declares, by name and with its unit, as JSON.
//
//	go run ./benchmark --workload ring-dense-1k --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the end-to-end metrics are measured with tracing off; with
// --trace 1 a second, traced pass times calls into each layer's public
// functions from this package's own files and reports the per-layer
// metrics. Without --workload every workload runs in turn, one result line
// each. README.md in this directory is the glossary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
)

func main() {
	workload := flag.String("workload", "all", `workload to run: one of the four names, or "all"`)
	seed := flag.Uint64("seed", 1, "workload seed: unit seeds and the serve-mixed request plan derive from it")
	seconds := flag.Float64("seconds", 20, "seconds each workload measures for (set-up excluded)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass")
	out := flag.String("out", ".bench_out", "directory the traced pass writes trace-<workload>.json to")
	selfcheck := flag.Bool("selfcheck", false, "run the untraced pass twice and compare the two against the declared bounds")
	pin := flag.Bool("pin", false, "regenerate benchmark/expected.json (the seed-1 digests) and exit")
	flag.Parse()

	names := workloadNames
	if *workload != "all" {
		if !slices.Contains(workloadNames, *workload) {
			fatal(fmt.Errorf("unknown workload %q (have %v)", *workload, workloadNames))
		}
		names = []string{*workload}
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fatal(fmt.Errorf("need --seconds > 0, --trace 0 or 1, and no positional arguments"))
	}

	switch {
	case *pin:
		if err := writePins("benchmark/expected.json"); err != nil {
			fatal(err)
		}
	case *selfcheck:
		if !selfCheck(names, *seed, *seconds) {
			os.Exit(1)
		}
	default:
		ok := true
		for _, name := range names {
			res, err := runWorkload(name, *seed, *seconds, *trace == 1, *out)
			if err != nil {
				fatal(err)
			}
			ok = ok && res.Correct
			printResult(name, res, len(names) > 1)
		}
		if !ok {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runWorkload runs one workload's untraced or traced pass.
func runWorkload(name string, seed uint64, seconds float64, traced bool, outDir string) (result, error) {
	if w, ok := simWorkloadByName(name); ok {
		if traced {
			return runSimTraced(w, seed, seconds, outDir)
		}
		return runSimUntraced(w, seed, seconds)
	}
	if traced {
		return runServeTraced(seed, seconds, outDir)
	}
	return runServeUntraced(seed, seconds)
}

// printResult writes one result object as one line of standard output. A
// single-workload run prints exactly the keys correct, attempted, failed
// and metrics; a multi-workload run adds the workload's name to each line.
func printResult(name string, res result, labelled bool) {
	var line []byte
	var err error
	if labelled {
		line, err = json.Marshal(struct {
			Workload string `json:"workload"`
			result
		}{name, res})
	} else {
		line, err = json.Marshal(res)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// selfCheck runs each workload's untraced pass twice at the same seed and
// prints, per (metric, workload), both values, their relative difference
// and the declared bound. It reports whether every difference stayed
// within its bound and every output was correct.
func selfCheck(names []string, seed uint64, seconds float64) bool {
	ok := true
	fmt.Printf("%-18s %-20s %14s %14s %8s %6s\n", "workload", "metric", "run 1", "run 2", "diff", "bound")
	for _, name := range names {
		var runs [2]result
		for i := range runs {
			res, err := runWorkload(name, seed, seconds, false, "")
			if err != nil {
				fatal(err)
			}
			runs[i] = res
			ok = ok && res.Correct
		}
		for _, d := range endToEnd {
			a, b := runs[0].Metrics[d.Name].Value, runs[1].Metrics[d.Name].Value
			diff := relDiff(a, b)
			verdict := ""
			if diff > d.Bound {
				verdict, ok = "  EXCEEDS", false
			}
			fmt.Printf("%-18s %-20s %14.6g %14.6g %7.1f%% %5.0f%%%s\n", name, d.Name, a, b, diff*100, d.Bound*100, verdict)
		}
		fmt.Printf("%-18s %-20s %14d %14d\n", name, "failed", runs[0].Failed, runs[1].Failed)
	}
	return ok
}

// writePins runs the first pinnedUnits units of every simulator workload at
// pinSeed and writes their digests to path.
func writePins(path string) error {
	pins := expected{}
	for _, w := range simWorkloads {
		for i := 0; i < pinnedUnits; i++ {
			rep, err := runUnit(w.specBytes(unitSeed(pinSeed, i), ""), nil, 0, 0)
			if err != nil {
				return fmt.Errorf("%s unit %d: %w", w.name, i, err)
			}
			if err := w.checkInvariants(rep); err != nil {
				return fmt.Errorf("%s unit %d: %w", w.name, i, err)
			}
			pins[w.name] = append(pins[w.name], digestOf(rep))
		}
	}
	data, err := json.MarshalIndent(pins, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
