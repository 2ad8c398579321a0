// Command abe-bench regenerates the paper's full experiment suite
// (E1..E16), printing each experiment's table and writing CSVs for
// plotting. Sweeping one protocol or one scenario file over network sizes
// is abe-elect's job (-sizes/-reps, or -spec with a sweep block).
//
// Usage:
//
//	abe-bench [-quick] [-seed N] [-only E3,E7] [-csv DIR] [-workers N]
package main

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"abenet/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "abe-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	quick := flag.Bool("quick", false, "use reduced sweeps and repetitions")
	seed := flag.Uint64("seed", 1, "base seed for all repetitions")
	only := flag.String("only", "", "comma-separated experiment ids to run (default: all)")
	csvDir := flag.String("csv", "", "directory to write per-experiment CSV files (optional)")
	workers := flag.Int("workers", 0, "sweep parallelism (0 = GOMAXPROCS); results are identical for any value")
	flag.Parse()

	suite, err := selectExperiments(*only)
	if err != nil {
		return err
	}

	opt := experiments.Options{Quick: *quick, Seed: *seed, Workers: *workers}
	failures := 0
	for _, exp := range suite {
		start := time.Now()
		res, err := exp.Run(opt)
		if err != nil {
			return fmt.Errorf("%s: %w", exp.ID, err)
		}
		fmt.Printf("=== %s: %s\n", res.ID, exp.Name)
		fmt.Printf("claim: %s\n\n", res.Claim)
		for _, table := range res.Tables {
			if err := table.Render(os.Stdout); err != nil {
				return err
			}
			fmt.Println()
		}
		fmt.Println(renderFindings(res.Findings))
		status := "REPRODUCED"
		if !res.Pass {
			status = "NOT REPRODUCED"
			failures++
		}
		fmt.Printf("status: %s (%.1fs)\n\n", status, time.Since(start).Seconds())

		if *csvDir != "" {
			if err := writeCSVs(*csvDir, res); err != nil {
				return err
			}
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d experiments did not reproduce their claims", failures)
	}
	return nil
}

// selectExperiments returns the experiments -only names, in suite order
// (the whole suite when only is empty). An id the suite does not have is an
// error: a value the run would not read is rejected, not dropped.
func selectExperiments(only string) ([]experiments.Experiment, error) {
	all := experiments.All()
	if only == "" {
		return all, nil
	}
	valid := make([]string, len(all))
	for i, exp := range all {
		valid[i] = exp.ID
	}
	selected := map[string]bool{}
	for _, id := range strings.Split(only, ",") {
		id = strings.ToUpper(strings.TrimSpace(id))
		if !slices.Contains(valid, id) {
			return nil, fmt.Errorf("-only names no experiment %q (valid: %s)", id, strings.Join(valid, ","))
		}
		selected[id] = true
	}
	var suite []experiments.Experiment
	for _, exp := range all {
		if selected[exp.ID] {
			suite = append(suite, exp)
		}
	}
	return suite, nil
}

// renderFindings is the "findings:" line: the headline numbers sorted by
// name, so two runs of one experiment print the same bytes.
func renderFindings(f experiments.Findings) string {
	var b strings.Builder
	b.WriteString("findings:")
	for _, name := range slices.Sorted(maps.Keys(f)) {
		fmt.Fprintf(&b, " %s=%.4g", name, f[name])
	}
	return b.String()
}

func writeCSVs(dir string, res experiments.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, table := range res.Tables {
		name := strings.ToLower(res.ID)
		if i > 0 {
			name = fmt.Sprintf("%s_part%d", name, i+1)
		}
		path := filepath.Join(dir, name+".csv")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := table.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
