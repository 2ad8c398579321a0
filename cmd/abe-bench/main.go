// Command abe-bench regenerates the paper's full experiment suite
// (E1..E16, DESIGN.md §5), printing each experiment's table and writing
// CSVs for plotting. EXPERIMENTS.md records a full run's output. Sweeping
// one protocol or one scenario file over network sizes is abe-elect's job
// (-sizes/-reps, or -spec with a sweep block).
//
// Usage:
//
//	abe-bench [-quick] [-seed N] [-only E3,E7] [-csv DIR] [-workers N]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
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

	selected := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			selected[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}

	opt := experiments.Options{Quick: *quick, Seed: *seed, Workers: *workers}
	failures := 0
	for _, exp := range experiments.All() {
		if len(selected) > 0 && !selected[exp.ID] {
			continue
		}
		start := time.Now()
		res, err := exp.Run(opt)
		if err != nil {
			return fmt.Errorf("%s: %w", exp.ID, err)
		}
		fmt.Printf("=== %s: %s\n", res.ID, exp.Name)
		fmt.Printf("claim: %s\n\n", res.Claim)
		for _, table := range res.Tables() {
			if err := table.Render(os.Stdout); err != nil {
				return err
			}
			fmt.Println()
		}
		fmt.Printf("findings:")
		for name, v := range res.Findings {
			fmt.Printf(" %s=%.4g", name, v)
		}
		status := "REPRODUCED"
		if !res.Pass {
			status = "NOT REPRODUCED"
			failures++
		}
		fmt.Printf("\nstatus: %s (%.1fs)\n\n", status, time.Since(start).Seconds())

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

func writeCSVs(dir string, res experiments.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, table := range res.Tables() {
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
