// Command abe-bench regenerates the paper's full experiment suite
// (E1..E16, DESIGN.md §5), printing each experiment's table and writing
// CSVs for plotting. EXPERIMENTS.md records a full run's output.
//
// With -proto it instead sweeps any registry protocol over network sizes
// through the unified Env/Protocol API — the generic (protocol × env)
// door that needs no per-protocol code here at all. With -spec it runs a
// declarative scenario file's sweep block (the internal/spec JSON schema),
// through the same harness path abe-serve uses.
//
// Usage:
//
//	abe-bench [-quick] [-seed N] [-only E3,E7] [-csv DIR] [-workers N]
//	abe-bench -proto chang-roberts [-sizes 8,16,32,64] [-reps 50] [-seed N]
//	abe-bench -spec scenario.json [-seed N] [-workers N]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"abenet"
	"abenet/internal/experiments"
	"abenet/internal/harness"
	"abenet/internal/spec"
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
	scheduler := flag.String("scheduler", "", "kernel event scheduler for -proto/-spec sweeps: heap or calendar (default heap; results are byte-identical either way)")
	only := flag.String("only", "", "comma-separated experiment ids to run (default: all)")
	csvDir := flag.String("csv", "", "directory to write per-experiment CSV files (optional)")
	proto := flag.String("proto", "", "sweep this registry protocol by name instead of the experiment suite")
	sizes := flag.String("sizes", "8,16,32,64", "network sizes for the -proto sweep")
	reps := flag.Int("reps", 50, "repetitions per size for the -proto sweep")
	workers := flag.Int("workers", 0, "sweep parallelism (0 = GOMAXPROCS); results are identical for any value")
	specPath := flag.String("spec", "", "run this scenario file's sweep block instead of the experiment suite")
	flag.Parse()

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	if *specPath != "" {
		// The spec states the scenario; flags that would fight it are
		// rejected rather than silently losing. -seed overrides the run,
		// -workers the parallelism.
		var clash []string
		for _, name := range []string{"proto", "quick", "only", "csv", "sizes", "reps"} {
			if set[name] {
				clash = append(clash, "-"+name)
			}
		}
		if len(clash) > 0 {
			sort.Strings(clash)
			return fmt.Errorf("-spec states the scenario; drop %v (only -seed, -scheduler and -workers combine with it)", clash)
		}
		var seedOverride *uint64
		if set["seed"] {
			seedOverride = seed
		}
		// The scheduler, like the seed, is not part of the scenario
		// identity (results are byte-identical across schedulers), so the
		// flag composes with a spec file as an override.
		var schedOverride *string
		if set["scheduler"] {
			schedOverride = scheduler
		}
		return specSweep(*specPath, *workers, seedOverride, schedOverride)
	}
	if *proto != "" {
		return protocolSweep(*proto, *sizes, *reps, *seed, *scheduler, *workers)
	}

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

// specSweep runs a scenario file's sweep block and renders the table —
// the CLI face of the same (spec → harness.Sweep) path abe-serve runs, so
// the numbers match a POST /v1/runs of the same file byte for byte.
func specSweep(path string, workers int, seedOverride *uint64, schedOverride *string) error {
	s, err := spec.DecodeFile(path)
	if err != nil {
		return err
	}
	if s.Sweep == nil {
		return fmt.Errorf("%s has no sweep block; run it with abe-elect -spec", path)
	}
	if seedOverride != nil {
		s.Env.Seed = *seedOverride
	}
	if schedOverride != nil {
		s.Env.Scheduler = *schedOverride
	}
	hash, err := s.Hash()
	if err != nil {
		return err
	}
	points, err := s.RunSweep(workers)
	if err != nil {
		return err
	}
	// The table honours the spec's metrics filter (same view as abe-elect
	// -spec and abe-serve); the growth fit reads the unfiltered points so
	// it works even when "messages" is not among the kept columns.
	reps := s.Sweep.Repetitions
	if reps == 0 {
		reps = harness.DefaultRepetitions
	}
	table := abenet.PointsTable(fmt.Sprintf("%s over %d seeds per size (spec %s)",
		s.Protocol.Name, reps, hash[:12]), "n",
		spec.FilterPoints(points, s.Sweep.Metrics))
	if err := table.Render(os.Stdout); err != nil {
		return err
	}
	if fit, err := abenet.GrowthExponent(points, "messages"); err == nil {
		fmt.Printf("\nmessage growth exponent: %.3f (R²=%.4f)\n", fit.Slope, fit.R2)
	}
	return nil
}

// protocolSweep runs any registered protocol over the given sizes through
// the unified API and renders the aggregated points.
func protocolSweep(name, sizeList string, reps int, seed uint64, scheduler string, workers int) error {
	var xs []float64
	for _, f := range strings.Split(sizeList, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return fmt.Errorf("bad size %q: %w", f, err)
		}
		xs = append(xs, float64(v))
	}
	sweep := abenet.Sweep{Name: "abe-bench/" + name, Repetitions: reps, Seed: seed, Workers: workers}
	points, err := sweep.RunProtocol(name, abenet.Env{Scheduler: scheduler}, xs, nil)
	if err != nil {
		return err
	}
	table := abenet.PointsTable(fmt.Sprintf("%s over %d seeds per size", name, reps), "n", points)
	if err := table.Render(os.Stdout); err != nil {
		return err
	}
	if fit, err := abenet.GrowthExponent(points, "messages"); err == nil {
		fmt.Printf("\nmessage growth exponent: %.3f (R²=%.4f)\n", fit.Slope, fit.R2)
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
