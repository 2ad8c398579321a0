package experiments

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"abenet/internal/golden"
)

// renderSuite is what abe-bench prints for each experiment, minus what a
// clock decides: the claim, every table, the sorted findings line and the
// verdict, without the elapsed time. E16's rows carry wall-clock columns
// (and its full ladder climbs to 10⁶ nodes twice), so only a Quick run
// renders it, with those two columns blanked.
func renderSuite(t *testing.T, opt Options) string {
	t.Helper()
	var b strings.Builder
	for _, exp := range All() {
		if exp.ID == "E16" && !opt.Quick {
			continue
		}
		res, err := exp.Run(opt)
		if err != nil {
			t.Fatalf("%s: %v", exp.ID, err)
		}
		fmt.Fprintf(&b, "=== %s: %s\nclaim: %s\n\n", res.ID, exp.Name, res.Claim)
		for _, table := range res.Tables {
			if exp.ID == "E16" {
				for _, row := range table.Rows {
					row[5], row[6] = "-", "-"
				}
			}
			if err := table.Render(&b); err != nil {
				t.Fatal(err)
			}
			b.WriteByte('\n')
		}
		b.WriteString("findings:")
		for _, name := range slices.Sorted(maps.Keys(res.Findings)) {
			fmt.Fprintf(&b, " %s=%.4g", name, res.Findings[name])
		}
		status := "REPRODUCED"
		if !res.Pass {
			status = "NOT REPRODUCED"
		}
		fmt.Fprintf(&b, "\nstatus: %s\n\n", status)
	}
	return b.String()
}

// TestSuiteGolden holds every experiment's output at seed 1 against the
// bytes the suite printed before it became a claim table (the files were
// rendered by the sixteen hand-written functions this package replaced).
// A refactor diffs a file; an intended change reruns with -update and the
// golden diff is the review artefact.
func TestSuiteGolden(t *testing.T) {
	for _, tc := range []struct {
		file string
		opt  Options
	}{
		{"quick.golden", Options{Quick: true, Seed: 1}},
		{"full.golden", Options{Seed: 1}},
	} {
		t.Run(tc.file, func(t *testing.T) {
			if !tc.opt.Quick && testing.Short() {
				t.Skip("full configuration: ≈ 5 s")
			}
			golden.Check(t, tc.file, renderSuite(t, tc.opt))
		})
	}
}
