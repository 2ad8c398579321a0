package experiments

import (
	"fmt"
	"strings"
	"testing"
)

// quickOpts runs every experiment in its reduced configuration; the full
// configurations are exercised by cmd/abe-bench and the benchmarks.
func quickOpts() Options {
	return Options{Quick: true, Seed: 1}
}

func TestAllExperimentsPassQuick(t *testing.T) {
	for _, exp := range All() {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			res, err := exp.Run(quickOpts())
			if err != nil {
				t.Fatalf("%s: %v", exp.ID, err)
			}
			if res.ID != exp.ID {
				t.Fatalf("result ID %q for experiment %q", res.ID, exp.ID)
			}
			if res.Claim == "" {
				t.Fatal("empty claim")
			}
			if len(res.Tables) == 0 {
				t.Fatal("no tables")
			}
			for _, table := range res.Tables {
				if len(table.Rows) == 0 {
					t.Fatalf("empty table %q", table.Title)
				}
			}
			if !res.Pass {
				var b strings.Builder
				for _, table := range res.Tables {
					if err := table.Render(&b); err != nil {
						t.Fatal(err)
					}
				}
				t.Fatalf("%s did not reproduce its claim.\nfindings: %v\n%s", exp.ID, res.Findings, b.String())
			}
		})
	}
}

// TestSuiteIDsAreSequential: the ids are exactly E1…E<len(All())>, unique
// and in order, so a new experiment cannot be appended without its id and a
// deleted one cannot leave a hole the CLIs' "E1..E16" would paper over.
func TestSuiteIDsAreSequential(t *testing.T) {
	for i, exp := range All() {
		if want := fmt.Sprintf("E%d", i+1); exp.ID != want {
			t.Errorf("experiment %d has id %q, want %q", i, exp.ID, want)
		}
	}
}

func TestOptionsScaling(t *testing.T) {
	full := Options{}
	quick := Options{Quick: true}
	if full.reps(100) != 100 || quick.reps(100) != 10 {
		t.Fatal("reps scaling wrong")
	}
	if quick.reps(20) != 5 {
		t.Fatalf("quick floor = %d, want 5", quick.reps(20))
	}
	sizes := []float64{1, 2, 3, 4, 5, 6}
	if len(quick.sizes(sizes)) != 4 || len(full.sizes(sizes)) != 6 {
		t.Fatal("sizes scaling wrong")
	}
}
