package main

import (
	"strings"
	"testing"

	"abenet/internal/experiments"
)

func TestSelectExperiments(t *testing.T) {
	all, err := selectExperiments("")
	if err != nil || len(all) != len(experiments.All()) {
		t.Fatalf("empty -only selected %d experiments, %v; want the whole suite", len(all), err)
	}
	got, err := selectExperiments(" e7,E3 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != "E3" || got[1].ID != "E7" {
		t.Fatalf("selected %+v, want E3 then E7 (suite order)", got)
	}
	for _, only := range []string{"E99", "E3,E99", "E3,,E7", "3"} {
		_, err := selectExperiments(only)
		if err == nil {
			t.Errorf("-only %q accepted", only)
			continue
		}
		if !strings.Contains(err.Error(), "E1,E2,") {
			t.Errorf("-only %q: error %q does not list the valid ids", only, err)
		}
	}
}

func TestRenderFindingsIsSorted(t *testing.T) {
	f := experiments.Findings{"zeta": 3, "alpha": 0.123456, "mid": 1e6, "beta": 2}
	const want = "findings: alpha=0.1235 beta=2 mid=1e+06 zeta=3"
	for i := 0; i < 20; i++ {
		if got := renderFindings(f); got != want {
			t.Fatalf("renderFindings = %q, want %q", got, want)
		}
	}
}
