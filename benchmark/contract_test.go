package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"slices"
	"testing"
)

// benchmarkJSON is the shape of the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// BENCHMARK.json and the program's own metric tables must say the same
// thing, within the declared limits.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	wantKeys := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}
	gotKeys := make([]string, 0, len(keys))
	for k := range keys {
		gotKeys = append(gotKeys, k)
	}
	slices.Sort(gotKeys)
	if !slices.Equal(gotKeys, wantKeys) {
		t.Fatalf("BENCHMARK.json keys %v, want %v", gotKeys, wantKeys)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}

	if len(b.Workloads) < 2 || len(b.Workloads) > 8 || len(b.EndToEnd) < 1 || len(b.EndToEnd) > 16 ||
		len(b.PerLayer) < 1 || len(b.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer metrics: outside 2–8 / 1–16 / 1–128",
			len(b.Workloads), len(b.EndToEnd), len(b.PerLayer))
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1–60", b.RunSeconds)
	}
	if !slices.Equal(b.Paths, []string{"benchmark"}) {
		t.Errorf("paths %v, want [benchmark]", b.Paths)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	used := map[string]bool{}
	checkName := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if used[name] {
			t.Errorf("name %q is used twice", name)
		}
		used[name] = true
	}
	var names []string
	for _, w := range b.Workloads {
		checkName(w.Name)
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("workloads %v, the program runs %v", names, workloadNames)
	}
	for _, w := range simWorkloads {
		if !slices.Contains(workloadNames, w.name) {
			t.Errorf("simulator workload %s is not a declared workload", w.name)
		}
	}
	for _, d := range append(slices.Clone(b.EndToEnd), b.PerLayer...) {
		checkName(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q does not match %s", d.Name, d.Unit, unitRE)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better %q", d.Name, d.Better)
		}
	}
	hasSetup := false
	for _, d := range b.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s (s, lower)")
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the program's table:\n json %+v\n code %+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the program's table:\n json %+v\n code %+v", b.PerLayer, perLayer)
	}
}

// attach is what makes the command print exactly the declared names.
func TestAttachEnforcesTheDeclaredSet(t *testing.T) {
	full := map[string]float64{}
	for _, d := range endToEnd {
		full[d.Name] = 1
	}
	m, err := attach(endToEnd, full, true)
	if err != nil || len(m) != len(endToEnd) || m["setup_s"].Unit != "s" {
		t.Fatalf("attach(full) = %v, %v", m, err)
	}
	delete(full, "setup_s")
	if _, err := attach(endToEnd, full, true); err == nil {
		t.Error("a missing end-to-end metric was accepted")
	}
	if _, err := attach(perLayer, map[string]float64{"no.such_metric": 1}, false); err == nil {
		t.Error("an undeclared metric was accepted")
	}
	m, err = attach(perLayer, map[string]float64{"sim.hold_ns.heap": 7}, false)
	if err != nil || len(m) != len(perLayer) || m["sim.hold_ns.heap"].Value != 7 || m["store.disk_put_us"].Value != 0 {
		t.Errorf("attach(per-layer subset) = %v, %v", m, err)
	}
}

// Small versions of the workloads go through the real passes: the result
// carries every declared end-to-end metric, non-zero, and no failure.
func TestPassesEmitEveryEndToEndMetric(t *testing.T) {
	t.Chdir(t.TempDir()) // serve-mixed keeps its store under ./.bench_tmp
	check := func(name string, res result, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, want %d", name, len(res.Metrics), len(endToEnd))
		}
		for _, d := range endToEnd {
			if v, ok := res.Metrics[d.Name]; !ok || v.Value <= 0 || v.Unit != d.Unit {
				t.Errorf("%s: metric %s = %+v", name, d.Name, v)
			}
		}
	}
	ring := simWorkload{name: "tiny-ring", protocol: "election", n: 64}
	res, err := runSimUntraced(ring, 2, 0.05)
	check(ring.name, res, err)
	benor := simWorkload{name: "tiny-benor", protocol: "ben-or", n: 8, complete: true, maxRounds: 5}
	res, err = runSimUntraced(benor, 2, 0.05)
	check(benor.name, res, err)
	res, err = runServeUntraced(2, 0.3)
	check("serve-mixed", res, err)
}

// The pinned digests cover every simulator workload and hold for the
// warm-up unit of the cheapest one (every run of the benchmark itself checks
// the rest; a unit costs up to half a second).
func TestExpectedPins(t *testing.T) {
	pins, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range simWorkloads {
		if len(pins[w.name]) != pinnedUnits {
			t.Errorf("%s: %d pinned units, want %d", w.name, len(pins[w.name]), pinnedUnits)
		}
	}
	w, _ := simWorkloadByName("ring-dense-1k")
	bad := pins[w.name][0]
	bad.Events++
	rep, err := runUnit(w.specBytes(unitSeed(pinSeed, 0), ""), nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.checkUnit(pins, pinSeed, 0, rep); err != nil {
		t.Errorf("pinned unit rejected: %v", err)
	}
	if err := w.checkUnit(expected{w.name: {bad}}, pinSeed, 0, rep); err == nil {
		t.Error("a digest one event off was accepted")
	}
	if err := w.checkUnit(expected{w.name: {bad}}, pinSeed+1, 0, rep); err != nil {
		t.Errorf("pins applied at an unpinned seed: %v", err)
	}
}
