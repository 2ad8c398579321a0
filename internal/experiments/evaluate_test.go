package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"abenet/internal/faults"
	"abenet/internal/harness"
	"abenet/internal/runner"
)

// The evaluator is tested on synthetic claims: rings of 4–8 nodes at three
// repetitions, so every test is milliseconds.

var testSizes = []float64{4, 8}

// testPart is two blocks of two arms with one column of every shape and a
// fit footer. The second block lists the protocols in the other order, so a
// column that indexed arms wrongly would render the same cell in both.
func testPart() part {
	abe, cr := runner.Election{}, runner.ChangRoberts{}
	return part{
		title: "T1: every column shape",
		reps:  3,
		blocks: []block{
			{"abe-first", []arm{sizeArm("t/abe", runner.Env{}, abe, testSizes), sizeArm("t/cr", runner.Env{}, cr, testSizes)}},
			{"cr-first", []arm{sizeArm("t/cr2", runner.Env{}, cr, testSizes), sizeArm("t/abe2", runner.Env{}, abe, testSizes)}},
		},
		cols: []col{
			colLabel("block"),
			colX("n"),
			colMean("arm 0", 0, "messages", "%.1f"),
			colMean("arm 1", 1, "messages", "%.2f"),
			colRatio("1 over 0", 1, 0, "messages"),
			colMeanCI("time", 0, "time"),
			colPerX("per node", 1, "messages"),
			colPercent("elected", 0, "elected"),
			colAll("held"),
		},
		footer: fitFooter("fit", "messages", "%.3f", 1, 0),
		judge: func(s *sweeps) (Findings, bool) {
			return Findings{"slope": s.fit(0, "messages").Slope, "last": float64(s.last())}, true
		},
	}
}

// measured runs an arm of testPart the way the evaluator must: a sweep named
// after the arm, at the part's repetitions, on the options' seed.
func measured(t *testing.T, a arm, seed uint64) []harness.Point {
	t.Helper()
	points, err := harness.Sweep{Name: a.name, Repetitions: 3, Seed: seed}.Run(a.xs, a.build, a.check)
	if err != nil {
		t.Fatal(err)
	}
	return points
}

func TestEvaluateRendersBlocksOuterPositionsInner(t *testing.T) {
	p := testPart()
	res, err := claim{id: "T1", text: "synthetic", parts: []part{p}}.evaluate(Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "T1" || res.Claim != "synthetic" || !res.Pass || len(res.Tables) != 1 {
		t.Fatalf("result = %+v", res)
	}
	table := res.Tables[0]
	wantHeaders := []string{"block", "n", "arm 0", "arm 1", "1 over 0", "time", "per node", "elected", "held"}
	if table.Title != p.title || !reflect.DeepEqual(table.Headers, wantHeaders) {
		t.Fatalf("title %q headers %q", table.Title, table.Headers)
	}

	var want [][]string
	for _, b := range p.blocks {
		arm0, arm1 := measured(t, b.arms[0], 7), measured(t, b.arms[1], 7)
		for i, x := range testSizes {
			m0, m1 := arm0[i].Mean("messages"), arm1[i].Mean("messages")
			want = append(want, []string{
				b.label,
				fmt.Sprintf("%g", x),
				fmt.Sprintf("%.1f", m0),
				fmt.Sprintf("%.2f", m1),
				fmt.Sprintf("%.1fx", m1/m0),
				fmt.Sprintf("%.1f ± %.1f", arm0[i].Mean("time"), arm0[i].Samples["time"].CI95()),
				fmt.Sprintf("%.2f", m1/x),
				"100%",
				"3/3",
			})
		}
	}
	// The footer fits the first block only, in the arm order it was given.
	first := p.blocks[0].arms
	fit := func(a arm) string {
		f, err := harness.GrowthExponent(measured(t, a, 7), "messages")
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%.3f", f.Slope)
	}
	want = append(want, []string{"fit", fit(first[1]), fit(first[0]), "", "", "", "", "", ""})
	if !reflect.DeepEqual(table.Rows, want) {
		t.Fatalf("rows:\n got %q\nwant %q", table.Rows, want)
	}
	if res.Findings["last"] != 1 || fmt.Sprintf("%.3f", res.Findings["slope"]) != fit(first[0]) {
		t.Fatalf("findings = %v", res.Findings)
	}
}

// fixedPart is a run part with a one-row table.
func fixedPart(title string, findings Findings, pass bool, ran *int) part {
	return part{run: func(Options) (*harness.Table, Findings, bool, error) {
		*ran++
		table := harness.NewTable(title, "k")
		table.AddRow("v")
		return table, findings, pass, nil
	}}
}

func TestEvaluateUnitesFindingsAndConjoinsPass(t *testing.T) {
	for _, tc := range []struct {
		first, second, want bool
	}{{true, true, true}, {true, false, false}, {false, true, false}} {
		ran := 0
		c := claim{id: "T2", parts: []part{
			fixedPart("a", Findings{"a": 1, "shared": 1}, tc.first, &ran),
			fixedPart("b", Findings{"b": 2, "shared": 2}, tc.second, &ran),
		}}
		res, err := c.evaluate(Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Pass != tc.want || ran != 2 {
			t.Errorf("%v ∧ %v: pass %v after %d parts", tc.first, tc.second, res.Pass, ran)
		}
		if want := (Findings{"a": 1, "b": 2, "shared": 2}); !reflect.DeepEqual(res.Findings, want) {
			t.Errorf("findings = %v, want %v", res.Findings, want)
		}
		if len(res.Tables) != 2 || res.Tables[0].Title != "a" || res.Tables[1].Title != "b" {
			t.Errorf("tables = %v", res.Tables)
		}
	}
}

func TestEvaluateStopsAtAPartThatStopped(t *testing.T) {
	ran := 0
	c := claim{id: "T3", parts: []part{
		fixedPart("kept", Findings{"seen": 1}, true, &ran),
		fixedPart("stopped", nil, false, &ran),
		fixedPart("never", Findings{"unseen": 1}, true, &ran),
	}}
	res, err := c.evaluate(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pass || ran != 2 {
		t.Fatalf("pass %v after %d parts, want a failure after 2", res.Pass, ran)
	}
	if len(res.Tables) != 2 || res.Tables[1].Title != "stopped" || len(res.Tables[1].Rows) != 1 {
		t.Fatalf("the stopped part's table is not kept: %v", res.Tables)
	}
	if want := (Findings{"seen": 1}); !reflect.DeepEqual(res.Findings, want) {
		t.Fatalf("findings = %v, want %v", res.Findings, want)
	}

	// Alone, as E2 is: its rows, no findings.
	res, err = claim{id: "T3", parts: []part{fixedPart("stopped", nil, false, &ran)}}.evaluate(Options{})
	if err != nil || res.Pass || len(res.Findings) != 0 || len(res.Tables) != 1 {
		t.Fatalf("result = %+v, %v", res, err)
	}
}

func TestEvaluateReturnsAPartsError(t *testing.T) {
	boom := errors.New("boom")
	ran := 0
	c := claim{id: "T4", parts: []part{
		{run: func(Options) (*harness.Table, Findings, bool, error) { return nil, nil, false, boom }},
		fixedPart("never", Findings{}, true, &ran),
	}}
	if _, err := c.evaluate(Options{}); !errors.Is(err, boom) || ran != 0 {
		t.Fatalf("err = %v after %d further parts", err, ran)
	}
}

func TestFailedCheckNamesSweepAndPosition(t *testing.T) {
	p := testPart()
	p.blocks[1].arms[1].name = "t/unlucky"
	p.blocks[1].arms[1].check = func(r runner.Report) error {
		if r.Messages > 0 {
			return errors.New("never good enough")
		}
		return nil
	}
	_, err := claim{id: "T5", parts: []part{p}}.evaluate(Options{Seed: 1})
	if err == nil {
		t.Fatal("a failing check did not fail the experiment")
	}
	for _, want := range []string{"t/unlucky", "x=4", "never good enough"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

func TestWorkerCountDoesNotChangeTheBytes(t *testing.T) {
	render := func(workers int) []byte {
		res, err := claim{id: "T6", parts: []part{testPart()}}.evaluate(Options{Seed: 3, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := res.Tables[0].Render(&b); err != nil {
			t.Fatal(err)
		}
		fmt.Fprint(&b, res.Findings, res.Pass)
		return b.Bytes()
	}
	if one, four := render(1), render(4); !bytes.Equal(one, four) {
		t.Fatalf("Workers: 1\n%s\nWorkers: 4\n%s", one, four)
	}
}

func TestMisspeltMetricFailsTheExperiment(t *testing.T) {
	inColumn := testPart()
	inColumn.cols[3] = colMean("arm 1", 1, "mesages", "%.2f")
	inJudge := testPart()
	inJudge.judge = func(s *sweeps) (Findings, bool) { return Findings{}, s.mean(0, 1, 0, "mesages") == 0 }
	inFit := testPart()
	inFit.footer = fitFooter("fit", "mesages", "%.3f", 1)
	for name, p := range map[string]part{"column": inColumn, "judge": inJudge, "fit": inFit} {
		_, err := claim{id: "T7", parts: []part{p}}.evaluate(Options{Seed: 1})
		if err == nil {
			t.Errorf("%s: \"mesages\" read as 0.0 instead of failing", name)
			continue
		}
		for _, want := range []string{"T7", `"t/cr"`, `"mesages"`} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not name %s", name, err, want)
			}
		}
	}

	// A metric that is spelt right and cannot be fitted is an error too.
	unfittable := testPart()
	unfittable.footer = fitFooter("fit", "violations", "%.3f", 0)
	_, err := claim{id: "T7", parts: []part{unfittable}}.evaluate(Options{Seed: 1})
	if err == nil || !strings.Contains(err.Error(), `"t/abe"`) || !strings.Contains(err.Error(), "positive") {
		t.Errorf("fit of an all-zero metric: err = %v", err)
	}
}

// A fault key exists only at positions where a plan was injected: there it
// is read, elsewhere it is zero, and neither is a misspelling.
func TestMetricAbsentAtSomePositionsReadsZero(t *testing.T) {
	p := part{
		title: "T8: sparse metric",
		reps:  2,
		blocks: []block{{arms: []arm{{
			name: "t/lossy", xs: []float64{0, 0.5},
			build: func(x float64) (runner.Env, runner.Protocol, error) {
				env := runner.Env{N: 6, Horizon: 200}
				if x > 0 {
					env.Faults = &faults.Plan{Loss: x}
				}
				return env, runner.Election{}, nil
			},
		}}}},
		cols:  []col{colX("loss"), colMean("dropped", 0, "fault_dropped", "%.1f")},
		judge: func(s *sweeps) (Findings, bool) { return Findings{}, s.mean(0, 0, 1, "fault_dropped") > 0 },
	}
	res, err := claim{id: "T8", parts: []part{p}}.evaluate(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Tables[0].Rows
	if !res.Pass || len(rows) != 2 || rows[0][1] != "0.0" || rows[1][1] == "0.0" {
		t.Fatalf("pass %v rows %q", res.Pass, rows)
	}
}
