package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "unit", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "decode", Start: 10, End: 20},
		{ID: 3, Parent: 1, Name: "run", Start: 20, End: 90},
		{ID: 4, Parent: 3, Name: "new", Start: 25, End: 45},
		{ID: 5, Parent: 3, Name: "exec", Start: 40, End: 80},  // overlaps "new" by 5
		{ID: 6, Parent: 1, Name: "late", Start: 95, End: 120}, // clipped to the parent's end
		{ID: 7, Parent: 0, Name: "other-root", Start: 0, End: 7},
	}
	want := map[int]int64{
		1: 100 - (10 + 70 + 5), // children cover [10,20], [20,90], [95,100]
		2: 10,
		3: 70 - 55, // children cover [25,80] once
		4: 20,
		5: 40,
		6: 25,
		7: 7,
	}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
	byName := selfByName(spans)
	if len(byName["run"]) != 1 || byName["run"][0] != 15e-9 {
		t.Errorf(`selfByName["run"] = %v, want [1.5e-08]`, byName["run"])
	}
}

func TestRecorderAndTraceFile(t *testing.T) {
	var none *recorder
	if id := none.begin("x", 0, 0); id != 0 {
		t.Fatalf("nil recorder returned span id %d", id)
	}
	none.end(0) // must not panic

	rec := newRecorder()
	root := rec.begin("unit", 0, 3)
	child := rec.begin("spec.decode", root, 3)
	rec.end(child)
	rec.end(root)
	if len(rec.spans) != 2 || rec.spans[1].Parent != root || rec.spans[1].Unit != 3 {
		t.Fatalf("unexpected spans %+v", rec.spans)
	}
	if rec.spans[0].End < rec.spans[1].End || rec.spans[1].Start < rec.spans[0].Start {
		t.Fatalf("child not nested in parent: %+v", rec.spans)
	}

	dir := t.TempDir()
	if err := writeTrace(dir, "w", 9, rec.spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "trace-w.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	if tf.Workload != "w" || tf.Seed != 9 || len(tf.Spans) != 2 || tf.Spans[1].Name != "spec.decode" {
		t.Fatalf("trace file round trip: %+v", tf)
	}
}
