// Package golden is how a test pins what a run renders: the recorded values
// live in a testdata/*.golden file as readable lines — the rendered content
// itself, not a digest of it — so a behaviour change shows up as a line diff
// that says what moved. It is test support, imported only by _test.go files.
//
// Check compares a rendering with its file. The package's -update flag, the
// only one in the tree, makes Check rewrite the file instead; each test owns
// its files, so an intended change regenerates exactly what one test renders
// and the diff is the review artefact:
//
//	go test ./internal/core -run TestGoldenSeeds -update
//
// Replay holds a render to the determinism contract the pins rest on: the
// same inputs render the same bytes, in sequence and concurrently.
package golden

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from what the tests render")

// maxDiffs caps the differing lines Check prints, so a change that moves
// every line still fails with a readable report.
const maxDiffs = 10

// Check compares got with testdata/name and reports each differing line as
// got/want with its line number, up to maxDiffs of them, plus the difference
// in line count. Under -update it writes got to the file instead.
func Check(t testing.TB, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Error(err)
		} else if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Error(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Errorf("%v (record it with -update)", err)
		return
	}
	want := string(raw)
	if got == want {
		return
	}
	gotLines, wantLines := lines(got), lines(want)
	differing := 0
	for i := range min(len(gotLines), len(wantLines)) {
		if gotLines[i] == wantLines[i] {
			continue
		}
		if differing++; differing <= maxDiffs {
			t.Errorf("%s:%d\n got: %s\nwant: %s", path, i+1, gotLines[i], wantLines[i])
		}
	}
	if differing > maxDiffs {
		t.Errorf("%s: %d more differing lines not shown", path, differing-maxDiffs)
	}
	switch {
	case len(gotLines) != len(wantLines):
		t.Errorf("%s: %d lines rendered, %d recorded", path, len(gotLines), len(wantLines))
	case differing == 0:
		t.Errorf("%s: the rendering differs only in its final newline", path)
	}
}

// lines splits s into its lines; a final newline ends the last line rather
// than starting an empty one.
func lines(s string) []string { return strings.Split(strings.TrimSuffix(s, "\n"), "\n") }

// concurrent is how many renders Replay runs at once, after two in sequence:
// enough goroutines for the race detector to see any state runs share.
const concurrent = 4

// Replay renders twice in sequence and then concurrent times at once, and
// fails the test unless every render succeeds and all of them are equal. A
// render must not call t.Fatal: it runs on goroutines of its own.
func Replay(t testing.TB, render func() (string, error)) {
	t.Helper()
	outs := make([]string, 2+concurrent)
	errs := make([]error, len(outs))
	outs[0], errs[0] = render()
	outs[1], errs[1] = render()
	var wg sync.WaitGroup
	for i := 2; i < len(outs); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i], errs[i] = render()
		}()
	}
	wg.Wait()
	for i, out := range outs {
		if errs[i] != nil {
			t.Errorf("render %d: %v", i+1, errs[i])
			return
		}
		if out != outs[0] {
			t.Errorf("render %d diverged from render 1:\n got: %s\nwant: %s", i+1, out, outs[0])
			return
		}
	}
}
