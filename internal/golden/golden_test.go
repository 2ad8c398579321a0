package golden

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"testing"
)

// recorder is a testing.TB that keeps what a check reports instead of
// failing the test running it.
type recorder struct {
	testing.TB
	errs []string
}

func (r *recorder) Errorf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// inTestdata moves the test into a fresh directory whose testdata/name
// holds content.
func inTestdata(t *testing.T, name, content string) {
	t.Chdir(t.TempDir())
	if err := os.Mkdir("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("testdata/"+name, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCheckReportsEachDifferingLine(t *testing.T) {
	recorded := "a 1\nb 2\nc 3\n"
	inTestdata(t, "x.golden", recorded)

	r := &recorder{TB: t}
	Check(r, "x.golden", recorded)
	if len(r.errs) != 0 {
		t.Fatalf("an equal rendering failed: %q", r.errs)
	}

	r = &recorder{TB: t}
	Check(r, "x.golden", "a 1\nb 9\nc 3\nd 4\n")
	want := []string{
		"testdata/x.golden:2\n got: b 9\nwant: b 2",
		"testdata/x.golden: 4 lines rendered, 3 recorded",
	}
	if strings.Join(r.errs, "|") != strings.Join(want, "|") {
		t.Fatalf("reported %q, want %q", r.errs, want)
	}

	var many, moved strings.Builder
	for i := range maxDiffs + 3 {
		fmt.Fprintf(&many, "line %d\n", i)
		fmt.Fprintf(&moved, "line %d\n", i+1)
	}
	if err := os.WriteFile("testdata/many.golden", []byte(many.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	r = &recorder{TB: t}
	Check(r, "many.golden", moved.String())
	if len(r.errs) != maxDiffs+1 || r.errs[maxDiffs] != "testdata/many.golden: 3 more differing lines not shown" {
		t.Fatalf("over the cap reported %q", r.errs)
	}

	r = &recorder{TB: t}
	Check(r, "x.golden", strings.TrimSuffix(recorded, "\n"))
	if len(r.errs) != 1 || !strings.Contains(r.errs[0], "final newline") {
		t.Fatalf("a missing final newline reported %q", r.errs)
	}

	r = &recorder{TB: t}
	Check(r, "missing.golden", "")
	if len(r.errs) != 1 || !strings.Contains(r.errs[0], "-update") {
		t.Fatalf("a missing file reported %q", r.errs)
	}
}

func TestCheckUpdateRewritesTheFile(t *testing.T) {
	inTestdata(t, "x.golden", "old\n")
	*update = true
	defer func() { *update = false }()
	Check(t, "x.golden", "new\n")
	if raw, err := os.ReadFile("testdata/x.golden"); err != nil || string(raw) != "new\n" {
		t.Fatalf("after -update the file holds %q (%v)", raw, err)
	}
}

func TestReplay(t *testing.T) {
	r := &recorder{TB: t}
	Replay(r, func() (string, error) { return "same", nil })
	if len(r.errs) != 0 {
		t.Fatalf("a stable render failed: %q", r.errs)
	}

	var calls atomic.Int32
	r = &recorder{TB: t}
	Replay(r, func() (string, error) {
		if calls.Add(1) == 2+concurrent {
			return "drifted", nil
		}
		return "same", nil
	})
	if int(calls.Load()) != 2+concurrent || len(r.errs) != 1 || !strings.Contains(r.errs[0], "drifted") {
		t.Fatalf("%d renders, a diverging one reported %q", calls.Load(), r.errs)
	}

	r = &recorder{TB: t}
	Replay(r, func() (string, error) { return "", errors.New("boom") })
	if len(r.errs) != 1 || !strings.Contains(r.errs[0], "boom") {
		t.Fatalf("a failing render reported %q", r.errs)
	}
}
