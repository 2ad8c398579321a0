// Package allocbudget measures what one call of a function allocates, for
// the table that pins every measured path's figures (alloc_test.go and
// testdata/alloc.golden at the module root), and hands a path's figures to
// the tests that hold it to a shape or to a budget (Figures).
//
// A run hands its big arrays on to the next run in the process (package
// reuse), so a figure has two readings, and Measure, the one reader, takes
// both. The cold one is a process's first run of its shape, which finds
// nothing to reuse. The warm one is a run that follows runs of its own shape,
// as in a sweep, a benchmark unit or a service worker: what it takes from the
// pools costs nothing.
package allocbudget

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"abenet/internal/reuse"
)

// Reading is what one call allocated: bytes and heap objects.
type Reading struct{ Bytes, Objects uint64 }

// Measure returns the cold and the warm reading of one call of run. Both
// start from drained pools (reuse.Drain, what two collections do), so
// neither depends on what ran before: cold is the least of three calls, each
// after a drain; warm is the least of three calls after one uncounted call
// has filled the pools. The collector is off for them: a collection
// allocates on the runtime's behalf and empties the pools. run is
// deterministic, so each call allocates the same; another goroutine
// allocating meanwhile (a test's timer, the scheduler under load) can only
// add to a call's reading, and the least of three is the call's own figure.
//
// Before them, run is called for settle, uncounted and with the collector
// on. The runtime fills the cache of a type switch or of an assertion to an
// interface on about one miss in 1024, allocating the new cache, so until
// each such site run passes has seen its types a few thousand times, a call
// allocates an object more or not at random. That is process state, not a
// run's cost.
func Measure(run func()) (cold, warm Reading) {
	for start := time.Now(); time.Since(start) < settle; {
		run()
	}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cold = least(run, reuse.Drain)
	reuse.Drain()
	run()
	return cold, least(run, func() {})
}

// settle is how long Measure calls run before it reads it: a path that
// passes a cached site a hundred times a call has passed it several thousand
// times by then.
const settle = 50 * time.Millisecond

// least returns the least bytes and objects of three calls of run, each
// after a call of before, which is not counted.
func least(run, before func()) Reading {
	r := Reading{math.MaxUint64, math.MaxUint64}
	for range 3 {
		before()
		var start, end runtime.MemStats
		runtime.ReadMemStats(&start)
		run()
		runtime.ReadMemStats(&end)
		r.Bytes = min(r.Bytes, end.TotalAlloc-start.TotalAlloc)
		r.Objects = min(r.Objects, end.Mallocs-start.Mallocs)
	}
	return r
}

var (
	figuresMu sync.Mutex
	figures   map[string][2]Reading // by path name, cold and warm
)

// Figures returns the cold and the warm reading of the path that
// testdata/alloc.golden, at the module root, names name, for a test that
// holds it to a shape or a budget. In the plain build they are the golden's
// row, which TestAllocationGolden measures and pins exactly, so the path is
// not measured again. A -race build pads what a path allocates and skips
// the golden: there Figures reads Measure(run), once per test binary for
// each name, so tests that share a path share its measurement. run must be
// the call the golden's path measures.
func Figures(t testing.TB, name string, run func()) (cold, warm Reading) {
	t.Helper()
	figuresMu.Lock()
	defer figuresMu.Unlock()
	if figures == nil {
		figures = map[string][2]Reading{}
		if !Race {
			readGolden(t)
		}
	}
	r, ok := figures[name]
	if !ok && Race {
		r[0], r[1] = Measure(run)
		figures[name], ok = r, true
	}
	if !ok {
		t.Fatalf("testdata/alloc.golden has no line %q", name)
	}
	return r[0], r[1]
}

// readGolden puts each line of testdata/alloc.golden into figures: a path's
// name, its cold bytes and objects, then its warm bytes and objects. The
// golden is found beside go.mod, above the test's package directory.
func readGolden(t testing.TB) {
	t.Helper()
	dir, _ := os.Getwd()
	for dir != filepath.Dir(dir) {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			break
		}
		dir = filepath.Dir(dir)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "testdata", "alloc.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) < 5 || strings.HasPrefix(line, "#") {
			continue
		}
		var v [4]uint64
		var err error
		for i, s := range f[len(f)-4:] {
			if v[i], err = strconv.ParseUint(s, 10, 64); err != nil {
				break
			}
		}
		if err == nil {
			figures[strings.Join(f[:len(f)-4], " ")] = [2]Reading{{v[0], v[1]}, {v[2], v[3]}}
		}
	}
}
