// Package allocbudget measures what a constructor allocates as the network
// grows, for the tests that hold construction flat: the same number of heap
// objects at n = 10³ and 10⁴ — nothing built per node or edge — and a budget
// of bytes per node; and what one whole run allocates, for the tests that
// hold a message path to a budget.
//
// A run hands its big arrays on to the next run in the process (package
// reuse), so every figure has two readings. The warm one (Run, Objects) is
// a run that follows runs of its own shape, as in a sweep, a benchmark unit
// or a service worker: what it takes from the pools costs nothing. The cold
// one (RunCold, ObjectsCold) empties the pools before each call (reuse.Drain,
// what two collections do) and reads a run that finds nothing to reuse: a
// process's first run of its shape.
package allocbudget

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"abenet/internal/reuse"
)

// Objects returns the heap objects one call of build(n)() allocates at
// n = 10³ and at n = 10⁴, on the warm path: testing.AllocsPerRun makes one
// call before the three it averages. The collector is off while they are
// counted: a collection allocates on the runtime's behalf, and at 10⁴ one is
// likely enough during the runs to read as an object built per node.
func Objects(build func(n int) func()) (small, large float64) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(3, build(1_000)), testing.AllocsPerRun(3, build(10_000))
}

// ObjectsCold is Objects on the cold path: the least objects of three calls
// at each size, each after the pools are emptied.
func ObjectsCold(build func(n int) func()) (small, large float64) {
	_, s := RunCold(build(1_000))
	_, l := RunCold(build(10_000))
	return float64(s), float64(l)
}

// BytesPerNode returns the bytes one call of build(n)() allocates on the
// cold path, divided by n: what it takes to lay out n nodes, not what a
// repeated run of them costs.
func BytesPerNode(n int, build func(n int) func()) float64 {
	bytes, _ := RunCold(build(n))
	return float64(bytes) / float64(n)
}

// Run returns the bytes and the heap objects one call of run allocates on
// the warm path: one call fills the pools, and the figure is the least of
// the three calls after it. The collector is off for them, as in Objects: a
// collection during a call would add what it allocates on the runtime's
// behalf to the figures, and would empty the pools. run is deterministic, so
// each call allocates the same; another goroutine allocating meanwhile — a
// test's timer, the scheduler under load — can only add to a call's reading,
// and the least of three is the call's own figure.
func Run(run func()) (bytes, objects uint64) {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run()
	return least(run, func() {})
}

// RunCold is Run on the cold path: every pool is emptied before each of the
// three calls, so each allocates what a process's first run of its shape
// does.
func RunCold(run func()) (bytes, objects uint64) {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return least(run, reuse.Drain)
}

// least returns the least bytes and objects of three calls of run, each
// after a call of before, which is not counted.
func least(run, before func()) (bytes, objects uint64) {
	bytes, objects = math.MaxUint64, math.MaxUint64
	for range 3 {
		before()
		var start, end runtime.MemStats
		runtime.ReadMemStats(&start)
		run()
		runtime.ReadMemStats(&end)
		bytes = min(bytes, end.TotalAlloc-start.TotalAlloc)
		objects = min(objects, end.Mallocs-start.Mallocs)
	}
	return bytes, objects
}
