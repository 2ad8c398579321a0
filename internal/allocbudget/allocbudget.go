// Package allocbudget measures what a constructor allocates as the network
// grows, for the tests that hold construction flat: the same number of heap
// objects at n = 10³ and 10⁴ — nothing built per node or edge — and a budget
// of bytes per node; and what one whole run allocates, for the tests that
// hold a message path to a budget.
package allocbudget

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"
)

// Objects returns the heap objects one call of build(n)() allocates at
// n = 10³ and at n = 10⁴. The collector is off while they are counted: a
// collection allocates on the runtime's behalf, and at 10⁴ one is likely
// enough during the runs to read as an object built per node.
func Objects(build func(n int) func()) (small, large float64) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(3, build(1_000)), testing.AllocsPerRun(3, build(10_000))
}

// BytesPerNode returns the bytes one call of build(n)() allocates, divided
// by n.
func BytesPerNode(n int, build func(n int) func()) float64 {
	bytes, _ := Run(build(n))
	return float64(bytes) / float64(n)
}

// Run returns the bytes and the heap objects one call of run allocates: the
// least of three calls. The collector is off for them, as in Objects: a
// collection during a call would add what it allocates on the runtime's
// behalf to the figures. run is deterministic, so each call allocates the
// same; another goroutine allocating meanwhile — a test's timer, the
// scheduler under load — can only add to a call's reading, and the least of
// three is the call's own figure.
func Run(run func()) (bytes, objects uint64) {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	bytes, objects = math.MaxUint64, math.MaxUint64
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		objects = min(objects, after.Mallocs-before.Mallocs)
	}
	return bytes, objects
}
