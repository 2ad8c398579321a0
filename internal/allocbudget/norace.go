//go:build !race

package allocbudget

// Race reports a -race build, whose instrumentation pads what a path
// allocates: the golden pins the plain build's figures only, and a budget
// holds in both builds.
const Race = false
