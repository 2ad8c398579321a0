//go:build race

package allocbudget

// Race reports a -race build, whose instrumentation adds to what
// construction allocates: a budget states its figure for both builds.
const Race = true
