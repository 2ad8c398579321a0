package sim

// Registry names for the shipped schedulers, selectable per run via NewNamed
// or the runner's Env.Scheduler field; the empty string selects the default
// (heap) everywhere a name is accepted. Both pop events in exactly (at, seq)
// order — the instant, then the kernel-assigned insertion sequence, a total
// order — so executions are byte-identical across them. The golden pins and
// the differential suite rest on that: a scheduler that reorders
// equal-instant events, however plausibly, is wrong, not merely different.
const (
	SchedulerHeap     = "heap"
	SchedulerCalendar = "calendar"
)

// SchedulerNames lists the valid scheduler names in presentation order.
func SchedulerNames() []string {
	return []string{SchedulerHeap, SchedulerCalendar}
}

// ValidScheduler reports whether name selects a known scheduler. The empty
// string is valid and means the default.
func ValidScheduler(name string) bool {
	switch name {
	case "", SchedulerHeap, SchedulerCalendar:
		return true
	}
	return false
}
