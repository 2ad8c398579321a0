package main

import (
	"fmt"
	"sort"
)

// metricDef declares one reported metric. BENCHMARK.json carries the same
// table (a test keeps the two equal); the program needs it to refuse a run
// that would print a different set than it declared.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// workloadNames are fixed: later issues cite them.
var workloadNames = []string{"ring-sparse-100k", "ring-dense-1k", "benor-complete-64", "serve-mixed"}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. Every workload reports every one of them; an "op" is one
// spec-in→report-out unit on the simulator workloads and one submit→done
// request on serve-mixed.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_latency_p50_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"events_per_s", "events/s", "higher", 0.25},
	{"alloc_mb_per_op", "MB", "lower", 0.10},
}

// perLayer are the traced pass's metrics, measured by timing calls into
// each layer's public functions from this package. A metric that does not
// apply to a workload reads 0 there.
var perLayer = []metricDef{
	// spec
	{Name: "spec.decode_us", Unit: "us", Better: "lower"},
	{Name: "spec.hash_us", Unit: "us", Better: "lower"},
	{Name: "spec.build_us", Unit: "us", Better: "lower"},
	{Name: "report.encode_us", Unit: "us", Better: "lower"},
	// runner
	{Name: "runner.run_s", Unit: "s", Better: "lower"},
	// topology
	{Name: "topology.build_s", Unit: "s", Better: "lower"},
	// network
	{Name: "network.new_s", Unit: "s", Better: "lower"},
	{Name: "network.new_allocs_per_node", Unit: "count", Better: "lower"},
	{Name: "network.new_bytes_per_node", Unit: "B", Better: "lower"},
	{Name: "network.run_s", Unit: "s", Better: "lower"},
	{Name: "network.collect_s", Unit: "s", Better: "lower"},
	// sim
	{Name: "sim.hold_ns.heap", Unit: "ns", Better: "lower"},
	{Name: "sim.hold_ns.calendar", Unit: "ns", Better: "lower"},
	{Name: "sim.calendar_over_heap", Unit: "ratio", Better: "lower"},
	{Name: "sim.events_per_unit", Unit: "count", Better: "lower"},
	// channel
	{Name: "channel.send_deliver_ns.random-delay", Unit: "ns", Better: "lower"},
	{Name: "channel.send_deliver_ns.fifo", Unit: "ns", Better: "lower"},
	{Name: "channel.send_deliver_ns.arq", Unit: "ns", Better: "lower"},
	{Name: "channel.allocs_per_msg", Unit: "count", Better: "lower"},
	{Name: "channel.msgs_per_unit", Unit: "count", Better: "lower"},
	// dist + rng
	{Name: "dist.sample_ns.exponential", Unit: "ns", Better: "lower"},
	{Name: "rng.uint64_ns", Unit: "ns", Better: "lower"},
	{Name: "rng.derive_ns", Unit: "ns", Better: "lower"},
	// CPU self-time shares (sum to 1)
	{Name: "cpu_share.sim", Unit: "ratio", Better: "lower"},
	{Name: "cpu_share.channel", Unit: "ratio", Better: "lower"},
	{Name: "cpu_share.network", Unit: "ratio", Better: "lower"},
	{Name: "cpu_share.protocol", Unit: "ratio", Better: "lower"},
	{Name: "cpu_share.dist_rng", Unit: "ratio", Better: "lower"},
	{Name: "cpu_share.topology", Unit: "ratio", Better: "lower"},
	{Name: "cpu_share.spec_runner", Unit: "ratio", Better: "lower"},
	{Name: "cpu_share.service_store", Unit: "ratio", Better: "lower"},
	{Name: "cpu_share.runtime_gc", Unit: "ratio", Better: "lower"},
	{Name: "cpu_share.runtime_alloc", Unit: "ratio", Better: "lower"},
	{Name: "cpu_share.other", Unit: "ratio", Better: "lower"},
	// runtime
	{Name: "gc.cycles_per_unit", Unit: "count", Better: "lower"},
	{Name: "gc.pause_ms_per_unit", Unit: "ms", Better: "lower"},
	{Name: "gc.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "alloc.objects_per_event", Unit: "count", Better: "lower"},
	{Name: "alloc.bytes_per_event", Unit: "B", Better: "lower"},
	{Name: "heap.peak_mb", Unit: "MB", Better: "lower"},
	// service
	{Name: "service.submit_rtt_us.hit", Unit: "us", Better: "lower"},
	{Name: "service.submit_rtt_us.fresh", Unit: "us", Better: "lower"},
	{Name: "service.submit_rtt_us.fresh_disk", Unit: "us", Better: "lower"},
	{Name: "latency_p95_ms.hit", Unit: "ms", Better: "lower"},
	{Name: "latency_p99_ms.hit", Unit: "ms", Better: "lower"},
	{Name: "latency_p99_ms.fresh", Unit: "ms", Better: "lower"},
	{Name: "service.mem_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "service.store_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "service.dedup_count", Unit: "count", Better: "lower"},
	{Name: "service.rejected_count", Unit: "count", Better: "lower"},
	{Name: "service.jobs_run", Unit: "count", Better: "lower"},
	// store
	{Name: "store.disk_put_us", Unit: "us", Better: "lower"},
	{Name: "store.disk_get_us", Unit: "us", Better: "lower"},
	{Name: "store.mem_get_ns", Unit: "ns", Better: "lower"},
	// tail of the op latency (see README: too host-bound to carry a bound)
	{Name: "op_latency_tail_ms", Unit: "ms", Better: "lower"},
	// host and tracing
	{Name: "host.calib_ns", Unit: "ns", Better: "lower"},
	{Name: "host.calib_drift", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// attach turns measured values into the declared metric set. Layer metrics
// a workload does not exercise default to 0; an undeclared name, or a
// missing end-to-end metric, is a bug in the benchmark and is reported.
func attach(defs []metricDef, values map[string]float64, requireAll bool) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok && requireAll {
			return nil, fmt.Errorf("metric %q was not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	var extra []string
	for name := range values {
		if _, ok := out[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("measured metrics %v are not declared", extra)
	}
	return out, nil
}
