package network

import (
	"abenet/internal/probe"
)

// ProbeGauges implements probe.Observable: the network-level series every
// observed run carries. The schema is stable regardless of which optional
// subsystems (faults, byzantine) are configured — absent subsystems read
// as constant zero — so downstream consumers can rely on the columns.
func (net *Network) ProbeGauges() []probe.Gauge {
	return []probe.Gauge{
		{Name: "in_flight", Read: func() float64 { return float64(net.store.InFlight() + net.held) }},
		{Name: "sent", Read: func() float64 { return float64(net.metrics.MessagesSent) }},
		// delivered counts messages handled; one waiting in a processing queue
		// is not delivered yet.
		{Name: "delivered", Read: func() float64 { return float64(net.metrics.MessagesDelivered) }},
		{Name: "timers_fired", Read: func() float64 { return float64(net.metrics.TimersFired) }},
		{Name: "crashed", Read: func() float64 {
			if net.life == nil {
				return 0
			}
			return float64(net.life.crashed)
		}},
		{Name: "byz_interventions", Read: func() float64 {
			if net.adv == nil {
				return 0
			}
			return float64(net.adv.tel.Total())
		}},
	}
}

// InstallProbe has Run sample c on its cadence: Run goes in segments, each
// paused right after the event at which c's next sample falls due (see
// probe.Collector.Due), and c samples between two events, where nothing runs.
// The collector only reads state, so the observed run's event schedule — and
// therefore its metrics, trace and report — stays byte-identical to an
// unobserved run (the runner's golden pins enforce this), and an unobserved
// run is one kernel call. Call before Run; pass nil to detach.
func (net *Network) InstallProbe(c *probe.Collector) { net.probe = c }
