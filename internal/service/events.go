// Per-job progress streams: every job owns an append-only event log that
// records its lifecycle transitions and, while it runs, its streamed
// progress — sweep positions as they complete (spec.RunSweep's onPoint
// hook) and probe samples as they are taken (probe.Config.Sink).
// Subscribers replay the log from any sequence number and then follow the
// live tail via a pulse channel, so a late subscriber sees exactly what an
// early one did.
package service

import (
	"sync"
	"sync/atomic"

	"abenet/internal/probe"
	"abenet/internal/spec"
)

// The event types in a job's progress stream.
const (
	// EventStatus marks a lifecycle transition (queued, running, done,
	// failed, cancelled). The terminal status event carries the job error
	// (failed) and the count of progress events the log cap dropped.
	EventStatus = "status"
	// EventPoint is one completed sweep position (sweep jobs only). Points
	// arrive in completion order, not position order; XIdx says which
	// position finished. Values are identical to the final result's.
	EventPoint = "point"
	// EventSample is one probe sample (observed single runs only). The
	// first sample event carries the series' gauge names; later ones only
	// the values, in the same order.
	EventSample = "sample"
)

// Event is one entry in a job's progress stream.
type Event struct {
	// Seq is the event's position in the log, dense from 0; subscribers
	// resume from the next sequence number after the last one they saw.
	Seq int `json:"seq"`
	// Type is one of EventStatus, EventPoint, EventSample.
	Type string `json:"type"`
	// Status is the new lifecycle state (status events).
	Status Status `json:"status,omitempty"`
	// Error is the failure message (terminal status event of a failed job).
	Error string `json:"error,omitempty"`
	// Dropped counts progress events discarded past the log cap (terminal
	// status event). A non-zero value means the stream is a prefix.
	Dropped int `json:"dropped,omitempty"`
	// XIdx is the completed sweep position's index into Xs (point events).
	XIdx int `json:"x_idx,omitempty"`
	// Point is the completed position's aggregated view (point events).
	Point *spec.PointView `json:"point,omitempty"`
	// Sample is the probe reading (sample events).
	Sample *SampleView `json:"sample,omitempty"`
}

// SampleView is one streamed probe sample.
type SampleView struct {
	// Names are the series' gauge names; set on the first sample event of a
	// job and omitted afterwards (the column order never changes mid-run).
	Names []string `json:"names,omitempty"`
	// Time is the virtual time of the sample.
	Time float64 `json:"time"`
	// Event is the kernel's executed-event count at the sample.
	Event uint64 `json:"event"`
	// Values holds one reading per gauge, in Names order.
	Values []float64 `json:"values"`
}

// defaultEventCap bounds each job's progress events (points and samples);
// status events always land. Past the cap, progress events are counted in
// the terminal status event's Dropped field instead of stored — without a
// bound, a fine-grained probe cadence could hold the whole series in the
// job record a second time.
const defaultEventCap = 8192

// eventLog is one job's append-only progress stream. Appends assign dense
// sequence numbers and wake subscribers by closing (and replacing) the
// pulse channel; subscribers replay with since and block on the returned
// channel for the live tail. There is no per-subscriber registration, so a
// subscriber that vanishes leaks nothing.
type eventLog struct {
	mu      sync.Mutex
	cap     int
	events  []Event
	dropped int
	pulse   chan struct{}
	done    bool

	// droppedTotal, when non-nil, is the service-wide drop counter
	// (atomic), fed alongside the per-job count for /metrics.
	droppedTotal *int64
}

func newEventLog(cap int, droppedTotal *int64) *eventLog {
	if cap <= 0 {
		cap = defaultEventCap
	}
	return &eventLog{cap: cap, pulse: make(chan struct{}), droppedTotal: droppedTotal}
}

// append adds one event to the log and wakes subscribers. Progress events
// (capped=true) past the cap are counted as dropped instead of stored;
// appends after the terminal event are discarded (a cancelled job's run may
// still be emitting samples when the cancel lands).
func (l *eventLog) append(ev Event, capped bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.done {
		return
	}
	if capped && len(l.events) >= l.cap {
		l.dropped++
		if l.droppedTotal != nil {
			atomic.AddInt64(l.droppedTotal, 1)
		}
		return
	}
	l.appendLocked(ev)
}

// finish appends the terminal status event (carrying the drop count) and
// seals the log. Idempotent: a cancel racing the worker's completion keeps
// the first terminal event.
func (l *eventLog) finish(status Status, errMsg string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.done {
		return
	}
	l.appendLocked(Event{Type: EventStatus, Status: status, Error: errMsg, Dropped: l.dropped})
	l.done = true
}

// appendLocked assigns the sequence number, stores the event and pulses.
// Callers hold l.mu.
func (l *eventLog) appendLocked(ev Event) {
	ev.Seq = len(l.events)
	l.events = append(l.events, ev)
	close(l.pulse)
	l.pulse = make(chan struct{})
}

// since returns a copy of the events at sequence seq and later, the pulse
// channel that will close on the next append, and whether the log is sealed
// (terminal event recorded). A subscriber loops: drain, then — unless
// sealed — block on the pulse (or its own context) and drain again.
func (l *eventLog) since(seq int) ([]Event, <-chan struct{}, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var evs []Event
	if seq < 0 {
		seq = 0
	}
	if seq < len(l.events) {
		evs = append([]Event(nil), l.events[seq:]...)
	}
	return evs, l.pulse, l.done
}

// EventsSince returns the job's progress events at sequence seq and later,
// a channel that closes when the log next grows, and whether the stream is
// complete (the terminal status event is included). It is the polling/
// blocking primitive behind the SSE endpoint; clients replay from 0 and
// then follow the pulse channel for the live tail.
func (s *Service) EventsSince(id string, seq int) ([]Event, <-chan struct{}, bool, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, nil, false, ErrNotFound
	}
	evs, pulse, done := j.events.since(seq)
	return evs, pulse, done, nil
}

// pointSink returns the RunSweep hook feeding a job's event log.
func (j *job) pointSink() func(xIdx int, pv spec.PointView) {
	return func(xIdx int, pv spec.PointView) {
		j.events.append(Event{Type: EventPoint, XIdx: xIdx, Point: &pv}, true)
	}
}

// sampleSink returns the probe.Config.Sink feeding a job's event log. The
// first sample carries the gauge names; values are copied because the
// probe's buffer is only valid for the duration of the callback.
func (j *job) sampleSink() func(names []string, smp probe.Sample) {
	first := true
	return func(names []string, smp probe.Sample) {
		sv := &SampleView{
			Time:   smp.Time,
			Event:  smp.Event,
			Values: append([]float64(nil), smp.Values...),
		}
		if first {
			sv.Names = names
			first = false
		}
		j.events.append(Event{Type: EventSample, Sample: sv}, true)
	}
}
