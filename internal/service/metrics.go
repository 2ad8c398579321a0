// The /metrics endpoint: the service counters in the Prometheus text
// exposition format (version 0.0.4), rendered by hand — the format is a
// dozen lines of spec and a client dependency would be the only one in the
// module.
package service

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// promMetric is one rendered metric family: help text, type, and the
// samples (label string → value). Families render in slice order so the
// output is stable for tests and diff-friendly for humans.
type promMetric struct {
	name    string
	help    string
	typ     string // "counter" or "gauge"
	samples []promSample
}

type promSample struct {
	labels string // rendered label set, e.g. `{tier="memory"}`, or ""
	value  float64
}

// WriteMetrics renders the service counters in the Prometheus text format.
func (s *Service) WriteMetrics(w io.Writer) error {
	st := s.Stats()
	families := []promMetric{
		{"abe_uptime_seconds", "Wall-clock age of the service process.", "gauge",
			[]promSample{{"", st.UptimeSeconds}}},
		{"abe_workers", "Configured worker-pool size.", "gauge",
			[]promSample{{"", float64(st.Workers)}}},
		{"abe_queue_capacity", "Configured submit-queue bound.", "gauge",
			[]promSample{{"", float64(st.QueueDepth)}}},
		{"abe_jobs", "Jobs currently held by state.", "gauge", []promSample{
			{`{state="queued"}`, float64(st.Queued)},
			{`{state="running"}`, float64(st.Running)},
		}},
		{"abe_submissions_total", "Validated submissions, including cache hits and deduplicated riders.", "counter",
			[]promSample{{"", float64(st.Submissions)}}},
		{"abe_spec_decodes_total", "Spec documents decoded, invalid ones included.", "counter",
			[]promSample{{"", float64(st.SpecDecodes)}}},
		{"abe_spec_memo_hits_total", "Submissions of a document already decoded; they skip decoding and hashing.", "counter",
			[]promSample{{"", float64(st.SpecMemoHits)}}},
		{"abe_jobs_finished_total", "Terminal job transitions by outcome.", "counter", []promSample{
			{`{status="done"}`, float64(st.Done)},
			{`{status="failed"}`, float64(st.Failed)},
			{`{status="cancelled"}`, float64(st.Cancelled)},
		}},
		{"abe_submissions_rejected_total", "Refused submissions by reason.", "counter", []promSample{
			{`{reason="queue_full"}`, float64(st.RejectedQueueFull)},
			{`{reason="overloaded"}`, float64(st.RejectedOverload)},
		}},
		{"abe_cache_entries", "Result-cache entries by tier.", "gauge", []promSample{
			{`{tier="memory"}`, float64(st.CacheEntries)},
			{`{tier="store"}`, float64(st.StoreEntries)},
		}},
		{"abe_cache_hits_total", "Result-cache hits by tier; a hit means no simulation ran.", "counter", []promSample{
			{`{tier="memory"}`, float64(st.MemoryHits)},
			{`{tier="store"}`, float64(st.StoreHits)},
		}},
		{"abe_store_errors_total", "Failed persistent-tier writes.", "counter",
			[]promSample{{"", float64(st.StoreErrors)}}},
		{"abe_store_read_errors_total", "Corrupt persistent-tier entries read back and removed.", "counter",
			[]promSample{{"", float64(st.StoreReadErrors)}}},
		{"abe_stream_events_dropped_total", "Progress events discarded past per-job stream caps.", "counter",
			[]promSample{{"", float64(st.EventsDropped)}}},
	}
	for _, fam := range families {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", fam.name, fam.help, fam.name, fam.typ); err != nil {
			return err
		}
		for _, sm := range fam.samples {
			// strconv with 'g' prints integers without an exponent and
			// never emits a locale-dependent separator.
			if _, err := fmt.Fprintf(w, "%s%s %s\n", fam.name, sm.labels, strconv.FormatFloat(sm.value, 'g', -1, 64)); err != nil {
				return err
			}
		}
	}
	return nil
}

// metricsHandler serves GET /metrics.
func metricsHandler(svc *Service) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = svc.WriteMetrics(w)
	}
}
