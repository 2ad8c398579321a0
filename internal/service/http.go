package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"abenet/internal/runner"
	"abenet/internal/trace"
)

// RunRequest is the body of POST /v1/runs.
type RunRequest struct {
	// Spec is the scenario (the internal/spec JSON schema, strict).
	Spec json.RawMessage `json:"spec"`
	// Seed, when set, overrides the spec's env seed for this run.
	Seed *uint64 `json:"seed,omitempty"`
	// Wait, when true, blocks the request until the job finishes (or the
	// client disconnects) and returns the final snapshot.
	Wait bool `json:"wait,omitempty"`
}

// errorBody is every non-2xx response's JSON shape.
type errorBody struct {
	Error string `json:"error"`
}

// HandlerOptions tunes the HTTP layer.
type HandlerOptions struct {
	// MaxBodyBytes caps POST /v1/runs request bodies; beyond it the
	// request fails with 413 instead of buffering an unbounded body into
	// memory. 0 means 1 MiB — generous for any real scenario spec.
	MaxBodyBytes int64
	// Version is the build/version string reported by the full /healthz
	// response; empty means "dev".
	Version string
}

// DefaultMaxBodyBytes is the POST body cap when HandlerOptions leaves
// MaxBodyBytes at 0.
const DefaultMaxBodyBytes = 1 << 20

// NewHandler returns the service's HTTP API:
//
//	POST /v1/runs             submit a scenario ({"spec": ..., "seed", "wait"})
//	GET  /v1/runs/{id}        job status / result
//	GET  /v1/runs/{id}/events job progress stream (Server-Sent Events)
//	GET  /v1/runs/{id}/trace  causal trace export (?format=chrome|jsonl|text)
//	DELETE /v1/runs/{id}      cancel a job
//	GET  /v1/protocols        registry metadata (names, options, capabilities)
//	GET  /healthz             liveness + service counters (?quick=1: status only)
//	GET  /metrics             service counters, Prometheus text format
func NewHandler(svc *Service, hopts HandlerOptions) http.Handler {
	maxBody := hopts.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = DefaultMaxBodyBytes
	}
	version := hopts.Version
	if version == "" {
		version = "dev"
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", func(w http.ResponseWriter, r *http.Request) {
		var req RunRequest
		r.Body = http.MaxBytesReader(w, r.Body, maxBody)
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				writeError(w, http.StatusRequestEntityTooLarge,
					fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
				return
			}
			writeError(w, http.StatusBadRequest, fmt.Errorf("request body: %w", err))
			return
		}
		if dec.More() {
			writeError(w, http.StatusBadRequest, errors.New("request body: trailing data after JSON value"))
			return
		}
		if len(bytes.TrimSpace(req.Spec)) == 0 {
			writeError(w, http.StatusBadRequest, errors.New(`request needs a "spec"`))
			return
		}
		// The spec goes in as bytes: Submit decodes and validates them once
		// per service (a bad spec is a 400 below) and gives the job its own
		// copy of the spec. The wait path submits and waits on the job
		// handle in one service call: a by-id re-lookup could race history
		// retirement and report a finished run as not-found.
		var view View
		var err error
		if req.Wait {
			view, err = svc.SubmitAndWait(r.Context(), req.Spec, req.Seed)
		} else {
			view, err = svc.Submit(req.Spec, req.Seed)
		}
		switch {
		case errors.Is(err, ErrQueueFull):
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, err)
			return
		case errors.Is(err, ErrOverloaded):
			w.Header().Set("Retry-After", strconv.Itoa(RetryAfter(err)))
			writeError(w, http.StatusServiceUnavailable, err)
			return
		case errors.Is(err, ErrClosed):
			writeError(w, http.StatusServiceUnavailable, err)
			return
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			// The wait ended (client gone, server deadline) before the job:
			// report the still-in-flight snapshot as accepted-not-finished.
			writeJSON(w, http.StatusAccepted, view)
			return
		case err != nil:
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, statusCode(view), view)
	})

	mux.HandleFunc("GET /v1/runs/{id}", func(w http.ResponseWriter, r *http.Request) {
		view, err := svc.Get(r.PathValue("id"))
		if errors.Is(err, ErrNotFound) {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, view)
	})

	mux.HandleFunc("DELETE /v1/runs/{id}", func(w http.ResponseWriter, r *http.Request) {
		view, err := svc.Cancel(r.PathValue("id"))
		switch {
		case errors.Is(err, ErrNotFound):
			writeError(w, http.StatusNotFound, err)
			return
		case errors.Is(err, ErrFinished), errors.Is(err, ErrShared):
			writeError(w, http.StatusConflict, err)
			return
		}
		writeJSON(w, http.StatusOK, view)
	})

	mux.HandleFunc("GET /v1/protocols", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"protocols": runner.Infos()})
	})

	mux.HandleFunc("GET /v1/runs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		serveEvents(svc, w, r)
	})

	mux.HandleFunc("GET /v1/runs/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		serveTrace(svc, w, r)
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// quick=1 is the load-balancer probe shape: status only, no lock
		// acquisition, no counter marshalling.
		if r.URL.Query().Get("quick") == "1" {
			writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
			return
		}
		stats := svc.Stats()
		writeJSON(w, http.StatusOK, map[string]any{
			"status":         "ok",
			"version":        version,
			"uptime_seconds": stats.UptimeSeconds,
			"stats":          stats,
		})
	})

	mux.HandleFunc("GET /metrics", metricsHandler(svc))

	return mux
}

// serveEvents streams a job's progress log as Server-Sent Events: a full
// replay from sequence 0 (or the Last-Event-ID header, for reconnecting
// clients), then the live tail. Each event is
//
//	id: <seq>
//	event: <status|point|sample>
//	data: <the Event, JSON>
//
// The stream ends after the terminal status event — clients need no
// sentinel beyond it — or when the client disconnects; the pulse-channel
// subscription model registers nothing per subscriber, so a vanished
// client leaks nothing and never blocks a worker.
func serveEvents(svc *Service, w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("response writer does not support streaming"))
		return
	}
	seq := 0
	if last := r.Header.Get("Last-Event-ID"); last != "" {
		if n, err := strconv.Atoi(last); err == nil && n >= 0 {
			seq = n + 1
		}
	}
	id := r.PathValue("id")
	// Resolve the job before committing to the event-stream content type so
	// an unknown id is still a JSON 404.
	if _, _, _, err := svc.EventsSince(id, seq); errors.Is(err, ErrNotFound) {
		writeError(w, http.StatusNotFound, err)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	for {
		evs, pulse, done, err := svc.EventsSince(id, seq)
		if err != nil {
			// History retirement evicted the job mid-stream; nothing more
			// will ever arrive.
			return
		}
		for _, ev := range evs {
			data, merr := json.Marshal(ev)
			if merr != nil {
				return
			}
			if _, werr := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data); werr != nil {
				return
			}
			seq = ev.Seq + 1
		}
		flusher.Flush()
		if done {
			return
		}
		select {
		case <-pulse:
		case <-r.Context().Done():
			return
		}
	}
}

// serveTrace renders a finished traced run's causal export in the requested
// format: chrome (trace-event JSON, Perfetto-loadable, the default), jsonl
// (one event per line plus a trailer), or text. An unknown job or a run that
// was not traced is 404; a job that has not finished successfully yet is 409
// (the export only exists on done jobs); an unknown format is 400.
func serveTrace(svc *Service, w http.ResponseWriter, r *http.Request) {
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "chrome"
	}
	contentType := trace.ContentType(format)
	if contentType == "" {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("unknown trace format %q (%s)", format, trace.FormatNames))
		return
	}
	view, err := svc.Get(r.PathValue("id"))
	if errors.Is(err, ErrNotFound) {
		writeError(w, http.StatusNotFound, err)
		return
	}
	if view.Status != StatusDone {
		writeError(w, http.StatusConflict,
			fmt.Errorf("job is %s; the trace exists once it is done", view.Status))
		return
	}
	if view.Result == nil || view.Result.Trace == nil {
		writeError(w, http.StatusNotFound,
			errors.New(`run was not traced (submit with an env "trace" block)`))
		return
	}
	w.Header().Set("Content-Type", contentType)
	w.WriteHeader(http.StatusOK)
	_ = trace.Write(w, view.Result.Trace, format)
}

// statusCode maps a submission snapshot onto its HTTP code: 200 when the
// response already carries the outcome, 202 while the job is still going.
func statusCode(v View) int {
	switch v.Status {
	case StatusQueued, StatusRunning:
		return http.StatusAccepted
	default:
		return http.StatusOK
	}
}

// writeJSON writes v as one line of compact JSON. A View is encoded by
// View.encode, which writes its result's stored bytes as they are.
func writeJSON(w http.ResponseWriter, code int, v any) {
	var body []byte
	var err error
	if view, ok := v.(View); ok {
		body, err = view.encode()
	} else {
		body, err = json.Marshal(v)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err == nil {
		_, _ = w.Write(append(body, '\n'))
	}
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorBody{Error: err.Error()})
}
