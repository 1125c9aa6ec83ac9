package fleet

// The coordinator's HTTP surface — deliberately the single box's
// surface, same paths, same wire types, same versioned error
// envelopes, so clustersim -remote and service/client point at a
// coordinator unchanged:
//
//	POST /v1/jobs             admit one job                -> 202 JobStatus
//	                          (Accept: application/x-ndjson -> 202 events
//	                          stream of the job, as below)
//	POST /v1/grids            admit a grid all-or-nothing  -> 202 {"jobs": [ids]}
//	GET  /v1/jobs/{id}        status + results JSON (replica-attributed)
//	GET  /v1/jobs/{id}/events NDJSON: queued → running (+progress) → done|failed,
//	                          the terminal line carrying the final JobStatus
//	GET  /v1/jobs/{id}/trace  merged span timeline: coordinator spans + every
//	                          replica's spans for the job's trace id
//	                          (?format=chrome|spans, like the single box)
//	GET  /v1/tracez           the coordinator's own recent-span ring
//	GET  /v1/healthz          coordinator liveness
//	GET  /v1/statsz           fleet-shaped stats: coordinator totals + per-replica health
//
// Trace upload is not proxied (a trace must be uploaded to the replica
// that will replay it; fleet trace routing is future work), so POST
// /v1/traces 404s with the standard envelope like any unknown path.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"clustervp/internal/obs"
	"clustervp/internal/service"
)

// buildHandler assembles the coordinator's route table once.
func (co *Coordinator) buildHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", co.handleSubmitJob)
	mux.HandleFunc("POST /v1/grids", co.handleSubmitGrid)
	mux.HandleFunc("GET /v1/jobs/{id}", co.handleJobStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/events", co.handleJobEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", co.handleJobTrace)
	mux.HandleFunc("GET /v1/tracez", co.handleTracez)
	mux.HandleFunc("GET /v1/healthz", co.handleHealthz)
	mux.HandleFunc("GET /v1/statsz", co.handleStatsz)
	return co.instrument(co.envelopeFallback(mux))
}

// statusRecorder captures the final status code for the request span
// and log line while passing streaming flushes through.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (w *statusRecorder) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusRecorder) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument opens a request span (continuing an inbound W3C
// traceparent when one parses; a malformed header just roots a fresh
// trace) and emits one structured log line per request with the
// trace id — the same discipline as the single box, so grepping a
// trace id works across the whole fleet's logs.
func (co *Coordinator) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		remote, _ := obs.ParseTraceparent(r.Header.Get("traceparent"))
		span := co.spans.StartRoot("http "+r.Method+" "+r.URL.Path, remote)
		rw := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rw, r.WithContext(obs.NewContext(r.Context(), span)))
		span.SetAttr("http_status", strconv.Itoa(rw.status))
		span.End()
		co.logger.Info("request",
			"method", r.Method, "path", r.URL.Path, "status", rw.status,
			"dur_ms", time.Since(start).Milliseconds(),
			"trace_id", span.TraceID(), "request_id", span.SpanID())
	})
}

// Handler returns the coordinator's HTTP API.
func (co *Coordinator) Handler() http.Handler { return co.handler }

// ServeHTTP makes the Coordinator itself mountable.
func (co *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	co.handler.ServeHTTP(w, r)
}

// writeJSON matches the single box's two-space-indented rendering so
// payloads compare byte-for-byte.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError renders a service error through the shared envelope
// contract.
func writeError(w http.ResponseWriter, err error) {
	status, env := service.Envelope(err)
	if env.Error.RetryAfterSec > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(env.Error.RetryAfterSec))
	}
	writeJSON(w, status, env)
}

// envelopeWriter rewrites the mux's plain-text 404/405 replies into
// envelopes, exactly like the single box's fallback.
type envelopeWriter struct {
	http.ResponseWriter
	replaced bool
}

func (w *envelopeWriter) WriteHeader(code int) {
	if code == http.StatusNotFound || code == http.StatusMethodNotAllowed {
		if ct := w.Header().Get("Content-Type"); ct == "" || ct == "text/plain; charset=utf-8" {
			w.replaced = true
			apiCode, msg := service.CodeNotFound, "no such endpoint"
			if code == http.StatusMethodNotAllowed {
				apiCode, msg = service.CodeMethodNotAllowed, "method not allowed"
			}
			w.Header().Set("Content-Type", "application/json")
			w.Header().Del("X-Content-Type-Options")
			w.ResponseWriter.WriteHeader(code)
			json.NewEncoder(w.ResponseWriter).Encode(service.ErrorEnvelope{
				SchemaVersion: service.SchemaVersion,
				Error:         service.APIError{Code: apiCode, Message: msg},
			})
			return
		}
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *envelopeWriter) Write(b []byte) (int, error) {
	if w.replaced {
		return len(b), nil
	}
	return w.ResponseWriter.Write(b)
}

func (w *envelopeWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (co *Coordinator) envelopeFallback(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		next.ServeHTTP(&envelopeWriter{ResponseWriter: w}, r)
	})
}

// decodeBody maps decode failures the way the single box does: an
// oversized body is 413 payload_too_large, anything else 400 with the
// decoder's reason (an unknown field names itself).
func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			return fmt.Errorf("%w: body exceeds %d bytes", service.ErrPayloadTooLarge, maxErr.Limit)
		}
		return fmt.Errorf("%w: body: %v", service.ErrBadRequest, err)
	}
	return nil
}

// handleSubmitJob admits one job; like the single box, a caller that
// accepts NDJSON gets the job's event stream in the same exchange.
func (co *Coordinator) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	var req service.JobRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, err)
		return
	}
	j, err := co.admitOne(req, obs.FromContext(r.Context()))
	if err != nil {
		writeError(w, err)
		return
	}
	if service.WantsEvents(r) {
		writeEvents(w, r, http.StatusAccepted, j, true)
		return
	}
	writeJSON(w, http.StatusAccepted, j.status())
}

func (co *Coordinator) handleSubmitGrid(w http.ResponseWriter, r *http.Request) {
	var req service.GridRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, err)
		return
	}
	ids, err := co.SubmitGrid(req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{"jobs": ids, "count": len(ids)})
}

func (co *Coordinator) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	st, err := co.Status(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleJobEvents streams the coordinator's reassembled event feed as
// NDJSON: the current snapshot first, then forwarded replica progress,
// then exactly one terminal line — same protocol as the single box, so
// client.Wait cannot tell them apart.
func (co *Coordinator) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	co.mu.Lock()
	j, ok := co.jobs[r.PathValue("id")]
	co.mu.Unlock()
	if !ok {
		writeError(w, service.ErrNoSuchJob)
		return
	}
	writeEvents(w, r, http.StatusOK, j, false)
}

// writeEvents streams j's events as NDJSON until its terminal line or
// the client going away; withStatus puts the job's status on the first
// line, and the terminal line always carries the final status.
func writeEvents(w http.ResponseWriter, r *http.Request, code int, j *fleetJob, withStatus bool) {
	ch, snap := j.subscribe(withStatus)
	defer j.unsubscribe(ch)
	w.Header().Set("Content-Type", service.NDJSONType)
	w.WriteHeader(code)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(ev service.Event) bool {
		if err := enc.Encode(ev); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}

	if !emit(snap) {
		return
	}
	if snap.State == service.StateDone || snap.State == service.StateFailed {
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev := <-ch:
			if !emit(ev) {
				return
			}
		case <-j.terminal:
			emit(j.terminalEvent())
			return
		}
	}
}

// handleJobTrace assembles one fleet job's end-to-end timeline: the
// coordinator's own spans for the trace (admission, every dispatch
// attempt) merged with the replica-side spans fetched live from every
// reachable replica's /v1/tracez?trace_id= — the replica that ran the
// job contributes the admission→queue→run→sim spans, all under the
// same trace id thanks to traceparent propagation on the dispatch hop.
// An unreachable replica is skipped, not an error: a partial timeline
// beats none while a box is down.
func (co *Coordinator) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	co.mu.Lock()
	j, ok := co.jobs[r.PathValue("id")]
	co.mu.Unlock()
	if !ok {
		writeError(w, service.ErrNoSuchJob)
		return
	}
	spans := co.spans.TraceSpans(j.traceID)
	for _, rep := range co.replicas {
		if rep.health() == replicaDown {
			continue
		}
		tz, err := rep.c.Tracez(r.Context(), j.traceID, 0)
		if err != nil {
			co.logger.Warn("fleet trace fetch failed", "replica", rep.name, "error", err)
			continue
		}
		spans = append(spans, tz.Spans...)
	}
	service.WriteTrace(w, r, spans, j.traceID, j.id, j.status().State)
}

func (co *Coordinator) handleTracez(w http.ResponseWriter, r *http.Request) {
	service.WriteTracez(w, r, co.spans)
}

func (co *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "role": "coordinator"})
}

// ReplicaStatus is one replica's slice of the fleet statsz payload.
type ReplicaStatus struct {
	Name       string `json:"name"`
	Base       string `json:"base"`
	State      string `json:"state"`
	InFlight   int    `json:"in_flight"`
	Dispatched int64  `json:"dispatched"`
	Completed  int64  `json:"completed"`
}

// CoordinatorStats is the coordinator section of fleet statsz.
type CoordinatorStats struct {
	Capacity   int   `json:"capacity"`
	InFlight   int   `json:"in_flight"`
	Submitted  int64 `json:"submitted"`
	Done       int64 `json:"done"`
	Failed     int64 `json:"failed"`
	Resubmits  int64 `json:"resubmits"`
	LiveShards int   `json:"live_replicas"`
}

// Stats is the GET /v1/statsz payload of a coordinator: fleet-shaped
// (role distinguishes it from a replica's payload), same schema
// versioning discipline.
type Stats struct {
	SchemaVersion int              `json:"schema_version"`
	Role          string           `json:"role"`
	UptimeSec     float64          `json:"uptime_sec"`
	Coordinator   CoordinatorStats `json:"coordinator"`
	Replicas      []ReplicaStatus  `json:"replicas"`
}

// Stats snapshots the coordinator counters and per-replica health.
func (co *Coordinator) Stats() Stats {
	co.mu.Lock()
	inflight := co.inflight
	co.mu.Unlock()
	st := Stats{
		SchemaVersion: service.SchemaVersion,
		Role:          "coordinator",
		UptimeSec:     time.Since(co.start).Seconds(),
		Coordinator: CoordinatorStats{
			Capacity:   co.opts.QueueDepth,
			InFlight:   inflight,
			Submitted:  co.submitted.Load(),
			Done:       co.done.Load(),
			Failed:     co.failed.Load(),
			Resubmits:  co.resubmits.Load(),
			LiveShards: co.liveReplicas(),
		},
	}
	for _, r := range co.replicas {
		r.mu.Lock()
		st.Replicas = append(st.Replicas, ReplicaStatus{
			Name:       r.name,
			Base:       r.base,
			State:      r.state.String(),
			InFlight:   r.inflight,
			Dispatched: r.dispatched,
			Completed:  r.completed,
		})
		r.mu.Unlock()
	}
	return st
}

func (co *Coordinator) handleStatsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, co.Stats())
}
