package service

// The HTTP surface of the job server. Endpoints:
//
//	POST /v1/jobs             submit one job            -> 202 JobStatus
//	                          (Accept: application/x-ndjson -> 202 events
//	                          stream of the job, as below)
//	POST /v1/grids            submit a machine×kernel×scale grid -> 202 {"jobs": [ids]}
//	GET  /v1/jobs/{id}        status + stats.Results JSON (tenant-scoped)
//	GET  /v1/jobs/{id}/events NDJSON stream: queued → running (+progress) → done|failed,
//	                          the terminal line carrying the final JobStatus
//	GET  /v1/jobs/{id}/trace  span timeline (?format=chrome|spans, tenant-scoped)
//	GET  /v1/tracez           recent finished spans across all traces
//	POST /v1/traces           upload a .cvt trace       -> 201 {"digest", "records"}
//	GET  /v1/healthz          liveness (unauthenticated)
//	GET  /v1/statsz           queue/cache/tenant sections, schema_version
//	GET  /metrics             Prometheus text exposition (unauthenticated)
//
// Every request flows through instrument (latency metrics + slog
// request log) and authenticate (API-key → tenant, when tenants are
// configured). Every non-2xx body is one versioned ErrorEnvelope with
// a stable machine-readable code: validation failures are 400
// invalid_spec, unknown jobs — including another tenant's jobs — 404
// not_found, a missing key 401 unauthorized, an exhausted tenant quota
// 429 quota_exceeded (Retry-After set), a full queue 503 queue_full
// (Retry-After set), an oversized upload 413 payload_too_large, and a
// trace upload on a server without a trace store 501
// trace_store_disabled. Unrouted paths and wrong methods get envelopes
// too (not_found / method_not_allowed), so no caller ever has to parse
// a plain-text error.
//
// A fleet coordinator serves these same routes through this same code;
// only the statsz and healthz bodies and the replica spans merged into
// a job's trace come from its backend.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"clustervp/internal/obs"
	"clustervp/internal/trace"
)

// buildHandler assembles the route table and middleware chain once, at
// New: instrument → authenticate → envelope fallback → mux.
func (s *Server) buildHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmitJob)
	mux.HandleFunc("POST /v1/grids", s.handleSubmitGrid)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("GET /v1/tracez", s.handleTracez)
	mux.HandleFunc("POST /v1/traces", s.handleUploadTrace)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/statsz", s.handleStatsz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s.instrument(s.authenticate(envelopeFallback(mux)))
}

// Handler returns the server's HTTP API.
func (s *Server) Handler() http.Handler { return s.handler }

// ServeHTTP makes the Server itself mountable.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// ctxKey keys the per-request info holder.
type ctxKey struct{}

// reqInfo carries per-request attribution across the middleware chain:
// instrument injects it, authenticate fills the tenant, handlers add
// job IDs and fingerprints, instrument logs it all on the way out.
type reqInfo struct {
	tenant *tenantState
	jobID  string
	fp     string
	jobs   int // grid submissions: expanded job count
}

// infoFrom returns the request's info holder (never nil: instrument
// injects one; a bare handler invocation in tests gets a throwaway).
func infoFrom(ctx context.Context) *reqInfo {
	if ri, ok := ctx.Value(ctxKey{}).(*reqInfo); ok {
		return ri
	}
	return &reqInfo{}
}

// tenantOf resolves the request's tenant, defaulting to anonymous for
// handlers invoked without the middleware chain (direct tests).
func (s *Server) tenantOf(r *http.Request) *tenantState {
	if t := infoFrom(r.Context()).tenant; t != nil {
		return t
	}
	return s.anonymous
}

// statusWriter captures the status code and preserves http.Flusher for
// the NDJSON events stream.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps the whole chain: it injects the reqInfo holder,
// starts the request span (continuing the caller's W3C traceparent
// when one is presented — a malformed or foreign header just starts a
// fresh root trace, never an error), measures latency into the
// Prometheus histograms, and emits one structured request log line
// with trace/tenant/job/fingerprint attribution. Every instrumented
// request — including 4xx/5xx envelope paths, which run inside this
// wrapper — logs a trace_id and a request_id (the request span's own
// id, the fallback correlation key when the trace has a single span).
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ri := &reqInfo{}
		remote, _ := obs.ParseTraceparent(r.Header.Get("traceparent"))
		span := s.spans.StartRoot("http "+r.Method+" "+r.URL.Path, remote)
		ctx := obs.NewContext(context.WithValue(r.Context(), ctxKey{}, ri), span)
		r = r.WithContext(ctx)
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		// The mux pattern is the metrics route label — bounded
		// cardinality; unrouted probes collapse into one label.
		route := r.Pattern
		if route == "" {
			route = "unrouted"
		}
		dur := time.Since(start)
		s.metrics.observeHTTP(route, r.Method, sw.status, dur)
		span.SetAttr("status", strconv.Itoa(sw.status))
		span.SetAttr("route", route)
		span.End()
		attrs := []slog.Attr{
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.status),
			slog.Duration("duration", dur),
			slog.String("trace_id", span.TraceID()),
			slog.String("request_id", span.SpanID()),
		}
		if ri.tenant != nil {
			attrs = append(attrs, slog.String("tenant", ri.tenant.cfg.Name))
		}
		if ri.jobID != "" {
			attrs = append(attrs, slog.String("job", ri.jobID))
		}
		if ri.fp != "" {
			attrs = append(attrs, slog.String("fingerprint", ri.fp))
		}
		if ri.jobs > 0 {
			attrs = append(attrs, slog.Int("jobs", ri.jobs))
		}
		level := slog.LevelInfo
		if sw.status >= 500 {
			level = slog.LevelError
		} else if sw.status >= 400 {
			level = slog.LevelWarn
		}
		s.logger.LogAttrs(r.Context(), level, "http request", attrs...)
	})
}

// openEndpoints never require a key: load balancers probe healthz and
// Prometheus scrapes metrics without tenant credentials.
func openEndpoint(path string) bool {
	return path == "/v1/healthz" || path == "/metrics"
}

// authenticate resolves the caller's tenant. With no tenants configured
// the server runs open and every request acts as the anonymous tenant;
// with tenants, a missing or unknown key is 401 unauthorized.
func (s *Server) authenticate(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ri := infoFrom(r.Context())
		if !s.multiTenant {
			ri.tenant = s.anonymous
			next.ServeHTTP(w, r)
			return
		}
		if openEndpoint(r.URL.Path) {
			next.ServeHTTP(w, r)
			return
		}
		key := apiKey(r)
		if key == "" {
			writeError(w, fmt.Errorf("%w: missing API key (use Authorization: Bearer or X-API-Key)", ErrUnauthorized))
			return
		}
		t := lookupByKey(s.tenants, key)
		if t == nil {
			writeError(w, fmt.Errorf("%w: unknown API key", ErrUnauthorized))
			return
		}
		ri.tenant = t
		next.ServeHTTP(w, r)
	})
}

// apiKey extracts the presented key: "Authorization: Bearer <key>"
// wins, "X-API-Key: <key>" is the fallback.
func apiKey(r *http.Request) string {
	if auth := r.Header.Get("Authorization"); auth != "" {
		const prefix = "bearer "
		if len(auth) > len(prefix) && strings.EqualFold(auth[:len(prefix)], prefix) {
			return strings.TrimSpace(auth[len(prefix):])
		}
		return ""
	}
	return strings.TrimSpace(r.Header.Get("X-API-Key"))
}

// envelopeWriter rewrites the mux's own plain-text 404/405 bodies into
// error envelopes. Handler-written envelopes set an application/json
// Content-Type before WriteHeader, so they pass through untouched.
type envelopeWriter struct {
	http.ResponseWriter
	replaced bool
}

func (w *envelopeWriter) WriteHeader(code int) {
	if (code == http.StatusNotFound || code == http.StatusMethodNotAllowed) &&
		!strings.Contains(w.Header().Get("Content-Type"), "json") {
		w.replaced = true
		apiCode := CodeNotFound
		msg := "no such endpoint"
		if code == http.StatusMethodNotAllowed {
			apiCode = CodeMethodNotAllowed
			msg = "method not allowed"
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Del("X-Content-Type-Options")
		w.ResponseWriter.WriteHeader(code)
		json.NewEncoder(w.ResponseWriter).Encode(ErrorEnvelope{
			SchemaVersion: SchemaVersion,
			Error:         APIError{Code: apiCode, Message: msg},
		})
		return
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *envelopeWriter) Write(b []byte) (int, error) {
	if w.replaced {
		return len(b), nil // swallow the mux's plain-text body
	}
	return w.ResponseWriter.Write(b)
}

func (w *envelopeWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// envelopeFallback guarantees the no-non-envelope-errors contract for
// responses the mux writes itself (unknown paths, wrong methods).
func envelopeFallback(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		next.ServeHTTP(&envelopeWriter{ResponseWriter: w}, r)
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError renders a service error as its versioned envelope.
func writeError(w http.ResponseWriter, err error) {
	status, env := envelope(err)
	if env.Error.RetryAfterSec > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(env.Error.RetryAfterSec))
	}
	writeJSON(w, status, env)
}

func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	// A misspelled field silently dropped would simulate with defaults
	// and return plausible but wrong results; reject it instead, the
	// way the CLI rejects unknown flag values.
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			return fmt.Errorf("%w: body exceeds %d bytes", ErrPayloadTooLarge, maxErr.Limit)
		}
		return fmt.Errorf("%w: body: %v", ErrBadRequest, err)
	}
	return nil
}

// handleSubmitJob admits one job. A caller that accepts NDJSON gets the
// job's event stream in the same exchange, its first line carrying the
// job's status; admission failures are still plain error envelopes,
// written before any stream byte.
func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, err)
		return
	}
	j, st, err := s.submitAs(s.tenantOf(r), req, obs.FromContext(r.Context()))
	if err != nil {
		writeError(w, err)
		return
	}
	ri := infoFrom(r.Context())
	ri.jobID = st.ID
	if strings.Contains(r.Header.Get("Accept"), NDJSONType) {
		writeEvents(w, r, http.StatusAccepted, j, true)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleSubmitGrid(w http.ResponseWriter, r *http.Request) {
	var req GridRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, err)
		return
	}
	ids, err := s.submitGridAs(s.tenantOf(r), req)
	if err != nil {
		writeError(w, err)
		return
	}
	infoFrom(r.Context()).jobs = len(ids)
	writeJSON(w, http.StatusAccepted, map[string]any{"jobs": ids, "count": len(ids)})
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupFor(s.tenantOf(r), r.PathValue("id"))
	if !ok {
		writeError(w, ErrNoSuchJob)
		return
	}
	ri := infoFrom(r.Context())
	ri.jobID = j.id
	ri.fp = j.fp
	writeJSON(w, http.StatusOK, j.status())
}

// handleJobEvents streams job lifecycle and progress as NDJSON.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupFor(s.tenantOf(r), r.PathValue("id"))
	if !ok {
		writeError(w, ErrNoSuchJob)
		return
	}
	ri := infoFrom(r.Context())
	ri.jobID = j.id
	ri.fp = j.fp
	writeEvents(w, r, http.StatusOK, j, false)
}

// NDJSONType is the media type of an events stream; a POST /v1/jobs
// that accepts it is answered with the job's events.
const NDJSONType = "application/x-ndjson"

// writeEvents streams j's lifecycle and progress as NDJSON until the
// job reaches a terminal state or the client goes away. The first line
// is always the current snapshot, so a late subscriber of a done job
// still gets exactly one meaningful line; withStatus puts the job's
// status on it. The terminal line carries the final status.
func writeEvents(w http.ResponseWriter, r *http.Request, code int, j *Job, withStatus bool) {
	ch, snap := j.subscribe(withStatus)
	defer j.unsubscribe(ch)
	w.Header().Set("Content-Type", NDJSONType)
	w.WriteHeader(code)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(ev Event) bool {
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
	if snap.State == StateDone || snap.State == StateFailed {
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

func (s *Server) handleUploadTrace(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		writeError(w, fmt.Errorf("%w: this server was started without a trace store", ErrTraceStoreDisabled))
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxTraceBytes)
	digest, records, err := s.store.Put(body)
	if err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			writeError(w, withDetails(
				fmt.Errorf("%w: trace exceeds %d bytes", ErrPayloadTooLarge, s.opts.MaxTraceBytes),
				map[string]string{"limit_bytes": strconv.FormatInt(s.opts.MaxTraceBytes, 10)}))
			return
		}
		// A trace that fails decoding is a client-side problem: bad
		// magic, version, CRC or truncation all map to 400. Anything
		// else is the store failing, a 500 that names no server path.
		if errors.Is(err, trace.ErrBadMagic) || errors.Is(err, trace.ErrVersion) ||
			errors.Is(err, trace.ErrCorrupt) || errors.Is(err, trace.ErrTruncated) {
			writeError(w, fmt.Errorf("%w: %v", ErrBadRequest, err))
			return
		}
		s.logger.Error("trace upload failed", "err", err)
		writeError(w, errors.New("service: trace store failed"))
		return
	}
	infoFrom(r.Context()).fp = digest
	writeJSON(w, http.StatusCreated, map[string]any{"digest": digest, "records": records})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.be.Healthz())
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.be.Statsz())
}
