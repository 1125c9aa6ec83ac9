// Package client speaks the clusterd HTTP API: job and grid
// submission, status polling, event streaming, trace upload and server
// stats. clustersim -remote is built on it; the wire types are the
// service package's own, so client and server cannot drift apart.
//
// Non-2xx replies decode into *APIError, so callers switch on the
// server's stable machine-readable code instead of string-matching
// messages:
//
//	_, err := c.SubmitJob(ctx, req)
//	var apiErr *client.APIError
//	if errors.As(err, &apiErr) && apiErr.Code == service.CodeQuotaExceeded {
//	    backoff(apiErr.RetryAfterSec)
//	}
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"time"

	"clustervp/internal/obs"
	"clustervp/internal/service"
)

// Client talks to one clusterd instance.
type Client struct {
	base   string
	apiKey string
	hc     *http.Client
	retry  RetryPolicy
}

// Option configures a Client.
type Option func(*Client)

// WithAPIKey authenticates every request against a multi-tenant server
// (sent as "Authorization: Bearer <key>").
func WithAPIKey(key string) Option {
	return func(c *Client) { c.apiKey = key }
}

// WithHTTPClient substitutes the underlying http.Client.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// New returns a client for the server at base (e.g.
// "http://127.0.0.1:8090"). The underlying http.Client has no global
// timeout: simulations legitimately run long, and Wait streams events.
func New(base string, opts ...Option) *Client {
	c := &Client{base: strings.TrimRight(base, "/"), hc: &http.Client{}}
	for _, o := range opts {
		o(c)
	}
	return c
}

// APIError is a non-2xx reply from the server, decoded from its
// versioned error envelope. Code is the stable contract (the
// service.Code* constants); Message is human-readable and may change.
type APIError struct {
	StatusCode    int
	Code          string
	Message       string
	RetryAfterSec int
	Details       map[string]string
}

func (e *APIError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("clusterd: %s (%s, HTTP %d)", e.Message, e.Code, e.StatusCode)
	}
	return fmt.Sprintf("clusterd: HTTP %d: %s", e.StatusCode, e.Message)
}

// apiError decodes a non-2xx reply into *APIError: the versioned
// envelope, or else the raw body as the message — an old server or a
// proxy in the middle still yields a useful error.
func apiError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	out := &APIError{StatusCode: resp.StatusCode}
	if sec, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
		out.RetryAfterSec = sec
	}
	var env service.ErrorEnvelope
	if json.Unmarshal(body, &env) == nil && env.Error.Code != "" {
		out.Code = env.Error.Code
		out.Message = env.Error.Message
		out.Details = env.Error.Details
		if env.Error.RetryAfterSec > 0 {
			out.RetryAfterSec = env.Error.RetryAfterSec
		}
		return out
	}
	out.Message = strings.TrimSpace(string(body))
	return out
}

// newRequest builds a request with the client's credentials attached.
// When the context carries an active span (obs.NewContext), its W3C
// traceparent rides along, so the server's request span — and any job
// it admits — continues the caller's trace. This is the propagation
// edge of a coordinator→replica hop.
func (c *Client) newRequest(ctx context.Context, method, path string, body io.Reader) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	if c.apiKey != "" {
		req.Header.Set("Authorization", "Bearer "+c.apiKey)
	}
	if sp := obs.FromContext(ctx); sp != nil {
		req.Header.Set("traceparent", sp.Context().Traceparent())
	}
	return req, nil
}

// doJSON posts (or gets, when in is nil) and decodes a JSON reply,
// retrying retriable failures under the client's RetryPolicy (the body
// is a rewindable buffer, so every attempt sends identical bytes).
func (c *Client) doJSON(ctx context.Context, method, path string, in, out any) error {
	var data []byte
	if in != nil {
		var err error
		if data, err = json.Marshal(in); err != nil {
			return err
		}
	}
	return c.withRetry(ctx, func() error {
		resp, err := c.roundTrip(ctx, method, path, data, "")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if out == nil {
			return nil
		}
		return json.NewDecoder(resp.Body).Decode(out)
	})
}

// roundTrip makes one attempt at a request with an optional JSON body
// and Accept header, returning the response only when it is 2xx; the
// caller closes its body.
func (c *Client) roundTrip(ctx context.Context, method, path string, data []byte, accept string) (*http.Response, error) {
	var body io.Reader
	if data != nil {
		body = bytes.NewReader(data)
	}
	req, err := c.newRequest(ctx, method, path, body)
	if err != nil {
		return nil, err
	}
	if data != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		defer resp.Body.Close()
		return nil, apiError(resp)
	}
	return resp, nil
}

// Health checks GET /v1/healthz.
func (c *Client) Health(ctx context.Context) error {
	return c.doJSON(ctx, http.MethodGet, "/v1/healthz", nil, nil)
}

// Stats fetches GET /v1/statsz.
func (c *Client) Stats(ctx context.Context) (service.ServerStats, error) {
	var st service.ServerStats
	err := c.doJSON(ctx, http.MethodGet, "/v1/statsz", nil, &st)
	return st, err
}

// SubmitJob posts one job and returns its accepted status (queued).
func (c *Client) SubmitJob(ctx context.Context, req service.JobRequest) (service.JobStatus, error) {
	var st service.JobStatus
	err := c.doJSON(ctx, http.MethodPost, "/v1/jobs", req, &st)
	return st, err
}

// SubmitGrid posts a grid and returns the expanded job IDs in grid
// order.
func (c *Client) SubmitGrid(ctx context.Context, req service.GridRequest) ([]string, error) {
	var out struct {
		Jobs []string `json:"jobs"`
	}
	err := c.doJSON(ctx, http.MethodPost, "/v1/grids", req, &out)
	return out.Jobs, err
}

// Status fetches one job's status (including results once done).
func (c *Client) Status(ctx context.Context, id string) (service.JobStatus, error) {
	var st service.JobStatus
	err := c.doJSON(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// SubmitStream posts one job in the streamed form and hands each line
// of its event stream to fn, the first line included, until the
// terminal line, whose status it returns. Only the exchange up to the
// response headers is retried under the client's RetryPolicy: once the
// server has answered, the job exists. A stream that breaks after the
// first line returns the last status it carried, so the caller still
// holds the job ID; a non-nil error from fn stops the stream and is
// returned as-is.
func (c *Client) SubmitStream(ctx context.Context, req service.JobRequest, fn func(service.Event) error) (service.JobStatus, error) {
	data, err := json.Marshal(req)
	if err != nil {
		return service.JobStatus{}, err
	}
	var resp *http.Response
	if err := c.withRetry(ctx, func() (err error) {
		resp, err = c.roundTrip(ctx, http.MethodPost, "/v1/jobs", data, service.NDJSONType)
		return err
	}); err != nil {
		return service.JobStatus{}, err
	}
	defer resp.Body.Close()
	var st service.JobStatus
	last, err := readEvents(resp.Body, func(ev service.Event) error {
		if ev.Job != nil {
			st = *ev.Job
		}
		if fn != nil {
			return fn(ev)
		}
		return nil
	})
	if err == nil && last.Job == nil {
		err = errors.New("clusterd: terminal event without the job's status")
	}
	return st, err
}

// Wait blocks until the job reaches a terminal state and returns its
// final status. It rides the NDJSON events stream (so completion is
// pushed, not polled, and the terminal line carries the status); if
// the stream breaks it falls back to polling.
func (c *Client) Wait(ctx context.Context, id string) (service.JobStatus, error) {
	var last service.Event
	err := c.StreamEvents(ctx, id, func(ev service.Event) error {
		last = ev
		return nil
	})
	if err == nil && last.Job != nil {
		return *last.Job, nil
	}
	if ctx.Err() != nil {
		return service.JobStatus{}, ctx.Err()
	}
	return c.pollUntilDone(ctx, id)
}

// StreamEvents opens the job's NDJSON event stream and hands each
// event to fn in order. It returns nil once a terminal event (done or
// failed) has been delivered; a stream that breaks earlier returns the
// transport error, and a non-nil error from fn stops the stream and is
// returned as-is.
func (c *Client) StreamEvents(ctx context.Context, id string, fn func(service.Event) error) error {
	resp, err := c.roundTrip(ctx, http.MethodGet, "/v1/jobs/"+id+"/events", nil, "")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, err = readEvents(resp.Body, fn)
	return err
}

// maxEventLine caps one NDJSON line: a terminal line carries the job's
// full results.
const maxEventLine = 1 << 20

// readEvents decodes NDJSON event lines from body, handing each to fn,
// and returns the terminal one. The line buffer starts small and grows
// only as far as the longest line needs, up to maxEventLine. After the
// terminal line it reads on to the end of the response, which the
// server sends right behind it, so the connection goes back to the
// keep-alive pool instead of being closed.
func readEvents(body io.Reader, fn func(service.Event) error) (service.Event, error) {
	sc := bufio.NewScanner(body)
	sc.Buffer(nil, maxEventLine)
	for sc.Scan() {
		var ev service.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return service.Event{}, fmt.Errorf("clusterd: bad event line: %w", err)
		}
		if fn != nil {
			if err := fn(ev); err != nil {
				return service.Event{}, err
			}
		}
		if ev.State == service.StateDone || ev.State == service.StateFailed {
			io.CopyN(io.Discard, body, maxEventLine)
			return ev, nil
		}
	}
	if err := sc.Err(); err != nil {
		return service.Event{}, fmt.Errorf("clusterd: events stream: %w", err)
	}
	return service.Event{}, errors.New("clusterd: events stream ended before a terminal state")
}

// pollUntilDone is the degraded-mode wait.
func (c *Client) pollUntilDone(ctx context.Context, id string) (service.JobStatus, error) {
	for {
		st, err := c.Status(ctx, id)
		if err != nil {
			return service.JobStatus{}, err
		}
		if st.State == service.StateDone || st.State == service.StateFailed {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return service.JobStatus{}, ctx.Err()
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// Run submits a job and waits for its terminal status in one streamed
// exchange — the remote equivalent of runner.Simulate. If the stream
// breaks once the job ID is known, it waits on the job instead of
// submitting it again.
func (c *Client) Run(ctx context.Context, req service.JobRequest) (service.JobStatus, error) {
	st, err := c.SubmitStream(ctx, req, nil)
	if err != nil && st.ID != "" && ctx.Err() == nil {
		return c.Wait(ctx, st.ID)
	}
	return st, err
}

// JobTrace fetches GET /v1/jobs/{id}/trace?format=spans: the job's
// span timeline as structured data.
func (c *Client) JobTrace(ctx context.Context, id string) (service.TraceResponse, error) {
	var tr service.TraceResponse
	err := c.doJSON(ctx, http.MethodGet, "/v1/jobs/"+id+"/trace?format=spans", nil, &tr)
	return tr, err
}

// JobTraceChrome fetches GET /v1/jobs/{id}/trace?format=chrome: the
// raw Chrome trace-event JSON, ready to write to disk and load in
// chrome://tracing or Perfetto.
func (c *Client) JobTraceChrome(ctx context.Context, id string) ([]byte, error) {
	var raw json.RawMessage
	err := c.doJSON(ctx, http.MethodGet, "/v1/jobs/"+id+"/trace?format=chrome", nil, &raw)
	return raw, err
}

// Tracez fetches GET /v1/tracez. A non-empty traceID filters to that
// trace's retained spans (the fleet coordinator collects a job's
// replica-side spans this way); limit bounds the unfiltered listing
// (<=0 = server default).
func (c *Client) Tracez(ctx context.Context, traceID string, limit int) (service.TracezResponse, error) {
	path := "/v1/tracez"
	q := url.Values{}
	if traceID != "" {
		q.Set("trace_id", traceID)
	}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var tz service.TracezResponse
	err := c.doJSON(ctx, http.MethodGet, path, nil, &tz)
	return tz, err
}

// UploadTrace streams a .cvt container to the server's trace store and
// returns its content digest and record count.
func (c *Client) UploadTrace(ctx context.Context, r io.Reader) (digest string, records uint64, err error) {
	req, err := c.newRequest(ctx, http.MethodPost, "/v1/traces", r)
	if err != nil {
		return "", 0, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return "", 0, apiError(resp)
	}
	var out struct {
		Digest  string `json:"digest"`
		Records uint64 `json:"records"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", 0, err
	}
	return out.Digest, out.Records, nil
}

// UploadTraceFile is UploadTrace over an on-disk .cvt file.
func (c *Client) UploadTraceFile(ctx context.Context, path string) (digest string, records uint64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	return c.UploadTrace(ctx, f)
}
