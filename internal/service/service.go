// Package service is the simulation-as-a-service layer: a long-lived
// job server that accepts simulation jobs and grids as JSON over HTTP,
// validates them with internal/config, queues them on a bounded
// priority queue, and executes them through the runner.Engine — backed
// by the in-memory memo and a persistent on-disk result cache keyed by
// Job.Fingerprint(), so identical work is never re-simulated across
// process restarts or replicas sharing a cache directory.
//
// Determinism: the queue pops jobs in (priority desc, submission seq
// asc) order, simulation itself is deterministic, and results are
// content-addressed by fingerprint — so any number of workers or
// replicas executing a job space produce identical results, in the
// spirit of deterministic work-sharding for parallel search frameworks.
//
// The same Server is the front end of a fleet coordinator: NewWith
// swaps the local worker pool for another Backend (service/fleet's
// dispatcher), and the routes, tenants, job records, tracez and
// /metrics stay this package's. cmd/clusterd wraps both in a binary;
// service/client speaks the HTTP API (clustersim -remote uses it).
package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"clustervp/internal/config"
	"clustervp/internal/core"
	"clustervp/internal/obs"
	"clustervp/internal/runner"
	"clustervp/internal/stats"
	"clustervp/internal/trace"
	"clustervp/internal/workload"
)

// Job lifecycle states: queued → running → done | failed.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// Errors the HTTP layer maps to status codes and envelope codes (see
// errors.go for the mapping table).
var (
	// ErrQueueFull means the bounded queue cannot accept the submission
	// (HTTP 503 queue_full; grids are admitted all-or-nothing).
	ErrQueueFull = errors.New("service: job queue full")
	// ErrNoSuchJob means the job ID is unknown — or belongs to another
	// tenant, which is indistinguishable by design (HTTP 404 not_found).
	ErrNoSuchJob = errors.New("service: no such job")
	// ErrBadRequest wraps validation failures (HTTP 400 invalid_spec).
	ErrBadRequest = errors.New("service: invalid request")
	// ErrQuotaExceeded means the submission fits the global queue but
	// not the tenant's quota (HTTP 429 quota_exceeded with Retry-After).
	ErrQuotaExceeded = errors.New("service: tenant quota exceeded")
	// ErrUnauthorized means a missing or unknown API key on a
	// multi-tenant server (HTTP 401 unauthorized).
	ErrUnauthorized = errors.New("service: unauthorized")
	// ErrTraceStoreDisabled means a trace upload hit a server started
	// without a trace store (HTTP 501 trace_store_disabled — a
	// deployment choice, not saturation, so deliberately NOT 503).
	ErrTraceStoreDisabled = errors.New("service: trace store disabled")
	// ErrPayloadTooLarge means a request body exceeded its bound
	// (HTTP 413 payload_too_large).
	ErrPayloadTooLarge = errors.New("service: payload too large")
)

// JobRequest is the JSON body of POST /v1/jobs: a machine description
// plus exactly one workload — a suite kernel or an uploaded trace
// referenced by content digest.
type JobRequest struct {
	// Machine describes the simulated machine (see config.MachineSpec);
	// the zero value is the paper's 4-cluster preset.
	Machine config.MachineSpec `json:"machine"`
	// Kernel names a Table 2 suite kernel; mutually exclusive with
	// TraceDigest.
	Kernel string `json:"kernel,omitempty"`
	// Scale is the workload scale factor (0 = 1). Ignored for traces.
	Scale int `json:"scale,omitempty"`
	// Seed re-seeds the kernel inputs (0 = canonical). Ignored for traces.
	Seed uint64 `json:"seed,omitempty"`
	// TraceDigest replays a previously-uploaded .cvt trace
	// ("sha256:<hex>", as returned by POST /v1/traces).
	TraceDigest string `json:"trace_digest,omitempty"`
	// Priority orders the queue: higher runs first; equal priorities
	// run in submission order.
	Priority int `json:"priority,omitempty"`
}

// GridRequest is the JSON body of POST /v1/grids: the cross-product of
// machines × kernels × scales, expanded in row-major order exactly like
// runner.Grid, admitted to the queue all-or-nothing.
type GridRequest struct {
	Machines []config.MachineSpec `json:"machines"`
	Kernels  []string             `json:"kernels"`
	// Scales defaults to [1].
	Scales []int `json:"scales,omitempty"`
	// Seed applies to every kernel instance.
	Seed uint64 `json:"seed,omitempty"`
	// Priority applies to every expanded job.
	Priority int `json:"priority,omitempty"`
}

// JobStatus is the JSON representation of one job (GET /v1/jobs/{id}).
type JobStatus struct {
	ID          string `json:"id"`
	State       string `json:"state"`
	Tenant      string `json:"tenant,omitempty"`
	Kernel      string `json:"kernel,omitempty"`
	Scale       int    `json:"scale,omitempty"`
	Seed        uint64 `json:"seed,omitempty"`
	TraceDigest string `json:"trace_digest,omitempty"`
	Priority    int    `json:"priority,omitempty"`
	// Replica names the fleet replica a shard ran on; empty on a
	// single-box server, so the field never appears outside fleet mode.
	Replica string `json:"replica,omitempty"`

	// TraceID correlates the job with its distributed trace: the same id
	// appears in request logs, job events, and GET /v1/jobs/{id}/trace.
	TraceID string `json:"trace_id,omitempty"`

	SubmittedAt time.Time `json:"submitted_at,omitzero"`
	StartedAt   time.Time `json:"started_at,omitzero"`
	FinishedAt  time.Time `json:"finished_at,omitzero"`

	// Error is set on failed jobs.
	Error string `json:"error,omitempty"`
	// Results carries the full stats.Results record of a done job.
	Results *stats.Results `json:"results,omitempty"`
}

// Event is one NDJSON line of GET /v1/jobs/{id}/events or of a
// streamed POST /v1/jobs: a state transition or a periodic progress
// snapshot of the running simulation.
type Event struct {
	State        string  `json:"state"`
	Cycles       int64   `json:"cycles,omitempty"`
	Instructions uint64  `json:"instructions,omitempty"`
	IPC          float64 `json:"ipc,omitempty"`
	Error        string  `json:"error,omitempty"`
	// TraceID is the job's trace id, on every event line, so a stream
	// consumer can jump from events to the span timeline.
	TraceID string `json:"trace_id,omitempty"`
	// Job is the job's full status on the terminal line (the JSON GET
	// /v1/jobs/{id} returns at that moment) and on the first line of a
	// streamed submit, which is how its caller learns the job ID.
	Job *JobStatus `json:"job,omitempty"`
}

// QueueStats is the queue/worker section of statsz.
type QueueStats struct {
	Workers    int     `json:"workers"`
	Capacity   int     `json:"capacity"`
	Depth      int     `json:"depth"`
	Running    int     `json:"running"`
	Submitted  int64   `json:"submitted"`
	Done       int64   `json:"done"`
	Failed     int64   `json:"failed"`
	JobsPerSec float64 `json:"jobs_per_sec"`
}

// CacheStats is the persistent-result-cache section of statsz. Hits
// plus the engine's simulations is the unique work the server
// resolved; memo hits within the process appear in neither.
type CacheStats struct {
	Hits      int64   `json:"hits"`
	PutErrors int64   `json:"put_errors"`
	HitRatio  float64 `json:"hit_ratio"`
}

// EngineStats is the simulator section of statsz.
type EngineStats struct {
	SimulationsExecuted int64   `json:"simulations_executed"`
	SimInstructions     uint64  `json:"sim_instructions"`
	SimInstrsPerSec     float64 `json:"sim_instrs_per_sec"`
}

// ServerStats is the GET /v1/statsz payload, schema version 2: nested
// queue/cache/engine sections plus one entry per tenant. The
// pre-versioning flat top-level keys (workers, queue_depth, jobs_done,
// cache_hit_ratio, ...) were mirrored through schema version 1 and are
// gone as of version 2 — read the nested sections.
type ServerStats struct {
	SchemaVersion int     `json:"schema_version"`
	UptimeSec     float64 `json:"uptime_sec"`

	Queue   QueueStats    `json:"queue"`
	Cache   CacheStats    `json:"cache"`
	Engine  EngineStats   `json:"engine"`
	Tenants []TenantStats `json:"tenants"`
}

// Options configure a Server.
type Options struct {
	// Workers bounds concurrent simulations (<=0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds admitted jobs (<=0 = 1024): the queued ones on a
	// single box, the queued and running ones on a fleet coordinator.
	QueueDepth int
	// CacheDir roots the persistent result cache; empty disables it
	// (the in-memory memo still deduplicates within the process).
	CacheDir string
	// TraceDir roots the content-addressed trace store; empty disables
	// trace uploads and trace-replay jobs.
	TraceDir string
	// ProgressInterval is the cycle interval between progress events on
	// running jobs (<=0 = 50000).
	ProgressInterval int64
	// MaxTraceBytes bounds one trace upload (<=0 = 1 GiB).
	MaxTraceBytes int64
	// MaxJobRecords bounds retained job records (<=0 = 16384): once
	// exceeded, the oldest *terminal* records are evicted (their
	// results live on in the result cache; the records only feed
	// /v1/jobs/{id}). Queued and running jobs are never evicted, so a
	// long-lived server cannot leak memory per submission.
	MaxJobRecords int
	// Tenants, when non-empty, turns on multi-tenant mode: every HTTP
	// request (except /v1/healthz and /metrics) must present a known
	// API key, jobs are attributed and quota-checked per tenant, and
	// one tenant cannot read another's jobs. Empty = open mode: no
	// auth, every caller is the "anonymous" tenant with no quotas.
	Tenants []Tenant
	// SpanRing bounds the retained finished spans of the tracing
	// collector (<=0 = obs.DefaultRingSize). Tracing is always on —
	// span starts/ends sit outside the simulation cycle loop, so the
	// cost per job is a handful of allocations, not per-cycle work.
	SpanRing int
	// Logger receives structured request and job-lifecycle logs; nil
	// discards them.
	Logger *slog.Logger
	// Run overrides the simulator (tests inject stubs); nil = the real
	// timing simulator with progress events.
	Run func(runner.Job) (stats.Results, error)
}

// A Backend runs the jobs a Server admits. The Server owns everything
// a caller sees: the routes and middleware, authentication, tenant
// quotas, the job table, the error envelopes, tracez and /metrics. The
// backend decides only what differs between a single box and a fleet
// coordinator: how a trace job is keyed, how many jobs fit, how a job
// runs, the statsz and healthz bodies, and the spans recorded
// elsewhere for a trace. New runs jobs on a local worker pool; package
// fleet dispatches them to replicas.
type Backend interface {
	// Names returns the service name on the server's spans and the
	// prefix of its job IDs.
	Names() (service, jobPrefix string)
	// TraceJob keys a job that replays the uploaded trace digest on
	// machine cfg; a kernel job's key is its fingerprint. Failures wrap
	// ErrBadRequest.
	TraceJob(cfg config.Config, digest string) (runner.Job, string, error)
	// Free returns how many more jobs fit beside the queued and running
	// ones, or an error wrapping ErrQueueFull when none can run at all.
	Free(queued, running int) (int, error)
	// Start takes one admitted job. It is called with the server's lock
	// held and must not block; the job reports back through its Forward
	// and Finish methods.
	Start(j *Job)
	// Statsz and Healthz are the bodies of GET /v1/statsz and
	// GET /v1/healthz.
	Statsz() any
	Healthz() any
	// JobSpans returns the spans recorded outside this server for a
	// trace; GET /v1/jobs/{id}/trace merges them with the server's own.
	JobSpans(ctx context.Context, traceID string) []obs.Span
	// Close stops the backend and waits for its goroutines.
	Close()
}

// Server is the simulation job server. Create with New (or NewWith),
// expose with Handler, stop with Close.
type Server struct {
	opts      Options
	be        Backend
	eng       *runner.Engine // nil unless jobs run locally
	store     *trace.Store   // nil when disabled or not local
	start     time.Time
	jobPrefix string

	// Tenant registry: immutable after New. multiTenant switches the
	// HTTP layer into key-required mode; anonymous is the principal of
	// open mode and of direct Go API calls.
	tenants     map[string]*tenantState
	anonymous   *tenantState
	multiTenant bool

	logger  *slog.Logger
	metrics *metrics
	spans   *obs.Collector

	mu      sync.Mutex
	jobs    map[string]*Job
	order   []string // job IDs in submission order, for record eviction
	nextSeq int64
	queued  int // admitted jobs not yet running
	running int

	submitted, done, failed atomic.Int64

	// handler is the route table, built once in New (ServeHTTP must not
	// rebuild a mux per request).
	handler http.Handler
}

// New builds and starts a server whose jobs run on its own worker pool
// (the workers run until Close).
func New(opts Options) (*Server, error) { return NewWith(opts, nil) }

// NewWith builds a server whose admitted jobs run on be. A nil be is
// the local worker pool of New; Workers, CacheDir, TraceDir,
// ProgressInterval, MaxTraceBytes and Run configure only that one.
func NewWith(opts Options, be Backend) (*Server, error) {
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 1024
	}
	if opts.ProgressInterval <= 0 {
		opts.ProgressInterval = 50_000
	}
	if opts.MaxTraceBytes <= 0 {
		opts.MaxTraceBytes = 1 << 30
	}
	if opts.MaxJobRecords <= 0 {
		opts.MaxJobRecords = 16384
	}
	if opts.MaxJobRecords < opts.QueueDepth {
		// Every admitted job must have a record, so the record bound can
		// never be tighter than the admission bound.
		opts.MaxJobRecords = opts.QueueDepth
	}
	if err := validateTenants(opts.Tenants); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	s := &Server{
		opts:    opts,
		start:   time.Now(),
		jobs:    make(map[string]*Job),
		logger:  logger,
		metrics: newMetrics(),
	}
	s.tenants, s.anonymous = newTenantStates(opts.Tenants)
	s.multiTenant = len(opts.Tenants) > 0
	if be == nil {
		l, err := newLocal(s)
		if err != nil {
			return nil, err
		}
		be = l
	}
	s.be = be
	name, prefix := be.Names()
	s.spans = obs.NewCollector(name, opts.SpanRing)
	s.jobPrefix = prefix
	s.handler = s.buildHandler()
	return s, nil
}

// Spans exposes the tracing collector (the /v1/tracez and
// /v1/jobs/{id}/trace surfaces; tests read it directly).
func (s *Server) Spans() *obs.Collector { return s.spans }

// Engine exposes the underlying grid engine (counters for statsz and
// tests); nil when jobs do not run locally.
func (s *Server) Engine() *runner.Engine { return s.eng }

// TraceStore exposes the content-addressed trace store (nil when
// disabled).
func (s *Server) TraceStore() *trace.Store { return s.store }

// Close stops the backend. A local server's workers stop after their
// current jobs and queued jobs stay queued (a restarted server
// re-resolves them from the cache anyway).
func (s *Server) Close() { s.be.Close() }

// buildJob validates a request into the job it runs and its key. Every
// failure wraps ErrBadRequest.
func (s *Server) buildJob(req JobRequest) (runner.Job, string, error) {
	cfg, err := req.Machine.Build()
	if err != nil {
		return runner.Job{}, "", fmt.Errorf("%w: machine: %v", ErrBadRequest, err)
	}
	switch {
	case req.TraceDigest != "" && req.Kernel != "":
		return runner.Job{}, "", fmt.Errorf("%w: kernel and trace_digest are mutually exclusive", ErrBadRequest)
	case req.TraceDigest != "":
		return s.be.TraceJob(cfg, req.TraceDigest)
	case req.Kernel != "":
		if _, err := workload.ByName(req.Kernel); err != nil {
			return runner.Job{}, "", fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		rj := runner.Job{Config: cfg, Kernel: req.Kernel, Scale: req.Scale, Seed: req.Seed}.Keyed()
		return rj, rj.Fingerprint(), nil
	default:
		return runner.Job{}, "", fmt.Errorf("%w: one of kernel or trace_digest is required", ErrBadRequest)
	}
}

// Submit validates and admits one job as the anonymous tenant,
// returning its status snapshot. HTTP submissions go through submitAs
// with the authenticated tenant instead.
func (s *Server) Submit(req JobRequest) (JobStatus, error) {
	_, st, err := s.submitAs(s.anonymous, req, nil)
	return st, err
}

// submitAs validates and admits one job for a tenant, enforcing its
// quotas at admission, and returns the job with its status at
// admission (still queued: the backend cannot move it before s.mu is
// released). A non-nil parent span (the HTTP request span) roots the
// job's trace under the caller's — so a coordinator-dispatched job
// shares the coordinator's trace id.
func (s *Server) submitAs(t *tenantState, req JobRequest, parent *obs.ActiveSpan) (*Job, JobStatus, error) {
	rjob, key, err := s.buildJob(req)
	if err != nil {
		return nil, JobStatus{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.admitLocked(t, 1); err != nil {
		return nil, JobStatus{}, err
	}
	j := s.enqueueLocked(t, req, rjob, key, parent)
	s.logger.Info("job submitted",
		"tenant", t.cfg.Name, "job", j.id, "fingerprint", j.fp, "priority", j.priority,
		"trace_id", j.traceID)
	return j, j.status(), nil
}

// SubmitGrid expands the grid row-major and admits every job
// all-or-nothing as the anonymous tenant, returning the job IDs in
// grid order.
func (s *Server) SubmitGrid(req GridRequest) ([]string, error) {
	return s.submitGridAs(s.anonymous, req)
}

// submitGridAs is SubmitGrid for a tenant: the whole grid must fit the
// backend AND the tenant's quotas, or nothing is admitted. Each
// expanded job roots its own trace (not the submitting request's):
// the contract is one trace per job, and a thousand-job grid sharing
// one trace id would make every per-job timeline drag the whole grid
// along.
func (s *Server) submitGridAs(t *tenantState, req GridRequest) ([]string, error) {
	if len(req.Machines) == 0 || len(req.Kernels) == 0 {
		return nil, fmt.Errorf("%w: a grid needs at least one machine and one kernel", ErrBadRequest)
	}
	scales := req.Scales
	if len(scales) == 0 {
		scales = []int{1}
	}
	var reqs []JobRequest
	var rjobs []runner.Job
	var keys []string
	for _, m := range req.Machines {
		for _, k := range req.Kernels {
			for _, sc := range scales {
				jr := JobRequest{Machine: m, Kernel: k, Scale: sc, Seed: req.Seed, Priority: req.Priority}
				rj, key, err := s.buildJob(jr)
				if err != nil {
					return nil, err
				}
				reqs = append(reqs, jr)
				rjobs = append(rjobs, rj)
				keys = append(keys, key)
			}
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.admitLocked(t, len(reqs)); err != nil {
		return nil, err
	}
	ids := make([]string, len(reqs))
	for i := range reqs {
		ids[i] = s.enqueueLocked(t, reqs[i], rjobs[i], keys[i], nil).id
	}
	s.logger.Info("grid submitted", "tenant", t.cfg.Name, "jobs", len(ids))
	return ids, nil
}

// admitLocked is the two-level admission check — the backend's
// capacity first (503 queue_full), then the tenant's own quotas (429
// quota_exceeded); s.mu must be held. Rejections count as load
// shedding for the tenant and the server.
func (s *Server) admitLocked(t *tenantState, n int) error {
	free, err := s.be.Free(s.queued, s.running)
	if err == nil && n > free {
		err = ErrQueueFull
		if n > 1 {
			err = fmt.Errorf("%w: grid of %d jobs exceeds free capacity %d", ErrQueueFull, n, max(free, 0))
		}
	}
	if err != nil {
		t.shed.Add(1)
		s.metrics.loadShed("queue_full")
		s.logger.Warn("load shed: queue full",
			"tenant", t.cfg.Name, "jobs", n, "queued", s.queued, "running", s.running,
			"capacity", s.opts.QueueDepth, "error", err.Error())
		return err
	}
	if quota, limit, ok := t.admitLocked(n); !ok {
		t.shed.Add(1)
		s.metrics.loadShed("quota_exceeded")
		s.logger.Warn("load shed: tenant quota exceeded",
			"tenant", t.cfg.Name, "jobs", n, "quota", quota, "limit", limit)
		return withDetails(
			fmt.Errorf("%w: tenant %q exceeded %s (%d)", ErrQuotaExceeded, t.cfg.Name, quota, limit),
			map[string]string{
				"tenant": t.cfg.Name,
				"quota":  quota,
				"limit":  strconv.Itoa(limit),
			})
	}
	return nil
}

// enqueueLocked registers an admitted job for a tenant and hands it to
// the backend; s.mu must be held. The requested priority is clamped to
// the tenant's ceiling here, so the backend never sees a priority the
// tenant was not entitled to.
//
// The job's root span starts here — admission IS the start of the
// job's timeline — as a child of the submitting request's span when
// one is given (continuing a caller's trace across a hop), or as a
// fresh root otherwise.
func (s *Server) enqueueLocked(t *tenantState, req JobRequest, rjob runner.Job, key string, parent *obs.ActiveSpan) *Job {
	s.nextSeq++
	j := &Job{
		srv:       s,
		id:        fmt.Sprintf("%s-%08d", s.jobPrefix, s.nextSeq),
		priority:  t.clampPriority(req.Priority),
		tenant:    t,
		kernel:    req.Kernel,
		digest:    req.TraceDigest,
		seed:      req.Seed,
		fp:        key,
		state:     StateQueued,
		submitted: time.Now(),
		terminal:  make(chan struct{}),
		live:      &liveJob{seq: s.nextSeq, req: req, rjob: rjob},
	}
	if req.TraceDigest == "" {
		j.scale = rjob.EffectiveScale()
	}
	var span *obs.ActiveSpan
	if parent != nil {
		span = parent.StartChild("job " + j.id)
	} else {
		span = s.spans.StartRoot("job "+j.id, obs.SpanContext{})
	}
	span.SetAttr("job", j.id)
	span.SetAttr("tenant", t.cfg.Name)
	if req.Kernel != "" {
		span.SetAttr("kernel", req.Kernel)
	}
	if req.TraceDigest != "" {
		span.SetAttr("trace_digest", req.TraceDigest)
	}
	j.live.span = span
	j.traceID = span.TraceID()
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.evictLocked()
	s.queued++
	t.queued++
	s.submitted.Add(1)
	t.submitted.Add(1)
	s.be.Start(j)
	return j
}

// evictLocked drops the oldest terminal job records once the retention
// bound is exceeded; s.mu must be held. Non-terminal records are
// skipped (and re-considered next time), so an in-flight job's status
// is always resolvable.
func (s *Server) evictLocked() {
	if len(s.jobs) <= s.opts.MaxJobRecords {
		return
	}
	kept := s.order[:0]
	for i, id := range s.order {
		if len(s.jobs) <= s.opts.MaxJobRecords {
			kept = append(kept, s.order[i:]...)
			break
		}
		j := s.jobs[id]
		if j == nil {
			continue
		}
		j.mu.Lock()
		terminal := j.state == StateDone || j.state == StateFailed
		j.mu.Unlock()
		if terminal {
			delete(s.jobs, id)
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// Status returns the status snapshot of a job, regardless of tenant
// (the Go-API admin view; the HTTP layer goes through lookupFor).
func (s *Server) Status(id string) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, ErrNoSuchJob
	}
	return j.status(), nil
}

// lookupFor returns the job record if it exists AND belongs to the
// tenant. Another tenant's job reads as not-found, never as forbidden:
// job IDs are sequential, and a 403 would confirm to a prober that the
// ID exists.
func (s *Server) lookupFor(t *tenantState, id string) (*Job, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok || (s.multiTenant && j.tenant != t) {
		return nil, false
	}
	return j, true
}

// Stats snapshots the server counters into the versioned statsz
// schema: nested queue/cache/engine/tenants sections. The cache and
// engine sections, and the worker count, stay zero unless jobs run
// locally.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	queued, running := s.queued, s.running
	tenants := snapshotTenants(s.tenants, s.anonymous, s.multiTenant)
	s.mu.Unlock()
	uptime := time.Since(s.start).Seconds()
	st := ServerStats{
		SchemaVersion: SchemaVersion,
		UptimeSec:     uptime,
		Queue: QueueStats{
			Capacity:  s.opts.QueueDepth,
			Depth:     queued,
			Running:   running,
			Submitted: s.submitted.Load(),
			Done:      s.done.Load(),
			Failed:    s.failed.Load(),
		},
		Tenants: tenants,
	}
	if s.eng != nil {
		st.Queue.Workers = s.eng.Workers()
		st.Cache = CacheStats{Hits: s.eng.CacheHits(), PutErrors: s.eng.CachePutErrors()}
		st.Engine = EngineStats{
			SimulationsExecuted: s.eng.Executed(),
			SimInstructions:     s.eng.SimInstructions(),
		}
	}
	if u := st.Engine.SimulationsExecuted + st.Cache.Hits; u > 0 {
		st.Cache.HitRatio = float64(st.Cache.Hits) / float64(u)
	}
	if uptime > 0 {
		st.Queue.JobsPerSec = float64(st.Queue.Done) / uptime
		st.Engine.SimInstrsPerSec = float64(st.Engine.SimInstructions) / uptime
	}
	return st
}

// Job is the server-side record of one admitted job. Its backend runs
// it and reports back through Forward and Finish; everything else
// about the record is the server's.
//
// A record outlives its job by up to MaxJobRecords submissions, so it
// keeps only what its status, events snapshot, trace lookup and request
// log read. What only a live job uses sits in live, which Release drops
// once the job is terminal and its backend is done with it.
type Job struct {
	srv      *Server
	id       string
	priority int
	tenant   *tenantState
	kernel   string
	digest   string // the request's trace digest
	seed     uint64
	scale    int    // the effective scale; 0 for a trace job
	fp       string // the backend's key: the fingerprint, or a fleet's shard key
	traceID  string
	terminal chan struct{}

	mu        sync.Mutex
	state     string
	res       stats.Results
	hasRes    bool
	errMsg    string
	replica   string // the fleet replica that ran the job
	submitted time.Time
	started   time.Time
	finished  time.Time
	prog      Event    // the latest progress line
	live      *liveJob // nil once released
}

// liveJob is what a job needs only until its backend is done with it.
//
// The job's backend reads it without j.mu: the pointer is set at
// admission and cleared only by Release, which the backend itself
// calls. Every other reader holds j.mu and checks for nil.
type liveJob struct {
	seq  int64 // submission order, for the local queue
	req  JobRequest
	rjob runner.Job

	// Tracing: span is the job's root (admission→terminal). A local job
	// also has queueSpan, the queue.wait child, and runSpan, the job.run
	// child the simulation's own spans parent under; runSpan is assigned
	// before the fanout publishes the job, and readers reach it through
	// the fanout's mutex, so no lock is needed on the field itself.
	span      *obs.ActiveSpan
	queueSpan *obs.ActiveSpan
	runSpan   *obs.ActiveSpan

	subs map[chan Event]struct{} // guarded by j.mu; nil until the first subscriber
}

// ID returns the job's ID.
func (j *Job) ID() string { return j.id }

// Fingerprint returns the key the backend identifies the job's work
// by.
func (j *Job) Fingerprint() string { return j.fp }

// TraceID returns the id of the job's trace.
func (j *Job) TraceID() string { return j.traceID }

// Span returns the job's root span, the parent of whatever spans the
// backend records for it; nil once the job is released.
func (j *Job) Span() *obs.ActiveSpan {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.live == nil {
		return nil
	}
	return j.live.span
}

// Request returns the job's request, its priority clamped to the
// tenant's ceiling; the zero request once the job is released.
func (j *Job) Request() JobRequest {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.live == nil {
		return JobRequest{}
	}
	req := j.live.req
	req.Priority = j.priority
	return req
}

// Release drops what only a live job uses: its request, its runner
// job, its spans and its subscriber table. The backend calls it once
// the job is terminal and it has read the job's spans for the last
// time. A subscriber still attached has the terminal channel to go by.
func (j *Job) Release() {
	j.mu.Lock()
	j.live = nil
	j.mu.Unlock()
}

// status snapshots the job as its wire representation.
func (j *Job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

// statusLocked is status with j.mu held.
func (j *Job) statusLocked() JobStatus {
	st := JobStatus{
		ID:          j.id,
		State:       j.state,
		Tenant:      j.tenant.cfg.Name,
		Kernel:      j.kernel,
		Scale:       j.scale,
		Seed:        j.seed,
		TraceDigest: j.digest,
		Priority:    j.priority,
		Replica:     j.replica,
		TraceID:     j.traceID,
		SubmittedAt: j.submitted,
		StartedAt:   j.started,
		FinishedAt:  j.finished,
		Error:       j.errMsg,
	}
	if j.hasRes {
		res := j.res
		st.Results = &res
	}
	return st
}

// advanceLocked passes ev to the job's subscribers, first moving a
// queued job to running when ev is a running line; the server's lock
// must be held.
func (j *Job) advanceLocked(ev Event, replica string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == StateQueued && ev.State == StateRunning {
		j.state = StateRunning
		j.started = time.Now()
		j.replica = replica
		j.srv.queued--
		j.srv.running++
		j.tenant.queued--
		j.tenant.running++
	}
	if ev.Cycles > 0 {
		j.prog = ev
	}
	j.broadcastLocked(ev)
}

// Forward passes on one event of a job running elsewhere: a running
// line, sent from replica, moves the job to running. Terminal lines
// are dropped — Finish writes the terminal line exactly once, so a
// failover cannot leak a premature one — and so is the event's job
// status: the lines carry this server's.
func (j *Job) Forward(ev Event, replica string) {
	if ev.State == StateDone || ev.State == StateFailed {
		return
	}
	ev.Job = nil
	j.srv.mu.Lock()
	j.advanceLocked(ev, replica)
	j.srv.mu.Unlock()
}

// progress records a local simulation's progress snapshot and
// broadcasts it to subscribers.
func (j *Job) progress(p core.Progress) {
	j.mu.Lock()
	j.prog = Event{State: StateRunning, Cycles: p.Cycle, Instructions: p.Instructions, IPC: p.IPC()}
	j.broadcastLocked(j.prog)
	j.mu.Unlock()
}

// Finish records the job's outcome — res, or the failure err — once;
// later calls are ignored. replica, when set, attributes the outcome.
// started, when set, is when the job started where it ran: it dates a
// job that finished without ever reporting running here.
func (j *Job) Finish(res stats.Results, err error, replica string, started time.Time) {
	s, t := j.srv, j.tenant
	s.mu.Lock()
	j.mu.Lock()
	switch j.state {
	case StateDone, StateFailed:
		j.mu.Unlock()
		s.mu.Unlock()
		return
	case StateRunning:
		s.running--
		t.running--
	default:
		s.queued--
		t.queued--
	}
	s.mu.Unlock()
	span := j.live.span
	j.finished = time.Now()
	if j.started.IsZero() {
		j.started = started
	}
	if replica != "" {
		j.replica = replica
		span.SetAttr("replica", replica)
	}
	if err != nil {
		j.state = StateFailed
		j.errMsg = err.Error()
		span.SetAttr("error", j.errMsg)
		s.failed.Add(1)
		t.failed.Add(1)
	} else {
		j.state = StateDone
		j.res = res
		j.hasRes = true
		s.done.Add(1)
		t.done.Add(1)
	}
	span.SetAttr("state", j.state)
	close(j.terminal)
	j.mu.Unlock()
	span.End()
}

// broadcastLocked delivers an event to every subscriber without
// blocking: a slow events reader drops intermediate progress, never
// stalls the job.
func (j *Job) broadcastLocked(ev Event) {
	ev.TraceID = j.traceID
	for ch := range j.live.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// subscribe returns the current state snapshot and, unless the job is
// terminal, an event channel attached to it; withStatus puts the job's
// status on the snapshot even when the job is not yet terminal. A
// terminal job's snapshot is its last line, so it registers nothing
// and the channel is nil.
func (j *Job) subscribe(withStatus bool) (chan Event, Event) {
	var ch chan Event
	j.mu.Lock()
	snap := j.snapshotEventLocked()
	if snap.Job == nil {
		// Not terminal, so not released: Release follows Finish.
		ch = make(chan Event, 32)
		if j.live.subs == nil {
			j.live.subs = make(map[chan Event]struct{})
		}
		j.live.subs[ch] = struct{}{}
		if withStatus {
			st := j.statusLocked()
			snap.Job = &st
		}
	}
	j.mu.Unlock()
	return ch, snap
}

func (j *Job) unsubscribe(ch chan Event) {
	j.mu.Lock()
	if j.live != nil {
		delete(j.live.subs, ch)
	}
	j.mu.Unlock()
}

// snapshotEventLocked renders the job's current state as one event; a
// terminal one carries the final status.
func (j *Job) snapshotEventLocked() Event {
	ev := Event{State: j.state, Error: j.errMsg, TraceID: j.traceID}
	switch {
	case j.hasRes:
		ev.Cycles = j.res.Cycles
		ev.Instructions = j.res.Instructions
		ev.IPC = j.res.IPC()
	case j.prog.Cycles > 0:
		ev.Cycles = j.prog.Cycles
		ev.Instructions = j.prog.Instructions
		ev.IPC = j.prog.IPC
	}
	if j.state == StateDone || j.state == StateFailed {
		st := j.statusLocked()
		ev.Job = &st
	}
	return ev
}

// terminalEvent is the final NDJSON line of an events stream.
func (j *Job) terminalEvent() Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapshotEventLocked()
}

var _ http.Handler = (*Server)(nil)
