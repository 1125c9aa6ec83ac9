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
// cmd/clusterd wraps this package in a binary; service/client speaks
// the HTTP API (clustersim -remote uses it).
package service

import (
	"container/heap"
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
	// QueueDepth bounds queued-but-not-running jobs (<=0 = 1024).
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

// Server is the simulation job server. Create with New, expose with
// Handler, stop with Close.
type Server struct {
	opts  Options
	eng   *runner.Engine
	cache *runner.DiskCache // nil when disabled
	store *trace.Store      // nil when disabled
	start time.Time

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
	jobs    map[string]*job
	order   []string // job IDs in submission order, for record eviction
	queue   jobHeap
	nextSeq int64
	running int

	submitted, done, failed atomic.Int64

	// avail carries one token per queued job; workers block on it, so a
	// token received guarantees a non-empty queue.
	avail chan struct{}
	quit  chan struct{}
	wg    sync.WaitGroup

	// handler is the route table, built once in New (ServeHTTP must not
	// rebuild a mux per request).
	handler http.Handler

	// fanouts fans simulation progress out to every service job
	// currently running one fingerprint (the engine deduplicates
	// executions; events must not be deduplicated with them). All
	// registry mutations happen under fanMu so a finishing job's
	// remove-and-delete cannot race a starting job's lookup-or-create
	// into a dropped registration.
	fanMu   sync.Mutex
	fanouts map[string]*fanout
}

// New builds and starts a server (its workers run until Close).
func New(opts Options) (*Server, error) {
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
		// Every queued job must have a record, so the record bound can
		// never be tighter than the queue bound.
		opts.MaxJobRecords = opts.QueueDepth
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	s := &Server{
		opts:    opts,
		start:   time.Now(),
		jobs:    make(map[string]*job),
		avail:   make(chan struct{}, opts.QueueDepth),
		quit:    make(chan struct{}),
		fanouts: make(map[string]*fanout),
		logger:  logger,
		metrics: newMetrics(),
		spans:   obs.NewCollector("clusterd", opts.SpanRing),
	}
	if err := validateTenants(opts.Tenants); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	s.tenants, s.anonymous = newTenantStates(opts.Tenants)
	s.multiTenant = len(opts.Tenants) > 0
	var cache runner.ResultCache
	if opts.CacheDir != "" {
		dc, err := runner.NewDiskCache(opts.CacheDir)
		if err != nil {
			return nil, fmt.Errorf("service: result cache: %w", err)
		}
		s.cache = dc
		cache = dc
	}
	if opts.TraceDir != "" {
		st, err := trace.NewStore(opts.TraceDir)
		if err != nil {
			return nil, fmt.Errorf("service: trace store: %w", err)
		}
		s.store = st
	}
	s.eng = runner.New(runner.Options{
		Workers: opts.Workers,
		Cache:   cache,
		Run:     s.simulate,
	})
	s.handler = s.buildHandler()
	for i := 0; i < s.eng.Workers(); i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// simulate is the engine's run function: the real simulator with
// progress fanned out to every job sharing the fingerprint, or the
// injected test stub. The simulation's spans (materialize/run/warmup)
// parent under the first attached job's run span — the engine
// deduplicates executions by fingerprint, so the one simulation's
// timeline lands in one job's trace; the duplicates record a memo-hit
// via instead.
func (s *Server) simulate(j runner.Job) (stats.Results, error) {
	if s.opts.Run != nil {
		return s.opts.Run(j)
	}
	if f := s.fanoutLookup(j.Fingerprint()); f != nil {
		return runner.SimulateTraced(j, s.opts.ProgressInterval, f.publish, f.parentSpan())
	}
	return runner.Simulate(j)
}

// Spans exposes the tracing collector (the /v1/tracez and
// /v1/jobs/{id}/trace surfaces; tests read it directly).
func (s *Server) Spans() *obs.Collector { return s.spans }

// fanoutLookup returns the fanout currently registered for a
// fingerprint, or nil.
func (s *Server) fanoutLookup(fp string) *fanout {
	s.fanMu.Lock()
	defer s.fanMu.Unlock()
	return s.fanouts[fp]
}

// fanoutAttach registers j for progress on its fingerprint, creating
// the fanout if needed.
func (s *Server) fanoutAttach(j *job) {
	s.fanMu.Lock()
	defer s.fanMu.Unlock()
	f := s.fanouts[j.fp]
	if f == nil {
		f = &fanout{}
		s.fanouts[j.fp] = f
	}
	f.add(j)
}

// fanoutDetach removes j and drops the fanout when it was the last
// attached job. Attach and detach share fanMu, so a detach can never
// delete a fanout a concurrent attach just joined.
func (s *Server) fanoutDetach(j *job) {
	s.fanMu.Lock()
	defer s.fanMu.Unlock()
	if f := s.fanouts[j.fp]; f != nil && f.remove(j) == 0 {
		delete(s.fanouts, j.fp)
	}
}

// Engine exposes the underlying grid engine (counters for statsz and
// tests).
func (s *Server) Engine() *runner.Engine { return s.eng }

// TraceStore exposes the content-addressed trace store (nil when
// disabled).
func (s *Server) TraceStore() *trace.Store { return s.store }

// Close stops the workers after their current jobs; queued jobs stay
// queued (a restarted server re-resolves them from the cache anyway).
func (s *Server) Close() {
	close(s.quit)
	s.wg.Wait()
}

// buildJob validates a request into an executable job. Every failure
// wraps ErrBadRequest.
func (s *Server) buildJob(req JobRequest) (runner.Job, error) {
	cfg, err := req.Machine.Build()
	if err != nil {
		return runner.Job{}, fmt.Errorf("%w: machine: %v", ErrBadRequest, err)
	}
	switch {
	case req.TraceDigest != "" && req.Kernel != "":
		return runner.Job{}, fmt.Errorf("%w: kernel and trace_digest are mutually exclusive", ErrBadRequest)
	case req.TraceDigest != "":
		if s.store == nil {
			return runner.Job{}, fmt.Errorf("%w: this server has no trace store", ErrBadRequest)
		}
		path, err := s.store.Path(req.TraceDigest)
		if err != nil {
			return runner.Job{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		if !s.store.Has(req.TraceDigest) {
			return runner.Job{}, fmt.Errorf("%w: trace %s not uploaded", ErrBadRequest, req.TraceDigest)
		}
		return runner.Job{Config: cfg, Trace: path}, nil
	case req.Kernel != "":
		if _, err := workload.ByName(req.Kernel); err != nil {
			return runner.Job{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		return runner.Job{Config: cfg, Kernel: req.Kernel, Scale: req.Scale, Seed: req.Seed}, nil
	default:
		return runner.Job{}, fmt.Errorf("%w: one of kernel or trace_digest is required", ErrBadRequest)
	}
}

// Submit validates and enqueues one job as the anonymous tenant,
// returning its status snapshot. HTTP submissions go through submitAs
// with the authenticated tenant instead.
func (s *Server) Submit(req JobRequest) (JobStatus, error) {
	_, st, err := s.submitAs(s.anonymous, req, nil)
	return st, err
}

// submitAs validates and enqueues one job for a tenant, enforcing its
// quotas at admission, and returns the job with its status at
// admission (still queued: no worker can pop it before s.mu is
// released). A non-nil parent span (the HTTP request span)
// roots the job's trace under the caller's — so a coordinator-
// dispatched job shares the coordinator's trace id.
func (s *Server) submitAs(t *tenantState, req JobRequest, parent *obs.ActiveSpan) (*job, JobStatus, error) {
	rjob, err := s.buildJob(req)
	if err != nil {
		return nil, JobStatus{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.admitLocked(t, 1); err != nil {
		return nil, JobStatus{}, err
	}
	j := s.enqueueLocked(t, req, rjob, parent)
	s.logger.Info("job submitted",
		"tenant", t.cfg.Name, "job", j.id, "fingerprint", j.fp, "priority", j.priority,
		"trace_id", j.traceID)
	return j, j.status(), nil
}

// SubmitGrid expands the grid row-major and enqueues every job
// all-or-nothing as the anonymous tenant, returning the job IDs in
// grid order.
func (s *Server) SubmitGrid(req GridRequest) ([]string, error) {
	return s.submitGridAs(s.anonymous, req)
}

// submitGridAs is SubmitGrid for a tenant: the whole grid must fit the
// global queue AND the tenant's quotas, or nothing is admitted. Each
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
	for _, m := range req.Machines {
		for _, k := range req.Kernels {
			for _, sc := range scales {
				jr := JobRequest{Machine: m, Kernel: k, Scale: sc, Seed: req.Seed, Priority: req.Priority}
				rj, err := s.buildJob(jr)
				if err != nil {
					return nil, err
				}
				reqs = append(reqs, jr)
				rjobs = append(rjobs, rj)
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
		ids[i] = s.enqueueLocked(t, reqs[i], rjobs[i], nil).id
	}
	s.logger.Info("grid submitted", "tenant", t.cfg.Name, "jobs", len(ids))
	return ids, nil
}

// admitLocked is the two-level admission check — global queue bound
// first (503 queue_full), then the tenant's own quotas (429
// quota_exceeded); s.mu must be held. Rejections count as load
// shedding for the tenant and the server.
func (s *Server) admitLocked(t *tenantState, n int) error {
	if len(s.queue)+n > s.opts.QueueDepth {
		t.shed.Add(1)
		s.metrics.loadShed("queue_full")
		s.logger.Warn("load shed: queue full",
			"tenant", t.cfg.Name, "jobs", n, "queue_depth", len(s.queue), "queue_capacity", s.opts.QueueDepth)
		if n > 1 {
			return fmt.Errorf("%w: grid of %d jobs exceeds free queue capacity %d",
				ErrQueueFull, n, s.opts.QueueDepth-len(s.queue))
		}
		return ErrQueueFull
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

// enqueueLocked registers and queues a validated job for a tenant;
// s.mu must be held. The admission check happened at the caller, so
// the avail send cannot block. The requested priority is clamped to
// the tenant's ceiling here, so the heap never sees a priority the
// tenant was not entitled to.
//
// The job's root span starts here — admission IS the start of the
// job's timeline — as a child of the submitting request's span when
// one is given (continuing a coordinator's trace across the hop), or
// as a fresh root otherwise. The queue.wait child starts immediately
// and ends when a worker picks the job up.
func (s *Server) enqueueLocked(t *tenantState, req JobRequest, rjob runner.Job, parent *obs.ActiveSpan) *job {
	s.nextSeq++
	j := &job{
		id:        fmt.Sprintf("j-%08d", s.nextSeq),
		seq:       s.nextSeq,
		priority:  t.clampPriority(req.Priority),
		tenant:    t,
		req:       req,
		rjob:      rjob,
		fp:        rjob.Fingerprint(),
		state:     StateQueued,
		submitted: time.Now(),
		terminal:  make(chan struct{}),
		subs:      make(map[chan Event]struct{}),
	}
	if parent != nil {
		j.span = parent.StartChild("job " + j.id)
	} else {
		j.span = s.spans.StartRoot("job "+j.id, obs.SpanContext{})
	}
	j.span.SetAttr("job", j.id)
	j.span.SetAttr("tenant", t.cfg.Name)
	j.span.SetAttr("fingerprint", j.fp)
	if req.Kernel != "" {
		j.span.SetAttr("kernel", req.Kernel)
	}
	if req.TraceDigest != "" {
		j.span.SetAttr("trace_digest", req.TraceDigest)
	}
	j.traceID = j.span.TraceID()
	j.queueSpan = j.span.StartChild("queue.wait")
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.evictLocked()
	heap.Push(&s.queue, j)
	s.submitted.Add(1)
	t.submitted.Add(1)
	t.queued++
	s.avail <- struct{}{}
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
func (s *Server) lookupFor(t *tenantState, id string) (*job, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok || (s.multiTenant && j.tenant != t) {
		return nil, false
	}
	return j, true
}

// Stats snapshots the server counters into the versioned statsz
// schema: nested queue/cache/engine/tenants sections.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	depth := len(s.queue)
	running := s.running
	tenants := snapshotTenants(s.tenants, s.anonymous, s.multiTenant)
	s.mu.Unlock()
	uptime := time.Since(s.start).Seconds()
	st := ServerStats{
		SchemaVersion: SchemaVersion,
		UptimeSec:     uptime,
		Queue: QueueStats{
			Workers:   s.eng.Workers(),
			Capacity:  s.opts.QueueDepth,
			Depth:     depth,
			Running:   running,
			Submitted: s.submitted.Load(),
			Done:      s.done.Load(),
			Failed:    s.failed.Load(),
		},
		Cache: CacheStats{
			Hits:      s.eng.CacheHits(),
			PutErrors: s.eng.CachePutErrors(),
		},
		Engine: EngineStats{
			SimulationsExecuted: s.eng.Executed(),
			SimInstructions:     s.eng.SimInstructions(),
		},
		Tenants: tenants,
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

// worker drains the queue until Close. One avail token is one queued
// job, so a received token guarantees the pop succeeds.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.quit:
			return
		case <-s.avail:
			// A closed quit and a non-empty queue are both ready:
			// re-check quit so Close never starts new work (the select
			// above picks between ready cases at random).
			select {
			case <-s.quit:
				return
			default:
			}
			s.mu.Lock()
			j := heap.Pop(&s.queue).(*job)
			s.running++
			j.tenant.queued--
			j.tenant.running++
			s.mu.Unlock()
			s.execute(j)
			s.mu.Lock()
			s.running--
			j.tenant.running--
			s.mu.Unlock()
		}
	}
}

// execute runs one job through the engine, fanning progress out to
// every job that shares the fingerprint while it runs, and attributes
// the outcome — including how it was resolved — to the job's tenant.
func (s *Server) execute(j *job) {
	j.setRunning()
	s.fanoutAttach(j)
	r := s.eng.Run([]runner.Job{j.rjob})[0]
	s.fanoutDetach(j)
	j.runSpan.SetAttr("via", r.Via.String())
	j.runSpan.End()
	t := j.tenant
	if r.Err != nil {
		s.failed.Add(1)
		t.failed.Add(1)
		s.logger.Warn("job failed",
			"tenant", t.cfg.Name, "job", j.id, "fingerprint", j.fp, "via", r.Via.String(),
			"trace_id", j.traceID, "error", r.Err.Error())
	} else {
		s.done.Add(1)
		t.done.Add(1)
		if r.Via == runner.ViaCache {
			t.cacheHits.Add(1)
		}
		s.logger.Info("job done",
			"tenant", t.cfg.Name, "job", j.id, "fingerprint", j.fp, "via", r.Via.String(),
			"trace_id", j.traceID,
			"cycles", r.Res.Cycles, "instructions", r.Res.Instructions)
	}
	j.finish(r.Res, r.Err)
	// The duration histograms derive from the same span clock the trace
	// endpoints expose, so the two observability surfaces cannot drift.
	s.metrics.observeJob(r.Via.String(),
		j.queueSpan.EndTime().Sub(j.queueSpan.StartTime()),
		j.span.EndTime().Sub(j.span.StartTime()))
}

// fanout broadcasts core progress to the service jobs currently
// running one fingerprint.
type fanout struct {
	mu   sync.Mutex
	jobs []*job
}

func (f *fanout) add(j *job) {
	f.mu.Lock()
	f.jobs = append(f.jobs, j)
	f.mu.Unlock()
}

// parentSpan returns the first attached job's run span — the parent
// for the simulation's own spans. Reading j.runSpan here is safe: it
// is assigned before fanoutAttach publishes the job, and both the add
// and this read synchronize on f.mu.
func (f *fanout) parentSpan() *obs.ActiveSpan {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, j := range f.jobs {
		if j.runSpan != nil {
			return j.runSpan
		}
	}
	return nil
}

// remove drops j and returns the remaining count.
func (f *fanout) remove(j *job) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, x := range f.jobs {
		if x == j {
			f.jobs = append(f.jobs[:i], f.jobs[i+1:]...)
			break
		}
	}
	return len(f.jobs)
}

// publish delivers one progress snapshot to every attached job. Called
// from the simulation goroutine: it must stay cheap and non-blocking.
func (f *fanout) publish(p core.Progress) {
	f.mu.Lock()
	for _, j := range f.jobs {
		j.progress(p)
	}
	f.mu.Unlock()
}

// job is the server-side record of one submitted simulation.
type job struct {
	id       string
	seq      int64
	priority int
	tenant   *tenantState
	req      JobRequest
	rjob     runner.Job
	fp       string

	// Tracing: span is the job's root (admission→terminal), queueSpan
	// the queue.wait child, runSpan the job.run child the simulation's
	// own spans parent under. span/queueSpan/traceID are assigned once
	// at enqueue; runSpan once in setRunning, strictly before
	// fanoutAttach publishes the job — readers reach it through the
	// fanout's mutex, so no lock is needed on the field itself.
	span      *obs.ActiveSpan
	queueSpan *obs.ActiveSpan
	runSpan   *obs.ActiveSpan
	traceID   string

	mu        sync.Mutex
	state     string
	res       stats.Results
	hasRes    bool
	errMsg    string
	submitted time.Time
	started   time.Time
	finished  time.Time
	lastProg  core.Progress
	subs      map[chan Event]struct{}
	terminal  chan struct{}
}

// status snapshots the job as its wire representation.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

// statusLocked is status with j.mu held.
func (j *job) statusLocked() JobStatus {
	tenant := ""
	if j.tenant != nil {
		tenant = j.tenant.cfg.Name
	}
	st := JobStatus{
		ID:          j.id,
		State:       j.state,
		Tenant:      tenant,
		Kernel:      j.req.Kernel,
		Scale:       j.rjob.EffectiveScale(),
		Seed:        j.req.Seed,
		TraceDigest: j.req.TraceDigest,
		Priority:    j.priority,
		TraceID:     j.traceID,
		SubmittedAt: j.submitted,
		StartedAt:   j.started,
		FinishedAt:  j.finished,
		Error:       j.errMsg,
	}
	if j.req.TraceDigest != "" {
		st.Scale = 0
	}
	if j.hasRes {
		res := j.res
		st.Results = &res
	}
	return st
}

func (j *job) setRunning() {
	j.queueSpan.End()
	j.runSpan = j.span.StartChild("job.run")
	j.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	j.broadcastLocked(Event{State: StateRunning})
	j.mu.Unlock()
}

func (j *job) finish(res stats.Results, err error) {
	j.mu.Lock()
	j.finished = time.Now()
	if err != nil {
		j.state = StateFailed
		j.errMsg = err.Error()
		j.span.SetAttr("error", j.errMsg)
	} else {
		j.state = StateDone
		j.res = res
		j.hasRes = true
	}
	j.span.SetAttr("state", j.state)
	close(j.terminal)
	j.mu.Unlock()
	j.span.End()
}

// progress records a snapshot and broadcasts it to subscribers.
func (j *job) progress(p core.Progress) {
	j.mu.Lock()
	j.lastProg = p
	j.broadcastLocked(Event{
		State:        StateRunning,
		Cycles:       p.Cycle,
		Instructions: p.Instructions,
		IPC:          p.IPC(),
	})
	j.mu.Unlock()
}

// broadcastLocked delivers an event to every subscriber without
// blocking: a slow events reader drops intermediate progress, never
// stalls the simulation.
func (j *job) broadcastLocked(ev Event) {
	ev.TraceID = j.traceID
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// subscribe attaches an event channel and returns it with the current
// state snapshot; withStatus puts the job's status on the snapshot
// even when the job is not yet terminal.
func (j *job) subscribe(withStatus bool) (chan Event, Event) {
	ch := make(chan Event, 32)
	j.mu.Lock()
	j.subs[ch] = struct{}{}
	snap := j.snapshotEventLocked()
	if withStatus && snap.Job == nil {
		st := j.statusLocked()
		snap.Job = &st
	}
	j.mu.Unlock()
	return ch, snap
}

func (j *job) unsubscribe(ch chan Event) {
	j.mu.Lock()
	delete(j.subs, ch)
	j.mu.Unlock()
}

// snapshotEventLocked renders the job's current state as one event; a
// terminal one carries the final status.
func (j *job) snapshotEventLocked() Event {
	ev := Event{State: j.state, Error: j.errMsg, TraceID: j.traceID}
	switch {
	case j.hasRes:
		ev.Cycles = j.res.Cycles
		ev.Instructions = j.res.Instructions
		ev.IPC = j.res.IPC()
	case j.lastProg.Cycle > 0:
		ev.Cycles = j.lastProg.Cycle
		ev.Instructions = j.lastProg.Instructions
		ev.IPC = j.lastProg.IPC()
	}
	if j.state == StateDone || j.state == StateFailed {
		st := j.statusLocked()
		ev.Job = &st
	}
	return ev
}

// terminalEvent is the final NDJSON line of an events stream.
func (j *job) terminalEvent() Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapshotEventLocked()
}

// jobHeap orders the queue by (priority desc, submission seq asc):
// deterministic pop order regardless of worker count.
type jobHeap []*job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(a, b int) bool {
	if h[a].priority != h[b].priority {
		return h[a].priority > h[b].priority
	}
	return h[a].seq < h[b].seq
}
func (h jobHeap) Swap(a, b int) { h[a], h[b] = h[b], h[a] }
func (h *jobHeap) Push(x any)   { *h = append(*h, x.(*job)) }
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}

var _ http.Handler = (*Server)(nil)
