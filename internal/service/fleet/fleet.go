// Package fleet is the coordinator side of clusterd fleet mode: one
// process that admits jobs and grids exactly once, deterministically
// partitions them across N clusterd replicas by fingerprint hash, fans
// the shards out with idempotent retries, and reassembles statuses,
// results and NDJSON event streams so a caller cannot tell the fleet
// from a single box — same wire types, same error envelopes,
// byte-identical results JSON.
//
// Determinism is the load-bearing property, in the Bobpp style of
// deterministic work partitioning (PAPERS.md): a job's home replica is
// a pure function of its fingerprint and the *configured* replica list
// — never of load, timing, or which replicas happen to be up. The
// simulator itself is deterministic and results are content-addressed,
// so rerouting a shard around a dead replica changes where the work
// runs, never what it produces; a 1-replica and an N-replica fleet
// answer byte-identically. Retries are idempotent for the same reason:
// the worst a duplicated dispatch can do is warm the shared result
// cache twice.
package fleet

import (
	"context"
	"fmt"
	"hash/fnv"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"clustervp/internal/obs"
	"clustervp/internal/runner"
	"clustervp/internal/service"
	"clustervp/internal/service/client"
	"clustervp/internal/stats"
	"clustervp/internal/workload"
)

// Options configure a Coordinator.
type Options struct {
	// Replicas are the clusterd base URLs forming the shard space, e.g.
	// ["http://10.0.0.1:8090", "http://10.0.0.2:8090"]. Order matters:
	// shard assignment hashes into this list, so every coordinator of a
	// fleet must be configured with the same list in the same order.
	Replicas []string
	// QueueDepth bounds in-flight (queued+running) jobs fleet-wide at
	// admission (<=0 = 1024); past it, submissions get the same 503
	// queue_full envelope a saturated single box sends.
	QueueDepth int
	// MaxJobRecords bounds retained job records (<=0 = 16384), evicting
	// the oldest terminal records first, exactly like the single box.
	MaxJobRecords int
	// ProbeInterval paces the /v1/healthz probe loop (<=0 = 2s).
	ProbeInterval time.Duration
	// DownAfter is how many consecutive probe failures demote a replica
	// from draining to down (<=0 = 3).
	DownAfter int
	// APIKey authenticates dispatches against multi-tenant replicas.
	APIKey string
	// Retry is the per-dispatch client policy (zero = 4 attempts, 100ms
	// base). The coordinator's failover across replicas sits above it.
	Retry client.RetryPolicy
	// HTTPClient overrides the transport shared by all replica clients;
	// tests route it through a fault-injecting RoundTripper. Nil = a
	// plain http.Client.
	HTTPClient *http.Client
	// Logger receives structured dispatch and health logs; nil discards.
	Logger *slog.Logger
	// SpanRing bounds the coordinator's finished-span ring
	// (<=0 = obs.DefaultRingSize). Tracing is always on.
	SpanRing int
}

// Coordinator fans a job stream out across replicas. Create with New,
// expose with Handler, stop with Close.
type Coordinator struct {
	opts     Options
	replicas []*replica
	start    time.Time
	logger   *slog.Logger
	handler  http.Handler
	spans    *obs.Collector

	mu       sync.Mutex
	jobs     map[string]*fleetJob
	order    []string
	nextSeq  int64
	inflight int // non-terminal jobs, bounded by QueueDepth

	submitted, done, failed atomic.Int64
	// resubmits counts shard dispatches beyond the first — the fleet's
	// duplicate-work ceiling, surfaced in statsz and pinned by the
	// chaos test.
	resubmits atomic.Int64

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// New builds and starts a coordinator (health probes run until Close).
func New(opts Options) (*Coordinator, error) {
	if len(opts.Replicas) == 0 {
		return nil, fmt.Errorf("fleet: at least one replica is required")
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 1024
	}
	if opts.MaxJobRecords <= 0 {
		opts.MaxJobRecords = 16384
	}
	if opts.MaxJobRecords < opts.QueueDepth {
		opts.MaxJobRecords = opts.QueueDepth
	}
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = 2 * time.Second
	}
	if opts.DownAfter <= 0 {
		opts.DownAfter = 3
	}
	if opts.Retry.MaxAttempts == 0 {
		opts.Retry = client.RetryPolicy{MaxAttempts: 4, BaseDelay: 100 * time.Millisecond}
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	ctx, cancel := context.WithCancel(context.Background())
	co := &Coordinator{
		opts:   opts,
		start:  time.Now(),
		logger: logger,
		spans:  obs.NewCollector("coordinator", opts.SpanRing),
		jobs:   make(map[string]*fleetJob),
		ctx:    ctx,
		cancel: cancel,
	}
	for i, base := range opts.Replicas {
		copts := []client.Option{client.WithRetry(opts.Retry)}
		if opts.HTTPClient != nil {
			copts = append(copts, client.WithHTTPClient(opts.HTTPClient))
		}
		if opts.APIKey != "" {
			copts = append(copts, client.WithAPIKey(opts.APIKey))
		}
		co.replicas = append(co.replicas, &replica{
			name:  fmt.Sprintf("replica-%d", i),
			base:  base,
			c:     client.New(base, copts...),
			state: replicaUp,
		})
	}
	co.handler = co.buildHandler()
	co.wg.Add(1)
	go co.probeLoop()
	return co, nil
}

// Close stops the probe loop and aborts in-flight dispatches.
func (co *Coordinator) Close() {
	co.cancel()
	co.wg.Wait()
}

// shardKey is the deterministic partitioning key of a request: the
// same content-addressed identity the replicas' result cache keys on
// (for trace jobs the trace's digest stands in for its local path, so
// the key is identical no matter which box stores the trace). Building
// it also validates the request, so a bad spec is a 400 at the
// coordinator and never burns a dispatch.
func shardKey(req service.JobRequest) (string, error) {
	cfg, err := req.Machine.Build()
	if err != nil {
		return "", fmt.Errorf("%w: machine: %v", service.ErrBadRequest, err)
	}
	switch {
	case req.TraceDigest != "" && req.Kernel != "":
		return "", fmt.Errorf("%w: kernel and trace_digest are mutually exclusive", service.ErrBadRequest)
	case req.TraceDigest != "":
		cfg.Name = ""
		return fmt.Sprintf("%+v|trace:%s", cfg, req.TraceDigest), nil
	case req.Kernel != "":
		if _, err := workload.ByName(req.Kernel); err != nil {
			return "", fmt.Errorf("%w: %v", service.ErrBadRequest, err)
		}
		j := runner.Job{Config: cfg, Kernel: req.Kernel, Scale: req.Scale, Seed: req.Seed}
		return j.Fingerprint(), nil
	default:
		return "", fmt.Errorf("%w: one of kernel or trace_digest is required", service.ErrBadRequest)
	}
}

// shardOf maps a key onto the configured replica list: FNV-1a 64 mod
// N. Pure function of (key, configured list) — health never moves the
// home slot, it only reroutes execution.
func (co *Coordinator) shardOf(key string) int {
	h := fnv.New64a()
	h.Write([]byte(key))
	return int(h.Sum64() % uint64(len(co.replicas)))
}

// Submit validates and admits one job, returning its queued snapshot.
func (co *Coordinator) Submit(req service.JobRequest) (service.JobStatus, error) {
	j, err := co.admitOne(req, nil)
	if err != nil {
		return service.JobStatus{}, err
	}
	return j.status(), nil
}

// admitOne admits one job, parenting its trace under the caller's
// request span when one exists — this is how a traceparent that arrived
// on POST /v1/jobs threads through the coordinator into the replica.
func (co *Coordinator) admitOne(req service.JobRequest, parent *obs.ActiveSpan) (*fleetJob, error) {
	jobs, err := co.admit([]service.JobRequest{req}, parent)
	if err != nil {
		return nil, err
	}
	return jobs[0], nil
}

// SubmitGrid expands machines × kernels × scales row-major — the exact
// expansion the single box performs — and admits the whole grid
// all-or-nothing.
func (co *Coordinator) SubmitGrid(req service.GridRequest) ([]string, error) {
	if len(req.Machines) == 0 || len(req.Kernels) == 0 {
		return nil, fmt.Errorf("%w: a grid needs at least one machine and one kernel", service.ErrBadRequest)
	}
	scales := req.Scales
	if len(scales) == 0 {
		scales = []int{1}
	}
	var reqs []service.JobRequest
	for _, m := range req.Machines {
		for _, k := range req.Kernels {
			for _, sc := range scales {
				reqs = append(reqs, service.JobRequest{
					Machine: m, Kernel: k, Scale: sc, Seed: req.Seed, Priority: req.Priority,
				})
			}
		}
	}
	// Grid-expanded jobs each root their own trace (one trace per job);
	// only a single-job submit continues the caller's trace.
	jobs, err := co.admit(reqs, nil)
	if err != nil {
		return nil, err
	}
	ids := make([]string, len(jobs))
	for i, j := range jobs {
		ids[i] = j.id
	}
	return ids, nil
}

// admit validates every request, checks fleet-wide backpressure, and
// registers + dispatches the batch all-or-nothing.
func (co *Coordinator) admit(reqs []service.JobRequest, parent *obs.ActiveSpan) ([]*fleetJob, error) {
	keys := make([]string, len(reqs))
	for i, r := range reqs {
		k, err := shardKey(r)
		if err != nil {
			return nil, err
		}
		keys[i] = k
	}
	if co.liveReplicas() == 0 {
		// The whole fleet is unreachable: same degraded answer as a
		// saturated single box, so clients back off instead of erroring.
		return nil, fmt.Errorf("%w: no live replicas", service.ErrQueueFull)
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.inflight+len(reqs) > co.opts.QueueDepth {
		if len(reqs) > 1 {
			return nil, fmt.Errorf("%w: grid of %d jobs exceeds free fleet capacity %d",
				service.ErrQueueFull, len(reqs), co.opts.QueueDepth-co.inflight)
		}
		return nil, service.ErrQueueFull
	}
	jobs := make([]*fleetJob, len(reqs))
	for i, r := range reqs {
		co.nextSeq++
		j := &fleetJob{
			id:        fmt.Sprintf("f-%08d", co.nextSeq),
			req:       r,
			key:       keys[i],
			shard:     co.shardOf(keys[i]),
			state:     service.StateQueued,
			submitted: time.Now(),
			terminal:  make(chan struct{}),
			subs:      make(map[chan service.Event]struct{}),
		}
		if parent != nil {
			j.span = parent.StartChild("job " + j.id)
		} else {
			j.span = co.spans.StartRoot("job "+j.id, obs.SpanContext{})
		}
		j.span.SetAttr("job", j.id)
		j.span.SetAttr("shard", strconv.Itoa(j.shard))
		j.span.SetAttr("shard_key", j.key)
		if r.Kernel != "" {
			j.span.SetAttr("kernel", r.Kernel)
		}
		if r.TraceDigest != "" {
			j.span.SetAttr("trace_digest", r.TraceDigest)
		}
		j.traceID = j.span.TraceID()
		co.jobs[j.id] = j
		co.order = append(co.order, j.id)
		co.inflight++
		co.submitted.Add(1)
		jobs[i] = j
		co.wg.Add(1)
		go co.dispatch(j)
	}
	co.evictLocked()
	co.logger.Info("fleet admitted", "jobs", len(jobs), "inflight", co.inflight)
	return jobs, nil
}

// evictLocked drops the oldest terminal records past the retention
// bound; co.mu must be held.
func (co *Coordinator) evictLocked() {
	if len(co.jobs) <= co.opts.MaxJobRecords {
		return
	}
	kept := co.order[:0]
	for i, id := range co.order {
		if len(co.jobs) <= co.opts.MaxJobRecords {
			kept = append(kept, co.order[i:]...)
			break
		}
		j := co.jobs[id]
		if j == nil {
			continue
		}
		if j.isTerminal() {
			delete(co.jobs, id)
			continue
		}
		kept = append(kept, id)
	}
	co.order = kept
}

// Status returns a job's status snapshot.
func (co *Coordinator) Status(id string) (service.JobStatus, error) {
	co.mu.Lock()
	j, ok := co.jobs[id]
	co.mu.Unlock()
	if !ok {
		return service.JobStatus{}, service.ErrNoSuchJob
	}
	return j.status(), nil
}

// dispatch walks the failover ring until the job reaches a terminal
// state: home replica first, then the next live replica in ring order.
// A replica that fails mid-shard (transport error, broken stream,
// exhausted retries) costs a resubmission elsewhere — bounded
// duplicate work, since the shared content-addressed cache absorbs
// anything the failed replica already published.
func (co *Coordinator) dispatch(j *fleetJob) {
	defer co.wg.Done()
	defer co.finishInflight()
	for attempt := 0; ; attempt++ {
		if attempt > 0 && attempt%len(co.replicas) == 0 {
			// A full ring failed: pause a probe period so the loop
			// paces the fleet's recovery instead of hammering it.
			select {
			case <-co.ctx.Done():
				j.fail("fleet: coordinator shut down before the job completed", "")
				return
			case <-time.After(co.opts.ProbeInterval):
			}
		}
		r := co.pick(j.shard, attempt)
		if r == nil {
			// Nothing live right now: wait a probe period for the
			// health loop to resurrect something, then rescan.
			select {
			case <-co.ctx.Done():
				j.fail("fleet: coordinator shut down before the job completed", "")
				return
			case <-time.After(co.opts.ProbeInterval):
				continue
			}
		}
		if attempt > 0 {
			co.resubmits.Add(1)
			co.logger.Warn("fleet resubmitting shard",
				"job", j.id, "replica", r.name, "attempt", attempt,
				"trace_id", j.traceID)
		}
		// One span per dispatch attempt, all siblings under the job
		// span: a failover shows up in the timeline as a second
		// fleet.dispatch span with attempt=1 next to the failed one.
		sp := j.span.StartChild("fleet.dispatch")
		sp.SetAttr("replica", r.name)
		sp.SetAttr("attempt", strconv.Itoa(attempt))
		done := co.runOn(r, j, sp)
		sp.SetAttr("delivered", strconv.FormatBool(done))
		sp.End()
		if done {
			return
		}
		r.dispatchFailed()
		if co.ctx.Err() != nil {
			j.fail("fleet: coordinator shut down before the job completed", "")
			return
		}
	}
}

// finishInflight releases the job's admission slot.
func (co *Coordinator) finishInflight() {
	co.mu.Lock()
	co.inflight--
	co.mu.Unlock()
}

// runOn runs the whole shard lifecycle against one replica in one
// streamed submit: the replica's events are forwarded to the job's
// subscribers, and its terminal line carries the final status. It
// reports true when the job reached a terminal state — including a
// *deterministic* simulation failure, which no other replica would
// decide differently — and false when the replica itself failed and
// the ring should move on. The dispatch-attempt span rides the context
// so the replica-bound submit carries a traceparent and the replica's
// job continues this job's trace.
func (co *Coordinator) runOn(r *replica, j *fleetJob, sp *obs.ActiveSpan) (delivered bool) {
	ctx := obs.NewContext(co.ctx, sp)
	// The bracket opens before the send: a replica killed after
	// admitting the shard but before its first line arrives has
	// orphaned it all the same.
	r.started()
	defer func() { r.finished(delivered) }()
	st, err := r.c.SubmitStream(ctx, j.req, func(ev service.Event) error {
		j.observe(ev, r.name)
		return nil
	})
	if err != nil {
		if st.ID == "" {
			co.logger.Warn("fleet submit failed", "job", j.id, "replica", r.name, "error", err)
			return false
		}
		// Stream broke before a terminal event: poll once — the job may
		// have finished during the disconnect; otherwise fail over.
		var serr error
		st, serr = r.c.Status(ctx, st.ID)
		if serr != nil || (st.State != service.StateDone && st.State != service.StateFailed) {
			co.logger.Warn("fleet stream broke", "job", j.id, "replica", r.name, "error", err)
			return false
		}
	}
	switch st.State {
	case service.StateDone:
		j.complete(st, r.name)
		co.done.Add(1)
		co.logger.Info("fleet job done", "job", j.id, "replica", r.name, "trace_id", j.traceID)
		return true
	case service.StateFailed:
		// The simulator is deterministic: a failed simulation fails
		// everywhere. Retrying elsewhere would only duplicate the loss.
		j.fail(st.Error, r.name)
		co.failed.Add(1)
		co.logger.Info("fleet job failed", "job", j.id, "replica", r.name, "error", st.Error, "trace_id", j.traceID)
		return true
	default:
		co.logger.Warn("fleet replica returned non-terminal state",
			"job", j.id, "replica", r.name, "state", st.State)
		return false
	}
}

// fleetJob is the coordinator's job record: the same
// subscribe/broadcast shape as the single box's job, holding the
// remote result once a replica delivers it.
type fleetJob struct {
	id    string
	req   service.JobRequest
	key   string // shard key (fingerprint)
	shard int    // home replica index

	// span is the job's root (or request-parented) trace span, assigned
	// once in admit before the dispatch goroutine starts; traceID is its
	// immutable trace id, safe to read without j.mu.
	span    *obs.ActiveSpan
	traceID string

	mu        sync.Mutex
	state     string
	replica   string // replica that delivered the terminal state
	errMsg    string
	results   *stats.Results
	submitted time.Time
	started   time.Time
	finished  time.Time
	last      service.Event

	terminal chan struct{}
	subs     map[chan service.Event]struct{}
}

func (j *fleetJob) isTerminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state == service.StateDone || j.state == service.StateFailed
}

// status snapshots the job in the single box's wire shape, plus the
// replica attribution (omitted from JSON while empty, so a 1-replica
// fleet's payloads only differ in that one field).
func (j *fleetJob) status() service.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

// statusLocked is status with j.mu held.
func (j *fleetJob) statusLocked() service.JobStatus {
	return service.JobStatus{
		ID:          j.id,
		State:       j.state,
		Kernel:      j.req.Kernel,
		Scale:       j.req.Scale,
		Seed:        j.req.Seed,
		TraceDigest: j.req.TraceDigest,
		Priority:    j.req.Priority,
		Replica:     j.replica,
		TraceID:     j.traceID,
		SubmittedAt: j.submitted,
		StartedAt:   j.started,
		FinishedAt:  j.finished,
		Error:       j.errMsg,
		Results:     j.results,
	}
}

// observe forwards one replica event to subscribers, tracking the
// running transition. Terminal events are NOT forwarded here — the
// terminal broadcast happens exactly once in complete/fail, so a
// failover cannot leak a premature terminal line. The replica's own
// job status is dropped: the coordinator's lines carry the
// coordinator's.
func (j *fleetJob) observe(ev service.Event, replica string) {
	if ev.State == service.StateDone || ev.State == service.StateFailed {
		return
	}
	ev.Job = nil
	j.mu.Lock()
	if j.state == service.StateQueued && ev.State == service.StateRunning {
		j.state = service.StateRunning
		j.started = time.Now()
		j.replica = replica
	}
	j.last = ev
	subs := make([]chan service.Event, 0, len(j.subs))
	for ch := range j.subs {
		subs = append(subs, ch)
	}
	j.mu.Unlock()
	for _, ch := range subs {
		select {
		case ch <- ev:
		default: // a slow subscriber drops progress, never blocks the fleet
		}
	}
}

// complete records the terminal done state exactly once.
func (j *fleetJob) complete(st service.JobStatus, replica string) {
	j.mu.Lock()
	if j.state == service.StateDone || j.state == service.StateFailed {
		j.mu.Unlock()
		return
	}
	j.state = service.StateDone
	j.replica = replica
	j.results = st.Results
	if j.started.IsZero() {
		j.started = st.StartedAt
	}
	j.finished = time.Now()
	j.mu.Unlock()
	j.span.SetAttr("state", service.StateDone)
	j.span.SetAttr("replica", replica)
	j.span.End()
	close(j.terminal)
}

// fail records the terminal failed state exactly once.
func (j *fleetJob) fail(msg, replica string) {
	j.mu.Lock()
	if j.state == service.StateDone || j.state == service.StateFailed {
		j.mu.Unlock()
		return
	}
	j.state = service.StateFailed
	j.errMsg = msg
	if replica != "" {
		j.replica = replica
	}
	j.finished = time.Now()
	j.mu.Unlock()
	j.span.SetAttr("state", service.StateFailed)
	j.span.SetAttr("error", msg)
	if replica != "" {
		j.span.SetAttr("replica", replica)
	}
	j.span.End()
	close(j.terminal)
}

// subscribe registers for events and returns the channel plus the
// current snapshot-as-event; withStatus puts the job's status on the
// snapshot even when the job is not yet terminal.
func (j *fleetJob) subscribe(withStatus bool) (chan service.Event, service.Event) {
	ch := make(chan service.Event, 16)
	j.mu.Lock()
	defer j.mu.Unlock()
	j.subs[ch] = struct{}{}
	ev := j.snapshotEventLocked()
	if withStatus && ev.Job == nil {
		st := j.statusLocked()
		ev.Job = &st
	}
	return ch, ev
}

func (j *fleetJob) unsubscribe(ch chan service.Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	delete(j.subs, ch)
}

// snapshotEventLocked renders the current state as one event line; a
// terminal line carries the final status. Synthesized lines carry the
// coordinator-side trace id; forwarded
// replica progress already carries the same id, because the replica's
// job continued this trace over the dispatch hop.
func (j *fleetJob) snapshotEventLocked() service.Event {
	switch j.state {
	case service.StateRunning:
		if j.last.State == service.StateRunning {
			return j.last
		}
		return service.Event{State: service.StateRunning, TraceID: j.traceID}
	case service.StateDone, service.StateFailed:
		st := j.statusLocked()
		return service.Event{State: j.state, Error: j.errMsg, TraceID: j.traceID, Job: &st}
	default:
		return service.Event{State: service.StateQueued, TraceID: j.traceID}
	}
}

// terminalEvent is the final stream line.
func (j *fleetJob) terminalEvent() service.Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapshotEventLocked()
}
