// Package fleet is the coordinator side of clusterd fleet mode: one
// process that admits jobs and grids exactly once, deterministically
// partitions them across N clusterd replicas by fingerprint hash, fans
// the shards out with idempotent retries, and relays their statuses,
// results and NDJSON event streams. The coordinator is a
// service.Server over a dispatching backend, so its routes, error
// envelopes, tenants, job records, tracez and /metrics are the single
// box's own, and a caller cannot tell the fleet from a single box
// except by statsz, healthz and the replica named on each job.
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
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"clustervp/internal/config"
	"clustervp/internal/obs"
	"clustervp/internal/runner"
	"clustervp/internal/service"
	"clustervp/internal/service/client"
	"clustervp/internal/stats"
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
	// Logger receives structured request, dispatch and health logs; nil
	// discards them.
	Logger *slog.Logger
	// SpanRing bounds the coordinator's finished-span ring
	// (<=0 = obs.DefaultRingSize). Tracing is always on.
	SpanRing int
}

// Coordinator is a service.Server whose jobs run on the fleet. Create
// with New, expose with Handler, stop with Close.
type Coordinator struct {
	*service.Server
	d *dispatcher
}

// New builds and starts a coordinator (health probes run until Close).
// With tenants, the coordinator authenticates callers and enforces
// their quotas exactly like a multi-tenant single box.
func New(opts Options, tenants ...service.Tenant) (*Coordinator, error) {
	if len(opts.Replicas) == 0 {
		return nil, fmt.Errorf("fleet: at least one replica is required")
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 1024
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
	d := &dispatcher{opts: opts, logger: logger}
	for i, base := range opts.Replicas {
		copts := []client.Option{client.WithRetry(opts.Retry)}
		if opts.HTTPClient != nil {
			copts = append(copts, client.WithHTTPClient(opts.HTTPClient))
		}
		if opts.APIKey != "" {
			copts = append(copts, client.WithAPIKey(opts.APIKey))
		}
		d.replicas = append(d.replicas, &replica{
			name:  fmt.Sprintf("replica-%d", i),
			base:  base,
			c:     client.New(base, copts...),
			state: replicaUp,
		})
	}
	srv, err := service.NewWith(service.Options{
		QueueDepth: opts.QueueDepth,
		Tenants:    tenants,
		SpanRing:   opts.SpanRing,
		Logger:     logger,
	}, d)
	if err != nil {
		return nil, err
	}
	d.srv = srv
	d.ctx, d.cancel = context.WithCancel(context.Background())
	d.wg.Add(1)
	go d.probeLoop()
	return &Coordinator{Server: srv, d: d}, nil
}

// Stats snapshots the coordinator counters and per-replica health:
// the GET /v1/statsz payload of a coordinator.
func (co *Coordinator) Stats() Stats { return co.d.stats() }

// dispatcher is the coordinator's service.Backend: it shards each
// admitted job onto a replica, runs it there, and fails it over around
// dead replicas.
type dispatcher struct {
	opts     Options
	replicas []*replica
	logger   *slog.Logger
	srv      *service.Server

	// resubmits counts shard dispatches beyond the first — the fleet's
	// duplicate-work ceiling, surfaced in statsz and pinned by the
	// chaos test.
	resubmits atomic.Int64

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

func (d *dispatcher) Names() (string, string) { return "coordinator", "f" }

// TraceJob keys a trace job by the trace's digest, which stands in for
// the local path a replica replays it from: the key is identical no
// matter which box stores the trace.
func (d *dispatcher) TraceJob(cfg config.Config, digest string) (runner.Job, string, error) {
	cfg.Name = ""
	return runner.Job{Config: cfg}, fmt.Sprintf("%+v|trace:%s", cfg, digest), nil
}

// Free bounds the in-flight jobs, and takes none while no replica is
// live: the same degraded answer as a saturated single box, so clients
// back off instead of erroring.
func (d *dispatcher) Free(queued, running int) (int, error) {
	if d.liveReplicas() == 0 {
		return 0, fmt.Errorf("%w: no live replicas", service.ErrQueueFull)
	}
	return d.opts.QueueDepth - queued - running, nil
}

// Start assigns the job its home shard and dispatches it.
func (d *dispatcher) Start(j *service.Job) {
	shard := d.shardOf(j.Fingerprint())
	j.Span().SetAttr("shard", strconv.Itoa(shard))
	j.Span().SetAttr("shard_key", j.Fingerprint())
	d.wg.Add(1)
	go d.dispatch(j, shard)
}

func (d *dispatcher) Statsz() any { return d.stats() }

func (d *dispatcher) Healthz() any { return map[string]any{"ok": true, "role": "coordinator"} }

// JobSpans fetches a trace's replica-side spans live from every
// reachable replica's /v1/tracez?trace_id=: the replica that ran the
// job contributes its admission→queue→run→sim spans, all under the
// coordinator's trace id thanks to traceparent propagation on the
// dispatch hop. An unreachable replica is skipped, not an error: a
// partial timeline beats none while a box is down.
func (d *dispatcher) JobSpans(ctx context.Context, traceID string) []obs.Span {
	var spans []obs.Span
	for _, rep := range d.replicas {
		if rep.health() == replicaDown {
			continue
		}
		tz, err := rep.c.Tracez(ctx, traceID, 0)
		if err != nil {
			d.logger.Warn("fleet trace fetch failed", "replica", rep.name, "error", err)
			continue
		}
		spans = append(spans, tz.Spans...)
	}
	return spans
}

// Close stops the probe loop and aborts in-flight dispatches.
func (d *dispatcher) Close() {
	d.cancel()
	d.wg.Wait()
}

// shardOf maps a key onto the configured replica list: FNV-1a 64 mod
// N. Pure function of (key, configured list) — health never moves the
// home slot, it only reroutes execution.
func (d *dispatcher) shardOf(key string) int {
	h := fnv.New64a()
	h.Write([]byte(key))
	return int(h.Sum64() % uint64(len(d.replicas)))
}

// errShutdown fails the jobs a closing coordinator had not finished.
var errShutdown = errors.New("fleet: coordinator shut down before the job completed")

// dispatch walks the failover ring until the job reaches a terminal
// state: home replica first, then the next live replica in ring order.
// A replica that fails mid-shard (transport error, broken stream,
// exhausted retries) costs a resubmission elsewhere — bounded
// duplicate work, since the shared content-addressed cache absorbs
// anything the failed replica already published. The job is terminal
// when dispatch returns, so its record drops what only a live job uses.
func (d *dispatcher) dispatch(j *service.Job, shard int) {
	defer d.wg.Done()
	defer j.Release()
	for attempt := 0; ; attempt++ {
		if attempt > 0 && attempt%len(d.replicas) == 0 {
			// A full ring failed: pause a probe period so the loop
			// paces the fleet's recovery instead of hammering it.
			select {
			case <-d.ctx.Done():
				j.Finish(stats.Results{}, errShutdown, "", time.Time{})
				return
			case <-time.After(d.opts.ProbeInterval):
			}
		}
		r := d.pick(shard, attempt)
		if r == nil {
			// Nothing live right now: wait a probe period for the
			// health loop to resurrect something, then rescan.
			select {
			case <-d.ctx.Done():
				j.Finish(stats.Results{}, errShutdown, "", time.Time{})
				return
			case <-time.After(d.opts.ProbeInterval):
				continue
			}
		}
		if attempt > 0 {
			d.resubmits.Add(1)
			d.logger.Warn("fleet resubmitting shard",
				"job", j.ID(), "replica", r.name, "attempt", attempt,
				"trace_id", j.TraceID())
		}
		// One span per dispatch attempt, all siblings under the job
		// span: a failover shows up in the timeline as a second
		// fleet.dispatch span with attempt=1 next to the failed one.
		sp := j.Span().StartChild("fleet.dispatch")
		sp.SetAttr("replica", r.name)
		sp.SetAttr("attempt", strconv.Itoa(attempt))
		done := d.runOn(r, j, sp)
		sp.SetAttr("delivered", strconv.FormatBool(done))
		sp.End()
		if done {
			return
		}
		r.dispatchFailed()
		if d.ctx.Err() != nil {
			j.Finish(stats.Results{}, errShutdown, "", time.Time{})
			return
		}
	}
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
func (d *dispatcher) runOn(r *replica, j *service.Job, sp *obs.ActiveSpan) (delivered bool) {
	ctx := obs.NewContext(d.ctx, sp)
	// The bracket opens before the send: a replica killed after
	// admitting the shard but before its first line arrives has
	// orphaned it all the same.
	r.started()
	defer func() { r.finished(delivered) }()
	st, err := r.c.SubmitStream(ctx, j.Request(), func(ev service.Event) error {
		j.Forward(ev, r.name)
		return nil
	})
	if err != nil {
		if st.ID == "" {
			d.logger.Warn("fleet submit failed", "job", j.ID(), "replica", r.name, "error", err)
			return false
		}
		// Stream broke before a terminal event: poll once — the job may
		// have finished during the disconnect; otherwise fail over.
		var serr error
		st, serr = r.c.Status(ctx, st.ID)
		if serr != nil || (st.State != service.StateDone && st.State != service.StateFailed) {
			d.logger.Warn("fleet stream broke", "job", j.ID(), "replica", r.name, "error", err)
			return false
		}
	}
	// A replica whose job finished before the stream's first snapshot
	// sends no running line; its terminal status still dates the start.
	switch st.State {
	case service.StateDone:
		var res stats.Results
		if st.Results != nil {
			res = *st.Results
		}
		j.Finish(res, nil, r.name, st.StartedAt)
		d.logger.Info("fleet job done", "job", j.ID(), "replica", r.name, "trace_id", j.TraceID())
		return true
	case service.StateFailed:
		// The simulator is deterministic: a failed simulation fails
		// everywhere. Retrying elsewhere would only duplicate the loss.
		j.Finish(stats.Results{}, errors.New(st.Error), r.name, st.StartedAt)
		d.logger.Info("fleet job failed", "job", j.ID(), "replica", r.name, "error", st.Error, "trace_id", j.TraceID())
		return true
	default:
		d.logger.Warn("fleet replica returned non-terminal state",
			"job", j.ID(), "replica", r.name, "state", st.State)
		return false
	}
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

// stats folds the server's job counters and each replica's health into
// the fleet statsz shape.
func (d *dispatcher) stats() Stats {
	ss := d.srv.Stats()
	st := Stats{
		SchemaVersion: service.SchemaVersion,
		Role:          "coordinator",
		UptimeSec:     ss.UptimeSec,
		Coordinator: CoordinatorStats{
			Capacity:   ss.Queue.Capacity,
			InFlight:   ss.Queue.Depth + ss.Queue.Running,
			Submitted:  ss.Queue.Submitted,
			Done:       ss.Queue.Done,
			Failed:     ss.Queue.Failed,
			Resubmits:  d.resubmits.Load(),
			LiveShards: d.liveReplicas(),
		},
	}
	for _, r := range d.replicas {
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
