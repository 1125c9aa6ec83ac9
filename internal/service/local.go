package service

// The local backend: a single box runs the jobs it admits itself. A
// bounded priority queue feeds a worker pool, the runner.Engine
// resolves each job from the memo, the persistent result cache or a
// simulation, and simulation progress fans out to every job sharing
// the fingerprint.

import (
	"container/heap"
	"context"
	"fmt"
	"sync"
	"time"

	"clustervp/internal/config"
	"clustervp/internal/core"
	"clustervp/internal/obs"
	"clustervp/internal/runner"
	"clustervp/internal/stats"
	"clustervp/internal/trace"
)

// local is the worker-pool Backend New starts.
type local struct {
	s     *Server
	queue jobHeap // guarded by s.mu

	// avail carries one token per queued job; workers block on it, so a
	// token received guarantees a non-empty queue.
	avail chan struct{}
	quit  chan struct{}
	wg    sync.WaitGroup

	// fanouts fans simulation progress out to every job currently
	// running one fingerprint (the engine deduplicates executions;
	// events must not be deduplicated with them). All registry
	// mutations happen under fanMu so a finishing job's
	// remove-and-delete cannot race a starting job's lookup-or-create
	// into a dropped registration.
	fanMu   sync.Mutex
	fanouts map[string]*fanout
}

// newLocal opens the server's result cache and trace store, builds its
// engine and starts the workers.
func newLocal(s *Server) (*local, error) {
	var cache *runner.Cache
	if s.opts.CacheDir != "" {
		c, err := runner.OpenCache(s.opts.CacheDir)
		if err != nil {
			return nil, fmt.Errorf("service: result cache: %w", err)
		}
		cache = c
	}
	if s.opts.TraceDir != "" {
		st, err := trace.NewStore(s.opts.TraceDir)
		if err != nil {
			return nil, fmt.Errorf("service: trace store: %w", err)
		}
		s.store = st
	}
	l := &local{
		s:       s,
		avail:   make(chan struct{}, s.opts.QueueDepth),
		quit:    make(chan struct{}),
		fanouts: make(map[string]*fanout),
	}
	s.eng = runner.New(runner.Options{Workers: s.opts.Workers, Cache: cache, Run: l.simulate})
	for i := 0; i < s.eng.Workers(); i++ {
		l.wg.Add(1)
		go l.worker()
	}
	return l, nil
}

func (l *local) Names() (string, string) { return "clusterd", "j" }

// TraceJob resolves the digest in the server's trace store.
func (l *local) TraceJob(cfg config.Config, digest string) (runner.Job, string, error) {
	store := l.s.store
	if store == nil {
		return runner.Job{}, "", fmt.Errorf("%w: this server has no trace store", ErrBadRequest)
	}
	path, err := store.Path(digest)
	if err != nil {
		return runner.Job{}, "", fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if !store.Has(digest) {
		return runner.Job{}, "", fmt.Errorf("%w: trace %s not uploaded", ErrBadRequest, digest)
	}
	rj := runner.StoredTraceJob(cfg, path, digest)
	return rj, rj.Fingerprint(), nil
}

// Free bounds the queued jobs; running ones hold a worker, not a slot.
func (l *local) Free(queued, _ int) (int, error) { return l.s.opts.QueueDepth - queued, nil }

// Start queues the job. Its queue.wait span starts now and ends when a
// worker picks the job up. The admission check happened at the caller,
// so the avail send cannot block.
func (l *local) Start(j *Job) {
	live := j.live
	live.span.SetAttr("fingerprint", j.keyDigest)
	live.queueSpan = live.span.StartChild("queue.wait")
	heap.Push(&l.queue, j)
	l.avail <- struct{}{}
}

func (l *local) Statsz() any { return l.s.Stats() }

func (l *local) Healthz() any { return map[string]any{"ok": true} }

func (l *local) JobSpans(context.Context, string) []obs.Span { return nil }

func (l *local) Close() {
	close(l.quit)
	l.wg.Wait()
}

// simulate is the engine's run function: the real simulator with
// progress fanned out to every job sharing the fingerprint, or the
// injected test stub. The simulation's spans (materialize/run/warmup)
// parent under the first attached job's run span — the engine
// deduplicates executions by fingerprint, so the one simulation's
// timeline lands in one job's trace; the duplicates record a memo-hit
// via instead. j arrives keyed, so the fanout lookup formats nothing.
func (l *local) simulate(j runner.Job) (stats.Results, error) {
	if l.s.opts.Run != nil {
		return l.s.opts.Run(j)
	}
	if f := l.fanoutLookup(j.Fingerprint()); f != nil {
		return runner.SimulateTraced(j, l.s.opts.ProgressInterval, f.publish, f.parentSpan())
	}
	return runner.Simulate(j)
}

// worker drains the queue until Close. One avail token is one queued
// job, so a received token guarantees the pop succeeds.
func (l *local) worker() {
	defer l.wg.Done()
	for {
		select {
		case <-l.quit:
			return
		case <-l.avail:
			// A closed quit and a non-empty queue are both ready:
			// re-check quit so Close never starts new work (the select
			// above picks between ready cases at random).
			select {
			case <-l.quit:
				return
			default:
			}
			l.s.mu.Lock()
			j := heap.Pop(&l.queue).(*Job)
			j.live.queueSpan.End()
			j.live.runSpan = j.live.span.StartChild("job.run")
			j.advanceLocked(Event{State: StateRunning}, "")
			l.s.mu.Unlock()
			l.execute(j)
		}
	}
}

// execute runs one job through the engine, fanning progress out to
// every job that shares the fingerprint while it runs, attributes the
// outcome — including how it was resolved — to the job's tenant, and
// releases the job once /metrics has its span clocks.
func (l *local) execute(j *Job) {
	s, live := l.s, j.live
	l.fanoutAttach(j)
	r := s.eng.RunKeyed(live.rjob)
	l.fanoutDetach(j)
	live.runSpan.SetAttr("via", r.Via.String())
	live.runSpan.End()
	t := j.tenant
	if r.Err != nil {
		s.logger.Warn("job failed",
			"tenant", t.cfg.Name, "job", j.id, "fingerprint", j.keyDigest, "via", r.Via.String(),
			"trace_id", j.traceID, "error", r.Err.Error())
	} else {
		if r.Via == runner.ViaCache {
			t.cacheHits.Add(1)
		}
		s.logger.Info("job done",
			"tenant", t.cfg.Name, "job", j.id, "fingerprint", j.keyDigest, "via", r.Via.String(),
			"trace_id", j.traceID,
			"cycles", r.Res.Cycles, "instructions", r.Res.Instructions)
	}
	j.Finish(r.Res, r.Err, "", time.Time{})
	// The duration histograms derive from the same span clock the trace
	// endpoints expose, so the two observability surfaces cannot drift.
	s.metrics.observeJob(r.Via.String(),
		live.queueSpan.EndTime().Sub(live.queueSpan.StartTime()),
		live.span.EndTime().Sub(live.span.StartTime()))
	j.Release()
}

// fanoutLookup returns the fanout currently registered for a
// fingerprint, or nil.
func (l *local) fanoutLookup(fp string) *fanout {
	l.fanMu.Lock()
	defer l.fanMu.Unlock()
	return l.fanouts[fp]
}

// fanoutAttach registers j for progress on its fingerprint, creating
// the fanout if needed. The fingerprint is the one the engine passes
// the run function: the live job's keyed runner job carries it.
func (l *local) fanoutAttach(j *Job) {
	fp := j.live.rjob.Fingerprint()
	l.fanMu.Lock()
	defer l.fanMu.Unlock()
	f := l.fanouts[fp]
	if f == nil {
		f = &fanout{}
		l.fanouts[fp] = f
	}
	f.add(j)
}

// fanoutDetach removes j and drops the fanout when it was the last
// attached job. Attach and detach share fanMu, so a detach can never
// delete a fanout a concurrent attach just joined.
func (l *local) fanoutDetach(j *Job) {
	fp := j.live.rjob.Fingerprint()
	l.fanMu.Lock()
	defer l.fanMu.Unlock()
	if f := l.fanouts[fp]; f != nil && f.remove(j) == 0 {
		delete(l.fanouts, fp)
	}
}

// fanout broadcasts core progress to the service jobs currently
// running one fingerprint.
type fanout struct {
	mu   sync.Mutex
	jobs []*Job
}

func (f *fanout) add(j *Job) {
	f.mu.Lock()
	f.jobs = append(f.jobs, j)
	f.mu.Unlock()
}

// parentSpan returns the first attached job's run span — the parent
// for the simulation's own spans. Reading j.live here is safe: runSpan
// is assigned before fanoutAttach publishes the job, both the add and
// this read synchronize on f.mu, and a job is released only after
// fanoutDetach removed it under f.mu.
func (f *fanout) parentSpan() *obs.ActiveSpan {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, j := range f.jobs {
		if sp := j.live.runSpan; sp != nil {
			return sp
		}
	}
	return nil
}

// remove drops j and returns the remaining count.
func (f *fanout) remove(j *Job) int {
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

// jobHeap orders the queue by (priority desc, submission seq asc):
// deterministic pop order regardless of worker count.
type jobHeap []*Job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(a, b int) bool {
	if h[a].priority != h[b].priority {
		return h[a].priority > h[b].priority
	}
	return h[a].live.seq < h[b].live.seq
}
func (h jobHeap) Swap(a, b int) { h[a], h[b] = h[b], h[a] }
func (h *jobHeap) Push(x any)   { *h = append(*h, x.(*Job)) }
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}
