package service

// Hand-rolled Prometheus text exposition (format 0.0.4) — no external
// dependency, matching the repo's stdlib-only policy. GET /metrics
// renders the same counters statsz reports, plus HTTP request counts
// and latency histograms per route. Label values are server-controlled
// (tenant names from the tenants file, mux patterns for routes), so
// cardinality is bounded and escaping stays trivial.

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// latencyBuckets are the histogram upper bounds in seconds. Submissions
// on a warm cache land ~100µs; cold simulations run seconds — the range
// covers both.
var latencyBuckets = [...]float64{0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10}

// routeKey identifies one (route, method) time series.
type routeKey struct {
	route  string
	method string
}

// histogram is one latency histogram over latencyBuckets: per-bucket
// (non-cumulative) counts, summed at exposition time.
type histogram struct {
	buckets [len(latencyBuckets)]int64
	sum     float64
	count   int64
}

// observe adds one observation of d.
func (h *histogram) observe(d time.Duration) {
	sec := d.Seconds()
	h.sum += sec
	h.count++
	for i, ub := range latencyBuckets {
		if sec <= ub {
			h.buckets[i]++
			break
		}
	}
}

// emit writes the histogram's _bucket, _sum and _count samples under
// name; labels alternate key, value and come before "le".
func (h *histogram) emit(p *promWriter, name string, labels ...string) {
	cum := int64(0)
	for i, ub := range latencyBuckets {
		cum += h.buckets[i]
		p.sample(name+"_bucket", float64(cum), append(labels, "le", strconv.FormatFloat(ub, 'g', -1, 64))...)
	}
	p.sample(name+"_bucket", float64(h.count), append(labels, "le", "+Inf")...)
	p.sample(name+"_sum", h.sum, labels...)
	p.sample(name+"_count", float64(h.count), labels...)
}

// httpSeries is one route's latency histogram plus per-status counts.
type httpSeries struct {
	byCode  map[int]int64
	latency histogram
}

// jobSeries is one via label's pair of duration histograms: total
// job wall-clock (admission to terminal) and queue wait. Both derive
// from the job's span timings, so /metrics and the trace endpoints
// report the same clock.
type jobSeries struct {
	dur, wait histogram
}

// metrics collects HTTP-side series. Simulation and queue counters
// live on the Server/Engine and are read at exposition time.
type metrics struct {
	mu   sync.Mutex
	http map[routeKey]*httpSeries
	shed map[string]int64      // load-shed admissions by reason
	jobs map[string]*jobSeries // job/queue-wait durations by via
}

func newMetrics() *metrics {
	return &metrics{
		http: make(map[routeKey]*httpSeries),
		shed: make(map[string]int64),
		jobs: make(map[string]*jobSeries),
	}
}

// observeJob records one terminal job: its queue wait and total
// duration, attributed to how it resolved (simulated/memo/cache).
func (m *metrics) observeJob(via string, queueWait, total time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	js := m.jobs[via]
	if js == nil {
		js = &jobSeries{}
		m.jobs[via] = js
	}
	js.dur.observe(total)
	js.wait.observe(queueWait)
}

// observeHTTP records one finished request.
func (m *metrics) observeHTTP(route, method string, status int, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	k := routeKey{route: route, method: method}
	s := m.http[k]
	if s == nil {
		s = &httpSeries{byCode: make(map[int]int64)}
		m.http[k] = s
	}
	s.byCode[status]++
	s.latency.observe(d)
}

// loadShed records one rejected admission (queue saturation or tenant
// quota exhaustion).
func (m *metrics) loadShed(reason string) {
	m.mu.Lock()
	m.shed[reason]++
	m.mu.Unlock()
}

// promWriter accumulates exposition text with per-family HELP/TYPE
// headers.
type promWriter struct {
	b strings.Builder
}

func (p *promWriter) family(name, help, typ string) {
	fmt.Fprintf(&p.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// sample emits one line; labels must alternate key, value.
func (p *promWriter) sample(name string, value float64, labels ...string) {
	p.b.WriteString(name)
	if len(labels) > 0 {
		p.b.WriteByte('{')
		for i := 0; i+1 < len(labels); i += 2 {
			if i > 0 {
				p.b.WriteByte(',')
			}
			fmt.Fprintf(&p.b, "%s=%q", labels[i], labels[i+1])
		}
		p.b.WriteByte('}')
	}
	p.b.WriteByte(' ')
	p.b.WriteString(strconv.FormatFloat(value, 'g', -1, 64))
	p.b.WriteByte('\n')
}

// handleMetrics renders GET /metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.Stats() // one consistent snapshot for the scalar families
	p := &promWriter{}

	p.family("clusterd_uptime_seconds", "Seconds since the server started.", "gauge")
	p.sample("clusterd_uptime_seconds", st.UptimeSec)
	p.family("clusterd_workers", "Size of the simulation worker pool.", "gauge")
	p.sample("clusterd_workers", float64(st.Queue.Workers))
	p.family("clusterd_queue_capacity", "Bound on queued-but-not-running jobs.", "gauge")
	p.sample("clusterd_queue_capacity", float64(st.Queue.Capacity))
	p.family("clusterd_queue_depth", "Jobs currently queued.", "gauge")
	p.sample("clusterd_queue_depth", float64(st.Queue.Depth))
	p.family("clusterd_jobs_running", "Jobs currently executing.", "gauge")
	p.sample("clusterd_jobs_running", float64(st.Queue.Running))

	// What a long-lived server holds: job records up to MaxJobRecords,
	// finished spans up to the ring's size, and on a box the engine's
	// memo, which nothing bounds.
	s.mu.Lock()
	records := len(s.jobs)
	s.mu.Unlock()
	p.family("clusterd_job_records", "Job records retained for status lookups.", "gauge")
	p.sample("clusterd_job_records", float64(records))
	p.family("clusterd_spans_retained", "Finished spans retained in the tracing ring.", "gauge")
	p.sample("clusterd_spans_retained", float64(s.spans.Len()))
	if s.eng != nil {
		p.family("clusterd_memo_entries", "Distinct jobs the engine's in-memory memo holds.", "gauge")
		p.sample("clusterd_memo_entries", float64(s.eng.MemoEntries()))
	}

	p.family("clusterd_jobs_submitted_total", "Jobs admitted to the queue.", "counter")
	p.sample("clusterd_jobs_submitted_total", float64(st.Queue.Submitted))
	p.family("clusterd_jobs_done_total", "Jobs finished successfully.", "counter")
	p.sample("clusterd_jobs_done_total", float64(st.Queue.Done))
	p.family("clusterd_jobs_failed_total", "Jobs finished with an error.", "counter")
	p.sample("clusterd_jobs_failed_total", float64(st.Queue.Failed))

	p.family("clusterd_simulations_total", "Simulator executions (memo and cache misses).", "counter")
	p.sample("clusterd_simulations_total", float64(st.Engine.SimulationsExecuted))
	p.family("clusterd_sim_instructions_total", "Committed instructions across executed simulations.", "counter")
	p.sample("clusterd_sim_instructions_total", float64(st.Engine.SimInstructions))
	p.family("clusterd_sim_instrs_per_second", "Lifetime average simulated instructions per second.", "gauge")
	p.sample("clusterd_sim_instrs_per_second", st.Engine.SimInstrsPerSec)

	p.family("clusterd_cache_hits_total", "Results served from the persistent cache.", "counter")
	p.sample("clusterd_cache_hits_total", float64(st.Cache.Hits))
	p.family("clusterd_cache_put_errors_total", "Failed cache write-backs.", "counter")
	p.sample("clusterd_cache_put_errors_total", float64(st.Cache.PutErrors))
	p.family("clusterd_cache_hit_ratio", "Cache hits over unique work resolved.", "gauge")
	p.sample("clusterd_cache_hit_ratio", st.Cache.HitRatio)

	// Per-tenant counters, one family per column of the statsz tenants
	// section. st.Tenants is already sorted by name.
	tenantFamilies := []struct {
		name, help, typ string
		get             func(TenantStats) float64
	}{
		{"clusterd_tenant_jobs_queued", "Jobs queued per tenant.", "gauge",
			func(t TenantStats) float64 { return float64(t.Queued) }},
		{"clusterd_tenant_jobs_running", "Jobs running per tenant.", "gauge",
			func(t TenantStats) float64 { return float64(t.Running) }},
		{"clusterd_tenant_jobs_submitted_total", "Jobs admitted per tenant.", "counter",
			func(t TenantStats) float64 { return float64(t.Submitted) }},
		{"clusterd_tenant_jobs_done_total", "Jobs finished successfully per tenant.", "counter",
			func(t TenantStats) float64 { return float64(t.Done) }},
		{"clusterd_tenant_jobs_failed_total", "Jobs failed per tenant.", "counter",
			func(t TenantStats) float64 { return float64(t.Failed) }},
		{"clusterd_tenant_cache_hits_total", "Jobs resolved from the persistent cache per tenant.", "counter",
			func(t TenantStats) float64 { return float64(t.CacheHits) }},
		{"clusterd_tenant_load_shed_total", "Admissions rejected per tenant (quota or queue saturation).", "counter",
			func(t TenantStats) float64 { return float64(t.LoadShed) }},
	}
	for _, f := range tenantFamilies {
		p.family(f.name, f.help, f.typ)
		for _, t := range st.Tenants {
			p.sample(f.name, f.get(t), "tenant", t.Name)
		}
	}

	s.metrics.mu.Lock()
	shedReasons := make([]string, 0, len(s.metrics.shed))
	for reason := range s.metrics.shed {
		shedReasons = append(shedReasons, reason)
	}
	sort.Strings(shedReasons)
	p.family("clusterd_load_shed_total", "Admissions rejected, by reason.", "counter")
	for _, reason := range shedReasons {
		p.sample("clusterd_load_shed_total", float64(s.metrics.shed[reason]), "reason", reason)
	}

	// Job-duration histograms by resolution path, derived from the same
	// span timings GET /v1/jobs/{id}/trace reports.
	vias := make([]string, 0, len(s.metrics.jobs))
	for via := range s.metrics.jobs {
		vias = append(vias, via)
	}
	sort.Strings(vias)
	p.family("clusterd_job_duration_seconds", "Job wall-clock from admission to terminal state, by resolution path.", "histogram")
	for _, via := range vias {
		s.metrics.jobs[via].dur.emit(p, "clusterd_job_duration_seconds", "via", via)
	}
	p.family("clusterd_queue_wait_seconds", "Job time spent queued before a worker picked it up, by resolution path.", "histogram")
	for _, via := range vias {
		s.metrics.jobs[via].wait.emit(p, "clusterd_queue_wait_seconds", "via", via)
	}

	keys := make([]routeKey, 0, len(s.metrics.http))
	for k := range s.metrics.http {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].route != keys[j].route {
			return keys[i].route < keys[j].route
		}
		return keys[i].method < keys[j].method
	})
	p.family("clusterd_http_requests_total", "HTTP requests by route, method and status code.", "counter")
	for _, k := range keys {
		sr := s.metrics.http[k]
		codes := make([]int, 0, len(sr.byCode))
		for c := range sr.byCode {
			codes = append(codes, c)
		}
		sort.Ints(codes)
		for _, c := range codes {
			p.sample("clusterd_http_requests_total", float64(sr.byCode[c]),
				"route", k.route, "method", k.method, "code", strconv.Itoa(c))
		}
	}
	p.family("clusterd_http_request_duration_seconds", "HTTP request latency by route and method.", "histogram")
	for _, k := range keys {
		s.metrics.http[k].latency.emit(p, "clusterd_http_request_duration_seconds", "route", k.route, "method", k.method)
	}
	s.metrics.mu.Unlock()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write([]byte(p.b.String()))
}
