package service

// Multi-tenant surface tests: the auth matrix, quota admission (429
// versus the global queue's 503), tenant isolation of job reads,
// priority clamping, the exhaustive error-envelope contract, the
// Prometheus /metrics exposition, and the two-tenant acceptance
// criterion — one tenant saturating its quota is shed while another
// tenant's identical work completes byte-identically.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"clustervp/internal/config"
	"clustervp/internal/runner"
	"clustervp/internal/stats"
)

var testTenants = []Tenant{
	{Name: "alice", Key: "alice-key-0001", MaxQueued: 2, MaxInFlight: 3, MaxPriority: 2},
	{Name: "bob", Key: "bob-key-0001"},
}

// doReq performs one request with an optional API key and returns the
// response plus its fully-read body.
func doReq(t *testing.T, method, url, key, body string) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// wantEnvelope asserts the no-non-envelope-errors contract: a JSON
// content type and a schema-versioned body with the expected code.
func wantEnvelope(t *testing.T, resp *http.Response, body []byte, status int, code string) ErrorEnvelope {
	t.Helper()
	if resp.StatusCode != status {
		t.Errorf("%s %s = %d, want %d (body %s)", resp.Request.Method, resp.Request.URL.Path, resp.StatusCode, status, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "json") {
		t.Errorf("error response content type %q, want JSON", ct)
	}
	var env ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("error body is not an envelope: %v (%s)", err, body)
	}
	if env.SchemaVersion != SchemaVersion {
		t.Errorf("envelope schema_version = %d, want %d", env.SchemaVersion, SchemaVersion)
	}
	if env.Error.Code != code {
		t.Errorf("envelope code = %q, want %q (message %q)", env.Error.Code, code, env.Error.Message)
	}
	return env
}

const submitBody = `{"machine":{"clusters":"2"},"kernel":"rawcaudio"}`

func TestAuthMatrix(t *testing.T) {
	s := newTestServer(t, func(o *Options) {
		o.Tenants = testTenants
		o.Run = stubResults
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Missing and unknown keys are 401 unauthorized envelopes.
	resp, body := doReq(t, http.MethodGet, ts.URL+"/v1/statsz", "", "")
	wantEnvelope(t, resp, body, http.StatusUnauthorized, CodeUnauthorized)
	resp, body = doReq(t, http.MethodGet, ts.URL+"/v1/statsz", "wrong-key-000", "")
	wantEnvelope(t, resp, body, http.StatusUnauthorized, CodeUnauthorized)

	// A non-Bearer Authorization header does not fall through to open.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/statsz", nil)
	req.Header.Set("Authorization", "Basic YWxpY2U6cHc=")
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusUnauthorized {
		t.Errorf("Basic auth = %d, want 401", r2.StatusCode)
	}

	// Bearer and X-API-Key both authenticate.
	if resp, _ := doReq(t, http.MethodGet, ts.URL+"/v1/statsz", "alice-key-0001", ""); resp.StatusCode != http.StatusOK {
		t.Errorf("Bearer key = %d, want 200", resp.StatusCode)
	}
	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/v1/statsz", nil)
	req.Header.Set("X-API-Key", "bob-key-0001")
	r3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != http.StatusOK {
		t.Errorf("X-API-Key = %d, want 200", r3.StatusCode)
	}

	// healthz and /metrics stay open for probes and scrapers.
	for _, path := range []string{"/v1/healthz", "/metrics"} {
		if resp, _ := doReq(t, http.MethodGet, ts.URL+path, "", ""); resp.StatusCode != http.StatusOK {
			t.Errorf("unauthenticated %s = %d, want 200", path, resp.StatusCode)
		}
	}
}

// stubResults is an instant stub simulator for surface tests.
func stubResults(j runner.Job) (stats.Results, error) {
	return stats.Results{Benchmark: j.Kernel, Cycles: 10, Instructions: 20}, nil
}

func TestTenantIsolationAndClamping(t *testing.T) {
	s := newTestServer(t, func(o *Options) {
		o.Tenants = testTenants
		o.Run = stubResults
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// alice submits over her priority ceiling: clamped, not rejected.
	resp, body := doReq(t, http.MethodPost, ts.URL+"/v1/jobs", "alice-key-0001",
		`{"machine":{"clusters":"2"},"kernel":"rawcaudio","priority":9}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d (%s)", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Priority != 2 {
		t.Errorf("priority = %d, want clamped to alice's ceiling 2", st.Priority)
	}
	if st.Tenant != "alice" {
		t.Errorf("job tenant = %q, want alice", st.Tenant)
	}

	// bob reads alice's job as 404 — indistinguishable from absent, so
	// sequential IDs cannot be probed for existence.
	for _, path := range []string{"/v1/jobs/" + st.ID, "/v1/jobs/" + st.ID + "/events"} {
		resp, body := doReq(t, http.MethodGet, ts.URL+path, "bob-key-0001", "")
		wantEnvelope(t, resp, body, http.StatusNotFound, CodeNotFound)
	}
	// alice still sees it.
	if resp, _ := doReq(t, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID, "alice-key-0001", ""); resp.StatusCode != http.StatusOK {
		t.Errorf("owner read = %d, want 200", resp.StatusCode)
	}
}

func TestQuotaExceeded429(t *testing.T) {
	stub := newBlockingStub()
	s := newTestServer(t, func(o *Options) {
		o.Workers = 1
		o.Tenants = testTenants
		o.Run = stub.run
	})
	t.Cleanup(stub.Release)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Fill alice's quota: one running (blocked in the stub) + two queued
	// reaches max_in_flight 3.
	var head JobStatus
	for i := 0; i < 3; i++ {
		resp, body := doReq(t, http.MethodPost, ts.URL+"/v1/jobs", "alice-key-0001",
			fmt.Sprintf(`{"machine":{"clusters":"2"},"kernel":"rawcaudio","scale":%d}`, i+1))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d = %d (%s)", i, resp.StatusCode, body)
		}
		if i == 0 {
			if err := json.Unmarshal(body, &head); err != nil {
				t.Fatal(err)
			}
			waitRunning(t, s, head.ID)
		}
	}

	resp, body := doReq(t, http.MethodPost, ts.URL+"/v1/jobs", "alice-key-0001",
		`{"machine":{"clusters":"2"},"kernel":"rawcaudio","scale":99}`)
	env := wantEnvelope(t, resp, body, http.StatusTooManyRequests, CodeQuotaExceeded)
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without a Retry-After header")
	}
	if env.Error.Details["tenant"] != "alice" || env.Error.Details["quota"] == "" {
		t.Errorf("429 details = %v, want tenant and quota named", env.Error.Details)
	}

	// Quotas are per tenant: bob submits the same job unimpeded.
	if resp, body := doReq(t, http.MethodPost, ts.URL+"/v1/jobs", "bob-key-0001",
		`{"machine":{"clusters":"2"},"kernel":"rawcaudio","scale":99}`); resp.StatusCode != http.StatusAccepted {
		t.Errorf("bob's submit during alice's quota exhaustion = %d (%s)", resp.StatusCode, body)
	}

	// Rejections are visible as load shedding in statsz.
	stub.Release()
	for _, ten := range s.Stats().Tenants {
		if ten.Name == "alice" && ten.LoadShed != 1 {
			t.Errorf("alice load_shed = %d, want 1", ten.LoadShed)
		}
	}
}

// waitRunning blocks until the job leaves the queue.
func waitRunning(t *testing.T, s *Server, id string) {
	t.Helper()
	for i := 0; ; i++ {
		if st, _ := s.Status(id); st.State == StateRunning {
			return
		}
		if i > 5000 {
			t.Fatal("job never started running")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestErrorEnvelopeExhaustive(t *testing.T) {
	stub := newBlockingStub()
	open := newTestServer(t, func(o *Options) {
		o.Workers = 1
		o.QueueDepth = 1
		o.Run = stub.run
	})
	t.Cleanup(stub.Release)
	ts := httptest.NewServer(open.Handler())
	defer ts.Close()

	// Saturate the single-slot queue: one running + one queued.
	head, err := open.Submit(JobRequest{Kernel: "rawcaudio", Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, open, head.ID)
	if _, err := open.Submit(JobRequest{Kernel: "rawcaudio", Scale: 2}); err != nil {
		t.Fatal(err)
	}

	traceTS := httptest.NewServer(newTestServer(t, func(o *Options) {
		o.TraceDir = t.TempDir()
		o.MaxTraceBytes = 8
	}).Handler())
	defer traceTS.Close()

	mt := httptest.NewServer(newTestServer(t, func(o *Options) {
		o.Tenants = testTenants
	}).Handler())
	defer mt.Close()

	cases := []struct {
		name, method, url, key, body string
		status                       int
		code                         string
	}{
		{"unrouted path", http.MethodGet, ts.URL + "/nope", "", "", 404, CodeNotFound},
		{"wrong method", http.MethodDelete, ts.URL + "/v1/jobs", "", "", 405, CodeMethodNotAllowed},
		{"invalid body", http.MethodPost, ts.URL + "/v1/jobs", "", `{"kernel":"nosuch"}`, 400, CodeInvalidSpec},
		{"unknown job", http.MethodGet, ts.URL + "/v1/jobs/j-99999999", "", "", 404, CodeNotFound},
		{"no trace store", http.MethodPost, ts.URL + "/v1/traces", "", "x", 501, CodeTraceStoreDisabled},
		{"queue full", http.MethodPost, ts.URL + "/v1/jobs", "", submitBody, 503, CodeQueueFull},
		{"oversized trace", http.MethodPost, traceTS.URL + "/v1/traces", "", strings.Repeat("x", 64), 413, CodePayloadTooLarge},
		{"missing key", http.MethodGet, mt.URL + "/v1/statsz", "", "", 401, CodeUnauthorized},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := doReq(t, tc.method, tc.url, tc.key, tc.body)
			env := wantEnvelope(t, resp, body, tc.status, tc.code)
			if env.Error.Message == "" {
				t.Error("envelope has no message")
			}
			if tc.status == 503 || tc.status == 429 {
				if resp.Header.Get("Retry-After") == "" {
					t.Errorf("%d without Retry-After", tc.status)
				}
			}
		})
	}
}

// parseProm is the minimal Prometheus text-format checker: it validates
// line structure, requires a # TYPE header before any sample of a
// family, and returns every sample keyed by its full series string
// (name plus label set, exactly as exposed).
func parseProm(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	typed := make(map[string]bool)
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			typed[parts[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		idx := strings.LastIndexByte(line, ' ')
		if idx < 0 {
			t.Fatalf("line %d: no value separator: %q", ln+1, line)
		}
		series, valStr := line[:idx], line[idx+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q: %v", ln+1, valStr, err)
		}
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name = series[:i]
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("line %d: unterminated label set: %q", ln+1, line)
			}
		}
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if typed[strings.TrimSuffix(name, suffix)] {
				family = strings.TrimSuffix(name, suffix)
			}
		}
		if !typed[family] {
			t.Fatalf("line %d: sample %q has no preceding # TYPE", ln+1, name)
		}
		if _, dup := samples[series]; dup {
			t.Fatalf("line %d: duplicate series %q", ln+1, series)
		}
		samples[series] = val
	}
	return samples
}

func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, func(o *Options) { o.Run = stubResults })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st, err := s.Submit(JobRequest{Machine: config.MachineSpec{Clusters: "2"}, Kernel: "rawcaudio"})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, s, st.ID)
	// One known-error request populates a non-2xx HTTP series.
	doReq(t, http.MethodGet, ts.URL+"/v1/jobs/j-99999999", "", "")
	// A span ends just after its job's status or its request's response
	// is out: wait for all four.
	const retained = 4
	for deadline := time.Now().Add(5 * time.Second); s.Spans().Len() < retained && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}

	resp, body := doReq(t, http.MethodGet, ts.URL+"/metrics", "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type %q", ct)
	}
	samples := parseProm(t, string(body))

	// The scalar families agree with statsz.
	zs := s.Stats()
	checks := map[string]float64{
		"clusterd_workers":                                    float64(zs.Queue.Workers),
		"clusterd_queue_capacity":                             float64(zs.Queue.Capacity),
		"clusterd_jobs_done_total":                            float64(zs.Queue.Done),
		"clusterd_jobs_failed_total":                          float64(zs.Queue.Failed),
		"clusterd_simulations_total":                          float64(zs.Engine.SimulationsExecuted),
		`clusterd_tenant_jobs_done_total{tenant="anonymous"}`: float64(zs.Tenants[0].Done),
	}
	for series, want := range checks {
		got, ok := samples[series]
		if !ok {
			t.Errorf("missing series %q", series)
			continue
		}
		if got != want {
			t.Errorf("%s = %v, statsz says %v", series, got, want)
		}
	}
	if samples["clusterd_jobs_done_total"] < 1 {
		t.Error("clusterd_jobs_done_total is zero after a done job")
	}

	// The state gauges read what the server holds at exposition time:
	// one job record, one memo entry, and four finished spans (the
	// job's root, queue.wait and job.run, and the 404 request's; the
	// scrape's own span ends after its body is written).
	for series, want := range map[string]float64{
		"clusterd_job_records":    1,
		"clusterd_memo_entries":   1,
		"clusterd_spans_retained": retained,
	} {
		if got, ok := samples[series]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", series, got, ok, want)
		}
	}

	// The latency histogram is cumulative and consistent: every family
	// has bucket counts nondecreasing in le with +Inf equal to _count.
	status404 := false
	for series, val := range samples {
		if strings.HasPrefix(series, "clusterd_http_requests_total{") && strings.Contains(series, `code="404"`) && val > 0 {
			status404 = true
		}
		if strings.HasPrefix(series, "clusterd_http_request_duration_seconds_bucket") && strings.Contains(series, `le="+Inf"`) {
			countSeries := strings.Replace(series, "_bucket", "_count", 1)
			countSeries = strings.Replace(countSeries, `,le="+Inf"`, "", 1)
			if count, ok := samples[countSeries]; !ok || count != val {
				t.Errorf("+Inf bucket %v != count %v for %s", val, count, series)
			}
		}
	}
	if !status404 {
		t.Error("no 404 series in clusterd_http_requests_total after an unknown-job request")
	}
}

// TestStatszSchemaV2 pins the statsz wire schema: version 2, nested
// sections populated, and the flat keys schema 1 mirrored "for one more
// release" really gone from the marshaled payload.
func TestStatszSchemaV2(t *testing.T) {
	s := newTestServer(t, func(o *Options) { o.Run = stubResults })
	st, err := s.Submit(JobRequest{Machine: config.MachineSpec{Clusters: "2"}, Kernel: "rawcaudio"})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, s, st.ID)

	zs := s.Stats()
	if zs.SchemaVersion != SchemaVersion || SchemaVersion != 2 {
		t.Errorf("schema_version = %d (const %d), want 2", zs.SchemaVersion, SchemaVersion)
	}
	if zs.Queue.Done != 1 || zs.Queue.Workers < 1 || zs.Queue.Capacity == 0 {
		t.Errorf("nested queue section not populated: %+v", zs.Queue)
	}
	// Open mode reports exactly the anonymous tenant.
	if len(zs.Tenants) != 1 || zs.Tenants[0].Name != anonymousTenant || zs.Tenants[0].Done != 1 {
		t.Errorf("open-mode tenants = %+v", zs.Tenants)
	}

	// The deprecated flat keys are removed, not merely zeroed: they must
	// not appear at the top level of the marshaled payload at all.
	raw, err := json.Marshal(zs)
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"workers", "queue_capacity", "queue_depth", "running",
		"jobs_submitted", "jobs_done", "jobs_failed",
		"simulations_executed", "cache_hits", "cache_put_errors",
		"cache_hit_ratio", "jobs_per_sec",
	} {
		if _, ok := top[key]; ok {
			t.Errorf("deprecated flat key %q still present in statsz JSON", key)
		}
	}
	for _, key := range []string{"schema_version", "uptime_sec", "queue", "cache", "engine", "tenants"} {
		if _, ok := top[key]; !ok {
			t.Errorf("statsz JSON missing %q", key)
		}
	}
}

// TestTwoTenantAcceptance is the PR's acceptance criterion: tenant A
// saturating its quota is answered 429 quota_exceeded while tenant B's
// identical grid completes with stats.Results JSON byte-identical to a
// local simulation, and /metrics agrees with statsz on B's jobs.
func TestTwoTenantAcceptance(t *testing.T) {
	gate := make(chan struct{})
	released := false
	release := func() {
		if !released {
			released = true
			close(gate)
		}
	}
	s := newTestServer(t, func(o *Options) {
		o.Workers = 1
		o.Tenants = []Tenant{
			{Name: "a", Key: "tenant-a-key-01", MaxQueued: 2, MaxInFlight: 3},
			{Name: "b", Key: "tenant-b-key-01"},
		}
		o.Run = func(j runner.Job) (stats.Results, error) {
			<-gate
			return runner.Simulate(j)
		}
	})
	t.Cleanup(release)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Tenant A fills its quota: one running (parked on the gate) plus
	// two queued.
	var head JobStatus
	for i := 0; i < 3; i++ {
		resp, body := doReq(t, http.MethodPost, ts.URL+"/v1/jobs", "tenant-a-key-01",
			fmt.Sprintf(`{"machine":{"clusters":"2"},"kernel":"rawcaudio","scale":%d}`, i+1))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("A submit %d = %d (%s)", i, resp.StatusCode, body)
		}
		if i == 0 {
			if err := json.Unmarshal(body, &head); err != nil {
				t.Fatal(err)
			}
			waitRunning(t, s, head.ID)
		}
	}
	resp, body := doReq(t, http.MethodPost, ts.URL+"/v1/jobs", "tenant-a-key-01",
		`{"machine":{"clusters":"2"},"kernel":"rawcaudio","scale":4}`)
	wantEnvelope(t, resp, body, http.StatusTooManyRequests, CodeQuotaExceeded)

	// Tenant B submits a grid while A is saturated: the global queue has
	// room and B has no quota, so the whole grid is admitted.
	resp, body = doReq(t, http.MethodPost, ts.URL+"/v1/grids", "tenant-b-key-01",
		`{"machines":[{"clusters":"2"}],"kernels":["rawcaudio"],"scales":[1,2]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("B grid = %d (%s)", resp.StatusCode, body)
	}
	var grid struct {
		Jobs []string `json:"jobs"`
	}
	if err := json.Unmarshal(body, &grid); err != nil {
		t.Fatal(err)
	}
	if len(grid.Jobs) != 2 {
		t.Fatalf("B grid expanded to %d jobs, want 2", len(grid.Jobs))
	}

	release()
	for i, id := range grid.Jobs {
		fin := waitJob(t, s, id)
		if fin.State != StateDone {
			t.Fatalf("B job %s finished %q (%s)", id, fin.State, fin.Error)
		}
		if fin.Tenant != "b" {
			t.Errorf("B job attributed to %q", fin.Tenant)
		}
		want, err := runner.Simulate(runner.Job{Config: config.Preset(2), Kernel: "rawcaudio", Scale: i + 1})
		if err != nil {
			t.Fatal(err)
		}
		got, _ := json.Marshal(fin.Results)
		local, _ := json.Marshal(want)
		if !bytes.Equal(got, local) {
			t.Errorf("B job %s results not byte-identical to a local run:\nserved %s\nlocal  %s", id, got, local)
		}
	}
	// A's admitted jobs complete too; only the over-quota one was shed.
	fin := waitJob(t, s, head.ID)
	if fin.State != StateDone {
		t.Fatalf("A head job finished %q", fin.State)
	}

	// /metrics agrees with statsz per tenant.
	zs := s.Stats()
	_, mbody := doReq(t, http.MethodGet, ts.URL+"/metrics", "", "")
	samples := parseProm(t, string(mbody))
	for _, ten := range zs.Tenants {
		series := fmt.Sprintf(`clusterd_tenant_jobs_done_total{tenant=%q}`, ten.Name)
		if got := samples[series]; got != float64(ten.Done) {
			t.Errorf("%s = %v, statsz says %d", series, got, ten.Done)
		}
	}
	if got := samples[`clusterd_tenant_jobs_done_total{tenant="b"}`]; got != 2 {
		t.Errorf("tenant b done = %v, want 2", got)
	}
	if got := samples[`clusterd_tenant_load_shed_total{tenant="a"}`]; got != 1 {
		t.Errorf("tenant a load shed = %v, want 1", got)
	}
}

// TestServerRejectsBadProgrammaticTenants: Options.Tenants goes through
// the same validation as the tenants file.
func TestServerRejectsBadProgrammaticTenants(t *testing.T) {
	_, err := New(Options{Tenants: []Tenant{{Name: "x", Key: "short"}}})
	if err == nil || !strings.Contains(err.Error(), "at least 8") {
		t.Errorf("New with a short key err = %v", err)
	}
}

// TestGoAPIQuotaExempt: direct Go-API submissions act as the anonymous
// tenant even on a multi-tenant server, and its jobs are invisible to
// HTTP tenants.
func TestGoAPIQuotaExempt(t *testing.T) {
	s := newTestServer(t, func(o *Options) {
		o.Tenants = testTenants
		o.Run = stubResults
	})
	st, err := s.Submit(JobRequest{Machine: config.MachineSpec{Clusters: "2"}, Kernel: "rawcaudio"})
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitJob(t, s, st.ID); fin.Tenant != anonymousTenant {
		t.Errorf("Go-API job tenant = %q, want %q", fin.Tenant, anonymousTenant)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, body := doReq(t, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID, "alice-key-0001", "")
	wantEnvelope(t, resp, body, http.StatusNotFound, CodeNotFound)
}
