package service

// Job-server tests: submission validation, deterministic priority
// ordering, bounded-queue admission, event streaming, the HTTP
// surface, and the acceptance contract — a restarted server serves a
// previously-computed grid entirely from the on-disk cache with zero
// simulator invocations and byte-identical stats.Results JSON.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"clustervp/internal/config"
	"clustervp/internal/core"
	"clustervp/internal/obs"
	"clustervp/internal/runner"
	"clustervp/internal/stats"
	"clustervp/internal/trace"
	"clustervp/internal/workload"
)

// newTestServer builds a server with small defaults; opts mutates them.
func newTestServer(t *testing.T, mutate func(*Options)) *Server {
	t.Helper()
	opts := Options{Workers: 2, QueueDepth: 64, ProgressInterval: 500}
	if mutate != nil {
		mutate(&opts)
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// waitJob polls until the job reaches a terminal state.
func waitJob(t *testing.T, s *Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, err := s.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == StateDone || st.State == StateFailed {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return JobStatus{}
}

func TestSubmitRunsRealSimulation(t *testing.T) {
	s := newTestServer(t, nil)
	st, err := s.Submit(JobRequest{
		Machine: config.MachineSpec{Clusters: "4", VP: "stride", Steering: "vpb"},
		Kernel:  "rawcaudio",
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateQueued || st.ID == "" {
		t.Fatalf("fresh submission state=%q id=%q, want queued with an id", st.State, st.ID)
	}
	fin := waitJob(t, s, st.ID)
	if fin.State != StateDone || fin.Results == nil {
		t.Fatalf("job finished %q (err=%q), want done with results", fin.State, fin.Error)
	}

	// The served results must equal a local simulation of the same job.
	cfg, err := config.MachineSpec{Clusters: "4", VP: "stride", Steering: "vpb"}.Build()
	if err != nil {
		t.Fatal(err)
	}
	want, err := runner.Simulate(runner.Job{Config: cfg, Kernel: "rawcaudio", Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(fin.Results)
	local, _ := json.Marshal(want)
	if !bytes.Equal(got, local) {
		t.Errorf("served results differ from a local run:\nserved %s\nlocal  %s", got, local)
	}
}

func TestSubmitValidation(t *testing.T) {
	s := newTestServer(t, nil)
	cases := []JobRequest{
		{},                       // no workload
		{Kernel: "nosuchkernel"}, // unknown kernel
		{Kernel: "cjpeg", TraceDigest: "sha256:abc"},                  // both workloads
		{TraceDigest: "sha256:abc"},                                   // no trace store on this server
		{Kernel: "cjpeg", Machine: config.MachineSpec{VP: "psychic"}}, // bad enum
		{Kernel: "cjpeg", Machine: config.MachineSpec{Clusters: "zebra"}},
	}
	for _, req := range cases {
		if _, err := s.Submit(req); !errors.Is(err, ErrBadRequest) {
			t.Errorf("Submit(%+v) err = %v, want ErrBadRequest", req, err)
		}
	}
	if n := s.Stats().Queue.Submitted; n != 0 {
		t.Errorf("rejected submissions still counted: %d", n)
	}
}

// blockingStub is a stub Run that records execution order and blocks
// until released. newBlockingStub ties the release to test cleanup so
// a failing test cannot deadlock Server.Close on a blocked worker.
type blockingStub struct {
	mu      sync.Mutex
	order   []string
	release chan struct{}
	once    sync.Once
}

// newBlockingStub must be followed by a t.Cleanup(b.Release) AFTER the
// server is created: cleanups run last-in-first-out, so registering the
// release after Server.Close guarantees blocked workers are freed
// before Close waits on them.
func newBlockingStub() *blockingStub {
	return &blockingStub{release: make(chan struct{})}
}

func (b *blockingStub) Release() { b.once.Do(func() { close(b.release) }) }

func (b *blockingStub) run(j runner.Job) (stats.Results, error) {
	b.mu.Lock()
	b.order = append(b.order, j.Kernel)
	b.mu.Unlock()
	<-b.release
	return stats.Results{Benchmark: j.Kernel, Cycles: 10, Instructions: 20}, nil
}

// TestPriorityOrdering: with one worker, queued jobs run in (priority
// desc, submission asc) order — the deterministic pop order the
// package documents.
func TestPriorityOrdering(t *testing.T) {
	stub := newBlockingStub()
	s := newTestServer(t, func(o *Options) {
		o.Workers = 1
		o.Run = stub.run
	})
	t.Cleanup(stub.Release)
	// Different scales keep the fingerprints distinct.
	first, err := s.Submit(JobRequest{Kernel: "cjpeg", Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the worker to start the head job so the rest queue up.
	for i := 0; ; i++ {
		if st, _ := s.Status(first.ID); st.State == StateRunning {
			break
		}
		if i > 5000 {
			t.Fatal("head job never started")
		}
		time.Sleep(time.Millisecond)
	}
	var ids []string
	for _, sub := range []struct {
		kernel string
		prio   int
	}{
		{"epicdec", 0}, {"gsmdec", 5}, {"mesamipmap", 5}, {"pgpenc", 9},
	} {
		st, err := s.Submit(JobRequest{Kernel: sub.kernel, Priority: sub.prio})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	stub.Release()
	for _, id := range append([]string{first.ID}, ids...) {
		if st := waitJob(t, s, id); st.State != StateDone {
			t.Fatalf("job %s finished %q", id, st.State)
		}
	}
	want := []string{"cjpeg", "pgpenc", "gsmdec", "mesamipmap", "epicdec"}
	stub.mu.Lock()
	got := append([]string(nil), stub.order...)
	stub.mu.Unlock()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("execution order %v, want %v", got, want)
	}
}

// TestQueueBounded: a full queue rejects single jobs and whole grids
// without admitting partial grids.
func TestQueueBounded(t *testing.T) {
	stub := newBlockingStub()
	s := newTestServer(t, func(o *Options) {
		o.Workers = 1
		o.QueueDepth = 3
		o.Run = stub.run
	})
	t.Cleanup(stub.Release)
	head, err := s.Submit(JobRequest{Kernel: "cjpeg", Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		if st, _ := s.Status(head.ID); st.State == StateRunning {
			break
		}
		if i > 5000 {
			t.Fatal("head job never started")
		}
		time.Sleep(time.Millisecond)
	}
	// Fill the queue (the head job is running, not queued).
	for i := 0; i < 3; i++ {
		if _, err := s.Submit(JobRequest{Kernel: "cjpeg", Scale: i + 2}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Submit(JobRequest{Kernel: "cjpeg", Scale: 99}); !errors.Is(err, ErrQueueFull) {
		t.Errorf("submit past capacity err = %v, want ErrQueueFull", err)
	}
	before := s.Stats().Queue.Submitted
	_, err = s.SubmitGrid(GridRequest{
		Machines: []config.MachineSpec{{Clusters: "2"}},
		Kernels:  []string{"epicdec", "mesamipmap"},
	})
	if !errors.Is(err, ErrQueueFull) {
		t.Errorf("grid past capacity err = %v, want ErrQueueFull", err)
	}
	if after := s.Stats().Queue.Submitted; after != before {
		t.Errorf("rejected grid admitted %d jobs (all-or-nothing violated)", after-before)
	}
}

// TestJobRecordEviction: a long-lived server retains at most
// MaxJobRecords job records — the oldest terminal records are evicted
// as new submissions arrive, while queued/running jobs always stay
// resolvable.
func TestJobRecordEviction(t *testing.T) {
	s := newTestServer(t, func(o *Options) {
		o.Workers = 1
		o.QueueDepth = 4
		o.MaxJobRecords = 4
		o.Run = func(j runner.Job) (stats.Results, error) {
			return stats.Results{Benchmark: j.Kernel, Cycles: 10, Instructions: 20}, nil
		}
	})
	var ids []string
	for i := 0; i < 12; i++ {
		st, err := s.Submit(JobRequest{Kernel: "cjpeg", Scale: i + 1})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
		waitJob(t, s, st.ID)
	}
	s.mu.Lock()
	n := len(s.jobs)
	ordered := len(s.order)
	s.mu.Unlock()
	if n > 4 {
		t.Errorf("server retains %d job records, want <= MaxJobRecords 4", n)
	}
	if ordered != n {
		t.Errorf("order index has %d entries for %d records", ordered, n)
	}
	// The newest job is still resolvable; the oldest has been evicted.
	if _, err := s.Status(ids[len(ids)-1]); err != nil {
		t.Errorf("newest job evicted: %v", err)
	}
	if _, err := s.Status(ids[0]); !errors.Is(err, ErrNoSuchJob) {
		t.Errorf("oldest job status err = %v, want ErrNoSuchJob after eviction", err)
	}
}

// TestUnknownJSONFieldRejected: a misspelled knob must 400, not
// silently simulate with defaults.
func TestUnknownJSONFieldRejected(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, body := range []string{
		`{"machine":{"clusters":"4","steer":"vpb"},"kernel":"cjpeg"}`, // CLI flag name, not the wire name
		`{"machine":{"clusters":"4"},"kernal":"cjpeg"}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("unknown field accepted with %d, want 400: %s", resp.StatusCode, body)
		}
	}
	if n := s.Stats().Queue.Submitted; n != 0 {
		t.Errorf("unknown-field submissions still admitted %d jobs", n)
	}
}

// TestGridDeduplicatesThroughEngine: a grid repeating one machine spec
// resolves every job but simulates each unique fingerprint once.
func TestGridDeduplicatesThroughEngine(t *testing.T) {
	s := newTestServer(t, nil)
	ids, err := s.SubmitGrid(GridRequest{
		Machines: []config.MachineSpec{{Clusters: "2"}, {Clusters: "2"}},
		Kernels:  []string{"rawcaudio"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Fatalf("grid expanded to %d jobs, want 2", len(ids))
	}
	var res [2]JobStatus
	for i, id := range ids {
		res[i] = waitJob(t, s, id)
		if res[i].State != StateDone {
			t.Fatalf("job %s finished %q (%s)", id, res[i].State, res[i].Error)
		}
	}
	if ex := s.Engine().Executed(); ex != 1 {
		t.Errorf("identical grid points executed %d simulations, want 1", ex)
	}
	a, _ := json.Marshal(res[0].Results)
	b, _ := json.Marshal(res[1].Results)
	if !bytes.Equal(a, b) {
		t.Error("deduplicated jobs returned different results")
	}
}

// TestRestartServesFromDiskCache is the acceptance criterion: a second
// server over the same cache directory resolves the whole grid with
// zero simulator invocations and byte-identical stats.Results JSON.
func TestRestartServesFromDiskCache(t *testing.T) {
	if testing.Short() {
		t.Skip("two real grids in -short mode")
	}
	cacheDir := t.TempDir()
	grid := GridRequest{
		Machines: []config.MachineSpec{
			{Clusters: "2"},
			{Clusters: "4", VP: "stride", Steering: "vpb"},
		},
		Kernels: []string{"rawcaudio", "gsmdec"},
	}

	runGrid := func(s *Server) map[string][]byte {
		t.Helper()
		ids, err := s.SubmitGrid(grid)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string][]byte, len(ids))
		for i, id := range ids {
			st := waitJob(t, s, id)
			if st.State != StateDone {
				t.Fatalf("job %s finished %q (%s)", id, st.State, st.Error)
			}
			data, err := json.Marshal(st.Results)
			if err != nil {
				t.Fatal(err)
			}
			out[fmt.Sprintf("grid-point-%d", i)] = data
		}
		return out
	}

	cold, err := New(Options{Workers: 2, CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	coldResults := runGrid(cold)
	if ex := cold.Engine().Executed(); ex != 4 {
		t.Fatalf("cold server executed %d simulations, want 4", ex)
	}
	cold.Close()

	warm, err := New(Options{Workers: 2, CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	warmResults := runGrid(warm)
	if ex := warm.Engine().Executed(); ex != 0 {
		t.Errorf("restarted server executed %d simulations, want 0 (disk cache must serve everything)", ex)
	}
	if hits := warm.Engine().CacheHits(); hits != 4 {
		t.Errorf("restarted server cache hits = %d, want 4", hits)
	}
	for k, want := range coldResults {
		if got := warmResults[k]; !bytes.Equal(got, want) {
			t.Errorf("%s: restarted results not byte-identical:\ncold %s\nwarm %s", k, want, got)
		}
	}
	if ratio := warm.Stats().Cache.HitRatio; ratio != 1 {
		t.Errorf("statsz cache hit ratio = %v, want 1", ratio)
	}
}

// TestEventsStreamProgress exercises the job-side event plumbing
// directly: progress snapshots and the terminal transition reach a
// subscriber in order.
func TestEventsStreamProgress(t *testing.T) {
	j := &Job{
		srv:    &Server{},
		tenant: &tenantState{},
		id:     "j-test",
		state:  StateQueued,
		live:   &liveJob{terminal: make(chan struct{})},
	}
	ch, terminal, snap := j.subscribe(false)
	defer j.unsubscribe(ch)
	if snap.State != StateQueued {
		t.Fatalf("snapshot state %q, want queued", snap.State)
	}
	j.advanceLocked(Event{State: StateRunning}, "")
	j.progress(core.Progress{Cycle: 1000, Instructions: 1500})
	j.Finish(stats.Results{Cycles: 2000, Instructions: 3000}, nil, "", time.Time{})

	var got []Event
	for len(ch) > 0 {
		got = append(got, <-ch)
	}
	if len(got) != 2 {
		t.Fatalf("subscriber received %d events, want 2 (running + progress): %+v", len(got), got)
	}
	if got[0].State != StateRunning || got[1].Cycles != 1000 || got[1].Instructions != 1500 {
		t.Errorf("unexpected events: %+v", got)
	}
	if got[1].IPC != 1.5 {
		t.Errorf("progress IPC = %v, want 1.5", got[1].IPC)
	}
	select {
	case <-terminal:
	default:
		t.Error("Finish left the subscriber's terminal channel open")
	}
	term := j.terminalEvent()
	if term.State != StateDone || term.Cycles != 2000 || term.IPC != 1.5 {
		t.Errorf("terminal event %+v", term)
	}
}

// TestHTTPEndToEnd drives the full HTTP surface: health, job submit,
// status, NDJSON events, statsz, and error mapping.
func TestHTTPEndToEnd(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}

	if resp, _ := get("/v1/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	body := `{"machine":{"clusters":"2"},"kernel":"rawcaudio"}`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || st.ID == "" {
		t.Fatalf("submit = %d %+v", resp.StatusCode, st)
	}

	// The events stream ends with a terminal line carrying counters.
	eresp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer eresp.Body.Close()
	if ct := eresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("events content type %q", ct)
	}
	var last Event
	lines := 0
	sc := bufio.NewScanner(eresp.Body)
	for sc.Scan() {
		lines++
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("events line %d is not JSON: %v (%s)", lines, err, sc.Text())
		}
	}
	if lines == 0 || last.State != StateDone || last.Cycles <= 0 || last.IPC <= 0 {
		t.Fatalf("events stream ended with %+v after %d lines, want a done event with counters", last, lines)
	}

	// Status carries the full results record.
	sresp, data := get("/v1/jobs/" + st.ID)
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", sresp.StatusCode)
	}
	var fin JobStatus
	if err := json.Unmarshal(data, &fin); err != nil {
		t.Fatal(err)
	}
	if fin.State != StateDone || fin.Results == nil || fin.Results.Instructions == 0 {
		t.Fatalf("final status %+v", fin)
	}

	// statsz reflects the resolved job.
	zresp, zdata := get("/v1/statsz")
	if zresp.StatusCode != http.StatusOK {
		t.Fatalf("statsz = %d", zresp.StatusCode)
	}
	var zs ServerStats
	if err := json.Unmarshal(zdata, &zs); err != nil {
		t.Fatal(err)
	}
	if zs.Queue.Done < 1 || zs.Queue.Workers < 1 || zs.Queue.Capacity == 0 {
		t.Errorf("statsz %+v", zs)
	}

	// Error mapping.
	if resp, _ := get("/v1/jobs/j-99999999"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job = %d, want 404", resp.StatusCode)
	}
	bad, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"kernel":"nope"}`))
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("bad kernel = %d, want 400", bad.StatusCode)
	}
}

// writeTestTrace writes a small valid .cvt file and returns its path
// and bytes.
func writeTestTrace(t *testing.T) (string, []byte) {
	t.Helper()
	prog, err := workload.Build("rawcaudio", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/t.cvt"
	if _, err := trace.WriteFile(path, prog.Name, prog.Code, trace.NewExecutor(prog)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, data
}

// TestTraceUploadStoreFailure: a valid upload the trace store cannot
// write is the server's fault, a 500 internal envelope naming no server
// path, never a 400 that blames the client.
func TestTraceUploadStoreFailure(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, func(o *Options) { o.TraceDir = dir })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	_, data := writeTestTrace(t)
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	resp, body := doReq(t, http.MethodPost, ts.URL+"/v1/traces", "", string(data))
	env := wantEnvelope(t, resp, body, http.StatusInternalServerError, CodeInternal)
	if strings.Contains(env.Error.Message, dir) {
		t.Errorf("500 message leaks the store path: %q", env.Error.Message)
	}
}

// TestTraceUploadAndReplayJob uploads a .cvt over HTTP and runs a job
// against its digest; the result must match replaying the file
// locally.
func TestTraceUploadAndReplayJob(t *testing.T) {
	s := newTestServer(t, func(o *Options) { o.TraceDir = t.TempDir() })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	path, data := writeTestTrace(t)
	resp, err := http.Post(ts.URL+"/v1/traces", "application/octet-stream", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var up struct {
		Digest  string `json:"digest"`
		Records uint64 `json:"records"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&up); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || up.Records == 0 {
		t.Fatalf("upload = %d %+v", resp.StatusCode, up)
	}

	// Corrupt uploads are rejected: a truncated trace, one with bytes
	// after its end block, which would otherwise be stored under a
	// second digest, and a file of format version 1, which no reader
	// decodes.
	v1 := append([]byte(nil), data...)
	v1[len(trace.Magic)] = 1
	for name, bad := range map[string][]byte{
		"truncated":      data[:len(data)/2],
		"trailing bytes": append(append([]byte(nil), data...), 0),
		"version 1":      v1,
	} {
		cresp, err := http.Post(ts.URL+"/v1/traces", "application/octet-stream", bytes.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		cresp.Body.Close()
		if cresp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s upload = %d, want 400", name, cresp.StatusCode)
		}
	}

	st, err := s.Submit(JobRequest{
		Machine:     config.MachineSpec{Clusters: "2"},
		TraceDigest: up.Digest,
	})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitJob(t, s, st.ID)
	if fin.State != StateDone {
		t.Fatalf("trace job finished %q (%s)", fin.State, fin.Error)
	}
	want, err := runner.Simulate(runner.Job{Config: config.Preset(2), Trace: path})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(fin.Results)
	local, _ := json.Marshal(want)
	if !bytes.Equal(got, local) {
		t.Errorf("trace-replay results differ from local replay:\nserved %s\nlocal  %s", got, local)
	}

	// The uppercase spelling of the digest is refused, naming the
	// field: the store names its files in lowercase.
	if _, err := s.Submit(JobRequest{TraceDigest: trace.DigestPrefix + strings.ToUpper(strings.TrimPrefix(up.Digest, trace.DigestPrefix))}); !errors.Is(err, ErrBadRequest) || !strings.Contains(err.Error(), "trace_digest") {
		t.Errorf("uppercase digest err = %v, want ErrBadRequest naming trace_digest", err)
	}

	// Unknown digest is a 400 at submission time.
	if _, err := s.Submit(JobRequest{TraceDigest: "sha256:" + strings.Repeat("0", 64)}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("unknown digest err = %v, want ErrBadRequest", err)
	}
}

// TestJobNamedByCacheFileDigest: a job's record, its span and its log
// lines name its key by runner.KeyDigest, which is the stem of the
// result-cache file the job's result was written to.
func TestJobNamedByCacheFileDigest(t *testing.T) {
	cacheDir := t.TempDir()
	var buf strings.Builder
	var mu sync.Mutex
	s := newTestServer(t, func(o *Options) {
		o.CacheDir = cacheDir
		o.Run = stubResults
		o.Logger = slog.New(slog.NewJSONHandler(lockedWriter{&mu, &buf}, nil))
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	req := JobRequest{Machine: config.MachineSpec{Clusters: "2"}, Kernel: "rawcaudio"}
	st, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, s, st.ID)
	doReq(t, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID, "", "")

	cfg, err := req.Machine.Build()
	if err != nil {
		t.Fatal(err)
	}
	digest := runner.KeyDigest(runner.Job{Config: cfg, Kernel: req.Kernel}.Fingerprint())
	if _, err := os.Stat(filepath.Join(cacheDir, digest+".cvr")); err != nil {
		t.Errorf("no cache file named by the job's digest: %v", err)
	}
	s.mu.Lock()
	j := s.jobs[st.ID]
	s.mu.Unlock()
	if j.KeyDigest() != digest {
		t.Errorf("the record names the job %q, want %q", j.KeyDigest(), digest)
	}
	var root obs.Span
	for deadline := time.Now().Add(5 * time.Second); root.Name == "" && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		for _, sp := range s.Spans().TraceSpans(st.TraceID) {
			if sp.Name == "job "+st.ID {
				root = sp
			}
		}
	}
	if got := root.Attrs["fingerprint"]; got != digest {
		t.Errorf("the job span's fingerprint attribute is %q, want %q", got, digest)
	}

	mu.Lock()
	logs := buf.String()
	mu.Unlock()
	named := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(logs), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		if fp, ok := rec["fingerprint"]; ok {
			named[rec["msg"].(string)] = true
			if fp != digest {
				t.Errorf("the %q log line has fingerprint %v, want %s", rec["msg"], fp, digest)
			}
		}
	}
	for _, msg := range []string{"job submitted", "job done", "http request"} {
		if !named[msg] {
			t.Errorf("no %q log line names the job's key:\n%s", msg, logs)
		}
	}
}
