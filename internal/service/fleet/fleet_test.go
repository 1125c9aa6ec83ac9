package fleet

// Coordinator unit tests: deterministic shard assignment, the
// admission/backpressure contract, wire-envelope compatibility with
// the single box, and the 1-vs-3-replica byte-identity acceptance
// criterion. The chaos/kill scenario lives in chaos_test.go.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"clustervp/internal/config"
	"clustervp/internal/runner"
	"clustervp/internal/service"
	"clustervp/internal/service/client"
	"clustervp/internal/stats"
)

// testFleet is an in-process fleet: n replicas (real service.Servers
// over httptest) and a coordinator over their URLs.
type testFleet struct {
	co       *Coordinator
	replicas []*service.Server
	servers  []*httptest.Server
	executed []*atomic.Int64 // per-replica completed simulations
	// cacheDir and traceDir are the result cache and trace store every
	// replica shares.
	cacheDir, traceDir string
}

// newTestFleet boots n replicas and a coordinator. runFor(i) supplies
// replica i's simulator (nil = real runner.Simulate); mutate tweaks
// coordinator options.
func newTestFleet(t *testing.T, n int, runFor func(i int) func(runner.Job) (stats.Results, error), mutate func(*Options)) *testFleet {
	t.Helper()
	tf := &testFleet{cacheDir: t.TempDir(), traceDir: t.TempDir()}
	var urls []string
	for i := 0; i < n; i++ {
		counter := &atomic.Int64{}
		var run func(runner.Job) (stats.Results, error)
		if runFor != nil {
			run = runFor(i)
		}
		if run == nil {
			run = func(j runner.Job) (stats.Results, error) { return runner.Simulate(j) }
		}
		inner := run
		counted := func(j runner.Job) (stats.Results, error) {
			res, err := inner(j)
			if err == nil {
				counter.Add(1)
			}
			return res, err
		}
		s, err := service.New(service.Options{Workers: 1, CacheDir: tf.cacheDir, TraceDir: tf.traceDir, Run: counted})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		tf.replicas = append(tf.replicas, s)
		tf.servers = append(tf.servers, ts)
		tf.executed = append(tf.executed, counter)
		urls = append(urls, ts.URL)
	}
	opts := Options{
		Replicas:      urls,
		ProbeInterval: 25 * time.Millisecond,
		DownAfter:     2,
		Retry:         clientRetryFast(),
	}
	if mutate != nil {
		mutate(&opts)
	}
	co, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	tf.co = co
	t.Cleanup(func() {
		co.Close()
		for i, s := range tf.replicas {
			tf.servers[i].Close()
			s.Close()
		}
	})
	return tf
}

// waitJob polls until the job is terminal.
func waitJob(t *testing.T, co *Coordinator, id string) service.JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st, err := co.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == service.StateDone || st.State == service.StateFailed {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return service.JobStatus{}
}

// shardKey is the key a kernel job is sharded by: the digest of its
// fingerprint.
func shardKey(t *testing.T, r service.JobRequest) string {
	t.Helper()
	return runner.KeyDigest(runner.Job{Config: mustBuild(t, r.Machine), Kernel: r.Kernel, Scale: r.Scale, Seed: r.Seed}.Fingerprint())
}

// TestShardAssignmentDeterministic: the home shard is a pure function
// of the fingerprint's digest and the configured list — stable across
// calls, coordinators, and unaffected by health.
func TestShardAssignmentDeterministic(t *testing.T) {
	d := &dispatcher{replicas: make([]*replica, 3)}
	d2 := &dispatcher{replicas: make([]*replica, 3)}
	reqs := []service.JobRequest{
		{Machine: config.MachineSpec{Clusters: "2"}, Kernel: "rawcaudio"},
		{Machine: config.MachineSpec{Clusters: "4"}, Kernel: "gsmdec"},
		{Machine: config.MachineSpec{Clusters: "2"}, Kernel: "gsmdec", Scale: 2},
		{Machine: config.MachineSpec{Clusters: "1", VP: "stride"}, Kernel: "cjpeg", Seed: 7},
	}
	for _, r := range reqs {
		key := shardKey(t, r)
		if key2 := shardKey(t, r); key2 != key {
			t.Errorf("shardKey unstable for %+v", r)
		}
		if d.shardOf(key) != d2.shardOf(key) {
			t.Errorf("shardOf differs across coordinators for %q", key)
		}
		if s := d.shardOf(key); s < 0 || s >= 3 {
			t.Errorf("shardOf(%q) = %d out of range", key, s)
		}
	}
	// Different scales/seeds are different shards keys (they are
	// different cache entries, so they may land on different homes).
	if shardKey(t, reqs[1]) == shardKey(t, reqs[2]) {
		t.Error("distinct jobs share a shard key")
	}
}

// TestShardKeyValidates: a bad spec is rejected at the coordinator with
// the single box's invalid_spec discipline, before any dispatch.
func TestShardKeyValidates(t *testing.T) {
	tf := newTestFleet(t, 1, instantResults, nil)
	for _, req := range []service.JobRequest{
		{Machine: config.MachineSpec{Clusters: "2"}},                                            // no kernel
		{Machine: config.MachineSpec{Clusters: "2"}, Kernel: "no-such-kernel"},                  // unknown kernel
		{Machine: config.MachineSpec{Clusters: "three"}, Kernel: "rawcaudio"},                   // bad machine
		{Machine: config.MachineSpec{Clusters: "2"}, Kernel: "rawcaudio", TraceDigest: "sha:x"}, // both
	} {
		if _, err := tf.co.Submit(req); !errors.Is(err, service.ErrBadRequest) {
			t.Errorf("Submit(%+v) err = %v, want ErrBadRequest", req, err)
		}
	}
	if n := tf.co.Stats().Replicas[0].Dispatched; n != 0 {
		t.Errorf("%d rejected jobs reached a replica", n)
	}
}

// TestFleetRunMatchesLocal: one job through a 3-replica fleet returns
// results byte-identical to a local simulation, with the replica
// attributed.
func TestFleetRunMatchesLocal(t *testing.T) {
	tf := newTestFleet(t, 3, nil, nil)
	req := service.JobRequest{Machine: config.MachineSpec{Clusters: "2"}, Kernel: "rawcaudio"}
	st, err := tf.co.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	final := waitJob(t, tf.co, st.ID)
	if final.State != service.StateDone || final.Results == nil {
		t.Fatalf("fleet job = %+v", final)
	}
	if !strings.HasPrefix(final.Replica, "replica-") {
		t.Errorf("done job not replica-attributed: %q", final.Replica)
	}

	rj := runner.Job{Config: mustBuild(t, req.Machine), Kernel: req.Kernel}
	want, err := runner.Simulate(rj)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(final.Results)
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("fleet results differ from local:\n fleet: %s\n local: %s", gotJSON, wantJSON)
	}
}

// TestOneVsThreeReplicasByteIdentical is the determinism acceptance
// criterion: the same grid through a 1-replica fleet and a 3-replica
// fleet produces byte-identical results JSON, Bobpp-style.
func TestOneVsThreeReplicasByteIdentical(t *testing.T) {
	grid := service.GridRequest{
		Machines: []config.MachineSpec{{Clusters: "2"}, {Clusters: "4", VP: "stride", Steering: "vpb"}},
		Kernels:  []string{"rawcaudio", "gsmdec"},
	}
	run := func(n int) []byte {
		tf := newTestFleet(t, n, nil, nil)
		ids, err := tf.co.SubmitGrid(grid)
		if err != nil {
			t.Fatal(err)
		}
		var all []stats.Results
		for _, id := range ids {
			st := waitJob(t, tf.co, id)
			if st.State != service.StateDone {
				t.Fatalf("%d-replica fleet: job %s failed: %s", n, id, st.Error)
			}
			all = append(all, *st.Results)
		}
		data, err := json.Marshal(all)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	one := run(1)
	three := run(3)
	if !bytes.Equal(one, three) {
		t.Errorf("results differ by replica count:\n 1: %s\n 3: %s", one, three)
	}
}

// TestFleetBackpressure: past QueueDepth the coordinator answers the
// single box's 503 queue_full envelope, Retry-After included, and a
// grid is all-or-nothing.
func TestFleetBackpressure(t *testing.T) {
	gate := make(chan struct{})
	tf := newTestFleet(t, 1, func(i int) func(runner.Job) (stats.Results, error) {
		return func(j runner.Job) (stats.Results, error) {
			<-gate
			return stats.Results{Benchmark: j.Kernel, Cycles: 1}, nil
		}
	}, func(o *Options) { o.QueueDepth = 2 })
	defer close(gate)

	ts := httptest.NewServer(tf.co.Handler())
	defer ts.Close()

	submit := func(kernel string, scale int) (*http.Response, []byte) {
		body := fmt.Sprintf(`{"machine":{"clusters":"2"},"kernel":%q,"scale":%d}`, kernel, scale)
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp, data
	}

	if resp, _ := submit("rawcaudio", 1); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d", resp.StatusCode)
	}
	if resp, _ := submit("rawcaudio", 2); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit = %d", resp.StatusCode)
	}
	resp, body := submit("rawcaudio", 3)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("third submit = %d, want 503: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	var env service.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != service.CodeQueueFull {
		t.Errorf("envelope = %s", body)
	}
	if env.SchemaVersion != service.SchemaVersion {
		t.Errorf("schema_version = %d, want %d", env.SchemaVersion, service.SchemaVersion)
	}
}

// TestFleetNoLiveReplicas: with every replica down, admission degrades
// to 503 queue_full so clients back off — the fleet-wide analogue of a
// saturated queue.
func TestFleetNoLiveReplicas(t *testing.T) {
	tf := newTestFleet(t, 2, func(i int) func(runner.Job) (stats.Results, error) {
		return func(j runner.Job) (stats.Results, error) {
			return stats.Results{Benchmark: j.Kernel, Cycles: 1}, nil
		}
	}, nil)
	// Kill both replicas and wait for the probes to notice.
	for _, ts := range tf.servers {
		ts.CloseClientConnections()
		ts.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for tf.co.d.liveReplicas() > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := tf.co.d.liveReplicas(); n != 0 {
		t.Fatalf("%d replicas still live after closing all servers", n)
	}
	_, err := tf.co.Submit(service.JobRequest{Machine: config.MachineSpec{Clusters: "2"}, Kernel: "rawcaudio"})
	if err == nil {
		t.Fatal("submit accepted with zero live replicas")
	}
	if !errors.Is(err, service.ErrQueueFull) {
		t.Errorf("no-live-replicas error = %v, want ErrQueueFull (503 queue_full)", err)
	}
}

// TestFleetStatszAndEnvelopes: the statsz payload carries the fleet
// shape. The envelopes of unknown paths, wrong methods and unknown
// jobs are checked on every deployment by TestHTTPContract.
func TestFleetStatszAndEnvelopes(t *testing.T) {
	tf := newTestFleet(t, 2, func(i int) func(runner.Job) (stats.Results, error) {
		return func(j runner.Job) (stats.Results, error) {
			return stats.Results{Benchmark: j.Kernel, Cycles: 1}, nil
		}
	}, nil)
	ts := httptest.NewServer(tf.co.Handler())
	defer ts.Close()

	st, err := tf.co.Submit(service.JobRequest{Machine: config.MachineSpec{Clusters: "2"}, Kernel: "rawcaudio"})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, tf.co, st.ID)

	resp, err := http.Get(ts.URL + "/v1/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var zs Stats
	if err := json.NewDecoder(resp.Body).Decode(&zs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if zs.Role != "coordinator" || zs.SchemaVersion != service.SchemaVersion {
		t.Errorf("statsz header = %+v", zs)
	}
	if len(zs.Replicas) != 2 || zs.Coordinator.Done != 1 || zs.Coordinator.Submitted != 1 {
		t.Errorf("statsz = %+v", zs)
	}
	var dispatched int64
	for _, r := range zs.Replicas {
		if r.State != "up" {
			t.Errorf("replica %s state = %q, want up", r.Name, r.State)
		}
		dispatched += r.Dispatched
	}
	if dispatched != 1 {
		t.Errorf("dispatched = %d, want 1", dispatched)
	}
}

// mustBuild resolves a machine spec or fails the test.
func mustBuild(t *testing.T, m config.MachineSpec) config.Config {
	t.Helper()
	cfg, err := m.Build()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// clientRetryFast is the test-speed retry policy.
func clientRetryFast() client.RetryPolicy {
	return client.RetryPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Millisecond}
}
