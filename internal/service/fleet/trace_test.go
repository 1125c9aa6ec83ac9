package fleet

// Fleet tracing tests: the coordinator→replica hop shares one trace id
// (the acceptance criterion: one trace per job covering
// admission→queue→dispatch→simulate across processes), a failover
// resubmission shows up as a second fleet.dispatch span under the same
// parent, and the merged /trace endpoint stitches both processes'
// spans together, and a trace job carries one key on both sides of
// the hop.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"clustervp/internal/config"
	"clustervp/internal/obs"
	"clustervp/internal/runner"
	"clustervp/internal/service"
	"clustervp/internal/service/client"
	"clustervp/internal/service/servicetest"
	"clustervp/internal/stats"
	"clustervp/internal/trace"
	"clustervp/internal/workload"
)

// dispatchSpans filters a span set to the coordinator's per-attempt
// dispatch spans.
func dispatchSpans(spans []obs.Span) []obs.Span {
	var out []obs.Span
	for _, sp := range spans {
		if sp.Name == "fleet.dispatch" {
			out = append(out, sp)
		}
	}
	return out
}

// waitSpans polls the collector until the trace holds at least want
// fleet.dispatch spans — span recording trails the job's terminal
// status by a few instructions.
func waitSpans(t *testing.T, c *obs.Collector, traceID string, want int) []obs.Span {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		spans := c.TraceSpans(traceID)
		if len(dispatchSpans(spans)) >= want || !time.Now().Before(deadline) {
			return spans
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFleetHopSharesTrace: a job dispatched through the coordinator
// carries ONE trace id end to end — the coordinator's job root and
// dispatch spans and the executing replica's admission/queue/run/sim
// spans all join under it, and the merged /trace endpoint returns the
// whole cross-process timeline.
func TestFleetHopSharesTrace(t *testing.T) {
	tf := newTestFleet(t, 2, nil, nil)
	st, err := tf.co.Submit(service.JobRequest{Machine: config.MachineSpec{Clusters: "2"}, Kernel: "rawcaudio"})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.TraceID) != 32 {
		t.Fatalf("fleet job trace id %q is not 32 hex chars", st.TraceID)
	}
	fin := waitJob(t, tf.co, st.ID)
	if fin.State != service.StateDone {
		t.Fatalf("job = %+v", fin)
	}

	// Coordinator side: job root + at least one dispatch attempt.
	coSpans := waitSpans(t, tf.co.Spans(), st.TraceID, 1)
	var jobRoot obs.Span
	for _, sp := range coSpans {
		if strings.HasPrefix(sp.Name, "job f-") {
			jobRoot = sp
		}
	}
	if jobRoot.SpanID == "" {
		t.Fatalf("coordinator has no job root span for trace %s: %+v", st.TraceID, coSpans)
	}
	for _, d := range dispatchSpans(coSpans) {
		if d.ParentID != jobRoot.SpanID {
			t.Errorf("dispatch span parent = %s, want job root %s", d.ParentID, jobRoot.SpanID)
		}
	}

	// Replica side: exactly the hop contract — some replica holds spans
	// for the SAME trace id, including the full job lifecycle.
	replicaNames := map[string]bool{}
	for _, s := range tf.replicas {
		for _, sp := range s.Spans().TraceSpans(st.TraceID) {
			replicaNames[sp.Name] = true
		}
	}
	for _, want := range []string{"queue.wait", "job.run"} {
		if !replicaNames[want] {
			t.Errorf("no replica recorded a %q span under trace %s; saw %v", want, st.TraceID, replicaNames)
		}
	}

	// Merged endpoint: both processes' spans in one timeline.
	ts := httptest.NewServer(tf.co.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	var tr service.TraceResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	services := map[string]bool{}
	for _, sp := range tr.Spans {
		services[sp.Service] = true
	}
	if !services["coordinator"] || !services["clusterd"] {
		t.Errorf("merged trace covers services %v, want both coordinator and clusterd", services)
	}

	// And the merged timeline renders as Chrome trace JSON.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + st.ID + "/trace?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&chrome); err != nil {
		t.Fatalf("merged chrome trace does not parse: %v", err)
	}
	resp.Body.Close()
	if len(chrome.TraceEvents) < len(tr.Spans) {
		t.Errorf("chrome trace has %d events for %d spans", len(chrome.TraceEvents), len(tr.Spans))
	}
}

// TestFailoverSecondDispatchSpan: when the first dispatch attempt dies
// on the wire, the resubmission appears in the timeline as a second
// fleet.dispatch span under the same job parent — attempt 0 undelivered,
// attempt 1 delivered.
func TestFailoverSecondDispatchSpan(t *testing.T) {
	faults := servicetest.NewTransport(nil)
	// The first job submission is swallowed on the wire; with a
	// single-attempt client policy the coordinator's failover ring — not
	// the client's retry loop — must absorb it.
	faults.Inject(servicetest.Fault{Method: http.MethodPost, Path: "/v1/jobs", Times: 1, Drop: true})
	tf := newTestFleet(t, 2, func(i int) func(j runner.Job) (stats.Results, error) {
		return func(j runner.Job) (stats.Results, error) {
			return stats.Results{Benchmark: j.Kernel, Cycles: 1}, nil
		}
	}, func(o *Options) {
		o.HTTPClient = &http.Client{Transport: faults}
		o.Retry = client.RetryPolicy{MaxAttempts: 1, BaseDelay: time.Millisecond}
	})

	st, err := tf.co.Submit(service.JobRequest{Machine: config.MachineSpec{Clusters: "2"}, Kernel: "rawcaudio"})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitJob(t, tf.co, st.ID)
	if fin.State != service.StateDone {
		t.Fatalf("job after failover = %+v", fin)
	}
	if n := tf.co.d.resubmits.Load(); n < 1 {
		t.Fatalf("resubmits = %d, want >= 1", n)
	}

	spans := waitSpans(t, tf.co.Spans(), st.TraceID, 2)
	dispatches := dispatchSpans(spans)
	if len(dispatches) < 2 {
		t.Fatalf("trace has %d dispatch spans after a failover, want >= 2: %+v", len(dispatches), spans)
	}
	parents := map[string]bool{}
	byAttempt := map[string]obs.Span{}
	for _, d := range dispatches {
		parents[d.ParentID] = true
		byAttempt[d.Attrs["attempt"]] = d
	}
	if len(parents) != 1 {
		t.Errorf("dispatch spans have %d distinct parents, want 1 (siblings under the job span)", len(parents))
	}
	if d, ok := byAttempt["0"]; !ok || d.Attrs["delivered"] != "false" {
		t.Errorf("attempt 0 = %+v, want delivered=false", byAttempt["0"])
	}
	if d, ok := byAttempt["1"]; !ok || d.Attrs["delivered"] != "true" {
		t.Errorf("attempt 1 = %+v, want delivered=true", byAttempt["1"])
	}
	if byAttempt["0"].Attrs["replica"] == byAttempt["1"].Attrs["replica"] {
		t.Errorf("both attempts hit %q; the resubmission should have moved on",
			byAttempt["0"].Attrs["replica"])
	}
}

// spanAttr polls the collectors for the first span of the trace that
// carries attr, and returns its value: a job's root span is recorded
// when it ends, a little after the job's terminal status.
func spanAttr(t *testing.T, traceID, attr string, cs ...*obs.Collector) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, c := range cs {
			for _, sp := range c.TraceSpans(traceID) {
				if v := sp.Attrs[attr]; v != "" {
					return v
				}
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return ""
}

// TestFleetTraceJobKeyedAlike: a trace job run through the coordinator
// has one key on both sides of the hop. The coordinator's shard key is
// the digest the executing replica names the job by, and the shared
// result cache holds the entry under that name.
func TestFleetTraceJobKeyedAlike(t *testing.T) {
	tf := newTestFleet(t, 2, func(int) func(runner.Job) (stats.Results, error) {
		return func(runner.Job) (stats.Results, error) { return stats.Results{Cycles: 1}, nil }
	}, nil)
	prog, err := workload.Build("rawcaudio", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.cvt")
	if _, err := trace.WriteFile(path, prog.Name, prog.Code, trace.NewExecutor(prog)); err != nil {
		t.Fatal(err)
	}
	digest, _, err := tf.replicas[0].TraceStore().PutFile(path)
	if err != nil {
		t.Fatal(err)
	}

	st, err := tf.co.Submit(service.JobRequest{Machine: config.MachineSpec{Clusters: "2"}, TraceDigest: digest})
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitJob(t, tf.co, st.ID); fin.State != service.StateDone {
		t.Fatalf("trace job = %+v", fin)
	}
	shardKey := spanAttr(t, st.TraceID, "shard_key", tf.co.Spans())
	if shardKey == "" {
		t.Fatal("coordinator recorded no shard_key")
	}
	replicaKey := spanAttr(t, st.TraceID, "fingerprint", tf.replicas[0].Spans(), tf.replicas[1].Spans())
	if replicaKey != shardKey {
		t.Errorf("replica keyed the job %q, the coordinator %q", replicaKey, shardKey)
	}
	if _, err := os.Stat(filepath.Join(tf.cacheDir, shardKey+".cvr")); err != nil {
		t.Errorf("shared cache holds no entry named by the shard key: %v", err)
	}
}
