package fleet

// The POST /v1/jobs contract, checked on a single box and through the
// coordinator side by side: the streamed submit (Accept:
// application/x-ndjson), the plain 202 JSON form, and the error
// envelopes both answer before any stream byte.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clustervp/internal/config"
	"clustervp/internal/runner"
	"clustervp/internal/service"
	"clustervp/internal/stats"
)

const submitBody = `{"machine":{"clusters":"2"},"kernel":"rawcaudio"}`

// postJob sends one POST /v1/jobs, in the streamed form when stream is
// set, and returns the response with its whole body.
func postJob(t *testing.T, base, key, body string, stream bool) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if stream {
		req.Header.Set("Accept", service.NDJSONType)
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

func instantResults(int) func(runner.Job) (stats.Results, error) {
	return func(j runner.Job) (stats.Results, error) {
		return stats.Results{Benchmark: j.Kernel, Cycles: 10, Instructions: 20}, nil
	}
}

// TestStreamedSubmit: the streamed submit's first line names the job,
// its terminal line carries exactly the status GET /v1/jobs/{id}
// returns, and a submit without the Accept header is unchanged.
func TestStreamedSubmit(t *testing.T) {
	tf := newTestFleet(t, 2, instantResults, nil)
	co := httptest.NewServer(tf.co.Handler())
	defer co.Close()

	for _, target := range []struct {
		name, url   string
		wantReplica bool
	}{
		{"box", tf.servers[0].URL, false},
		{"coordinator", co.URL, true},
	} {
		t.Run(target.name, func(t *testing.T) {
			resp, body := postJob(t, target.url, "", submitBody, true)
			if resp.StatusCode != http.StatusAccepted || resp.Header.Get("Content-Type") != service.NDJSONType {
				t.Fatalf("streamed submit = %d %q, want 202 %s", resp.StatusCode, resp.Header.Get("Content-Type"), service.NDJSONType)
			}
			lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
			var first service.Event
			if err := json.Unmarshal(lines[0], &first); err != nil {
				t.Fatal(err)
			}
			if first.Job == nil || first.Job.ID == "" {
				t.Fatalf("first line %s carries no job ID", lines[0])
			}
			var last struct {
				State string          `json:"state"`
				Job   json.RawMessage `json:"job"`
			}
			if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
				t.Fatal(err)
			}
			if last.State != service.StateDone {
				t.Fatalf("terminal line %s, want done", lines[len(lines)-1])
			}
			resp, got := getBody(t, target.url+"/v1/jobs/"+first.Job.ID)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET job = %d %s", resp.StatusCode, got)
			}
			var status bytes.Buffer
			if err := json.Compact(&status, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(last.Job, status.Bytes()) {
				t.Errorf("terminal job differs from GET /v1/jobs/{id}:\n line %s\n GET  %s", last.Job, status.Bytes())
			}
			if has := bytes.Contains(last.Job, []byte(`"replica":`)); has != target.wantReplica {
				t.Errorf("terminal job %s: replica present = %v, want %v", last.Job, has, target.wantReplica)
			}

			resp, body = postJob(t, target.url, "", submitBody, false)
			if resp.StatusCode != http.StatusAccepted || resp.Header.Get("Content-Type") != "application/json" {
				t.Fatalf("plain submit = %d %q, want 202 application/json", resp.StatusCode, resp.Header.Get("Content-Type"))
			}
			var st service.JobStatus
			if err := json.Unmarshal(body, &st); err != nil || st.ID == "" {
				t.Errorf("plain submit body %s: %v", body, err)
			}
		})
	}
}

// getBody fetches url and returns the response with its whole body.
func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
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

// TestSubmitErrorEnvelopes: a rejected submit is the same error
// envelope on a single box and through the coordinator, streamed or
// not, with no NDJSON byte before it. 401 and 429 exist only on a
// multi-tenant box.
func TestSubmitErrorEnvelopes(t *testing.T) {
	// release is registered after each server's own cleanup, so it runs
	// before that server closes (cleanups run last-in first-out) and no
	// Close waits on a held job.
	hold := make(chan struct{})
	release := sync.OnceFunc(func() { close(hold) })
	held := func(int) func(runner.Job) (stats.Results, error) {
		return func(j runner.Job) (stats.Results, error) {
			<-hold
			return stats.Results{Benchmark: j.Kernel, Cycles: 1}, nil
		}
	}
	// A one-slot fleet holding one job in flight is full.
	tf := newTestFleet(t, 1, held, func(o *Options) { o.QueueDepth = 1 })
	t.Cleanup(release)
	co := httptest.NewServer(tf.co.Handler())
	defer co.Close()
	if _, err := tf.co.Submit(service.JobRequest{Machine: config.MachineSpec{Clusters: "2"}, Kernel: "gsmdec"}); err != nil {
		t.Fatal(err)
	}
	newBox := func(o service.Options) string {
		o.Workers, o.Run = 1, held(0)
		s, err := service.New(o)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() { ts.Close(); s.Close() })
		t.Cleanup(release)
		return ts.URL
	}
	// A one-slot queue behind one busy worker is full.
	box := newBox(service.Options{QueueDepth: 1})
	for i := 0; i < 2; i++ {
		if resp, body := postJob(t, box, "", submitBody, false); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("filling the box: %d %s", resp.StatusCode, body)
		}
		waitQueued(t, box, i)
	}
	// A tenant whose one in-flight job is held is over quota.
	const key = "tenant-key-0001"
	mt := newBox(service.Options{Tenants: []service.Tenant{{Name: "a", Key: key, MaxInFlight: 1}}})
	if resp, body := postJob(t, mt, key, submitBody, false); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("filling the tenant: %d %s", resp.StatusCode, body)
	}

	oversized := `{"kernel":"` + strings.Repeat("x", 1<<20) + `"}`
	unknownField := `{"machine":{"clusters":"2"},"kernal":"rawcaudio"}`
	type errCase struct {
		name, body, key string
		status          int
		code, message   string
	}
	common := []errCase{
		{"oversized body", oversized, "", http.StatusRequestEntityTooLarge, service.CodePayloadTooLarge, "exceeds"},
		{"unknown field", unknownField, "", http.StatusBadRequest, service.CodeInvalidSpec, `"kernal"`},
		{"invalid spec", `{"kernel":"nosuch"}`, "", http.StatusBadRequest, service.CodeInvalidSpec, "nosuch"},
		{"queue full", submitBody, "", http.StatusServiceUnavailable, service.CodeQueueFull, ""},
	}
	targets := []struct {
		name, url string
		cases     []errCase
	}{
		{"box", box, common},
		{"coordinator", co.URL, common},
		{"tenant box", mt, []errCase{
			{"missing key", submitBody, "", http.StatusUnauthorized, service.CodeUnauthorized, ""},
			{"quota", submitBody, key, http.StatusTooManyRequests, service.CodeQuotaExceeded, ""},
		}},
	}
	for _, target := range targets {
		for _, tc := range target.cases {
			for _, stream := range []bool{false, true} {
				name := target.name + "/" + tc.name
				if stream {
					name += "/streamed"
				}
				t.Run(name, func(t *testing.T) {
					resp, body := postJob(t, target.url, tc.key, tc.body, stream)
					if resp.StatusCode != tc.status || resp.Header.Get("Content-Type") != "application/json" {
						t.Fatalf("= %d %q, want %d application/json (body %.200s)",
							resp.StatusCode, resp.Header.Get("Content-Type"), tc.status, body)
					}
					var env service.ErrorEnvelope
					if err := json.Unmarshal(body, &env); err != nil {
						t.Fatalf("body is not one envelope: %v (%.200s)", err, body)
					}
					if env.Error.Code != tc.code || !strings.Contains(env.Error.Message, tc.message) {
						t.Errorf("envelope = %+v, want code %s with %q in the message", env.Error, tc.code, tc.message)
					}
					retryable := tc.status == http.StatusServiceUnavailable || tc.status == http.StatusTooManyRequests
					if got := resp.Header.Get("Retry-After"); (got != "") != retryable {
						t.Errorf("Retry-After = %q on a %d", got, tc.status)
					}
				})
			}
		}
	}
}

// waitQueued blocks until the box's queue holds n jobs: the first
// submit must reach the worker before the second can fill the queue.
func waitQueued(t *testing.T, base string, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var zs service.ServerStats
		_, body := getBody(t, base+"/v1/statsz")
		if err := json.Unmarshal(body, &zs); err != nil {
			t.Fatal(err)
		}
		if zs.Queue.Depth == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d, want %d", zs.Queue.Depth, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDispatchPollsAfterCutStream: when a replica's stream breaks after
// the line naming its job, the coordinator asks that replica for the
// job's status once and, finding it done, delivers it without a second
// dispatch.
func TestDispatchPollsAfterCutStream(t *testing.T) {
	var posts, polls atomic.Int32
	done := service.JobStatus{ID: "j-00000001", State: service.StateDone,
		Results: &stats.Results{Benchmark: "rawcaudio", Cycles: 7}}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"ok":true}`))
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		posts.Add(1)
		w.Header().Set("Content-Type", service.NDJSONType)
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(service.Event{
			State: service.StateQueued,
			Job:   &service.JobStatus{ID: done.ID, State: service.StateQueued},
		})
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler) // cut the connection mid-stream
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		polls.Add(1)
		json.NewEncoder(w).Encode(done)
	})
	replica := httptest.NewServer(mux)
	defer replica.Close()
	co, err := New(Options{Replicas: []string{replica.URL}, ProbeInterval: 25 * time.Millisecond, Retry: clientRetryFast()})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	st, err := co.Submit(service.JobRequest{Machine: config.MachineSpec{Clusters: "2"}, Kernel: "rawcaudio"})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitJob(t, co, st.ID)
	if fin.State != service.StateDone || fin.Results == nil || fin.Results.Cycles != 7 {
		t.Fatalf("job after a cut stream = %+v, want the polled done status", fin)
	}
	if p, q, r := posts.Load(), polls.Load(), co.d.resubmits.Load(); p != 1 || q != 1 || r != 0 {
		t.Errorf("posts=%d polls=%d resubmits=%d, want 1, 1, 0", p, q, r)
	}
}

// TestTerminalOnlyStreamKeepsStartedAt: a replica whose job finished
// before its stream's first snapshot answers with the terminal line
// alone, no running line. The coordinator's status must still carry
// the start time the replica's status carries, as a single box's does.
func TestTerminalOnlyStreamKeepsStartedAt(t *testing.T) {
	started := time.Date(2024, 5, 1, 12, 0, 0, 0, time.UTC)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"ok":true}`))
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", service.NDJSONType)
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(service.Event{
			State: service.StateDone,
			Job: &service.JobStatus{ID: "j-00000001", State: service.StateDone,
				StartedAt: started, FinishedAt: started.Add(time.Millisecond),
				Results: &stats.Results{Benchmark: "rawcaudio", Cycles: 7}},
		})
	})
	replica := httptest.NewServer(mux)
	defer replica.Close()
	co, err := New(Options{Replicas: []string{replica.URL}, ProbeInterval: 25 * time.Millisecond, Retry: clientRetryFast()})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	st, err := co.Submit(service.JobRequest{Machine: config.MachineSpec{Clusters: "2"}, Kernel: "rawcaudio"})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitJob(t, co, st.ID)
	if fin.State != service.StateDone || fin.Results == nil || fin.Results.Cycles != 7 {
		t.Fatalf("job after a terminal-only stream = %+v, want the streamed done status", fin)
	}
	if !fin.StartedAt.Equal(started) {
		t.Errorf("started_at = %v, want the replica's %v", fin.StartedAt, started)
	}
}
