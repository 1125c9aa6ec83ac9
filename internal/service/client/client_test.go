package client

// Client tests against an in-process httptest-backed clusterd: the
// full submit → wait → results loop, grid submission, trace upload,
// and error surfacing.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"clustervp/internal/config"
	"clustervp/internal/runner"
	"clustervp/internal/service"
	"clustervp/internal/trace"
	"clustervp/internal/workload"

	"net/http/httptest"
)

func newClientServer(t *testing.T, opts service.Options) (*Client, *service.Server) {
	t.Helper()
	if opts.Workers == 0 {
		opts.Workers = 2
	}
	s, err := service.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return New(ts.URL), s
}

func TestClientRunMatchesLocal(t *testing.T) {
	c, _ := newClientServer(t, service.Options{})
	ctx := context.Background()
	if err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}
	st, err := c.Run(ctx, service.JobRequest{
		Machine: config.MachineSpec{Clusters: "2", VP: "stride"},
		Kernel:  "rawcaudio",
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateDone || st.Results == nil {
		t.Fatalf("remote run finished %q (%s)", st.State, st.Error)
	}
	cfg, err := config.MachineSpec{Clusters: "2", VP: "stride"}.Build()
	if err != nil {
		t.Fatal(err)
	}
	want, err := runner.Simulate(runner.Job{Config: cfg, Kernel: "rawcaudio"})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(st.Results)
	local, _ := json.Marshal(want)
	if !bytes.Equal(got, local) {
		t.Errorf("remote results differ from local:\nremote %s\nlocal  %s", got, local)
	}

	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Queue.Done < 1 {
		t.Errorf("statsz after a done job: %+v", stats)
	}
}

func TestClientGridAndErrors(t *testing.T) {
	c, s := newClientServer(t, service.Options{})
	ctx := context.Background()
	ids, err := c.SubmitGrid(ctx, service.GridRequest{
		Machines: []config.MachineSpec{{Clusters: "2"}, {Clusters: "4"}},
		Kernels:  []string{"rawcaudio"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Fatalf("grid returned %d ids, want 2", len(ids))
	}
	for _, id := range ids {
		st, err := c.Wait(ctx, id)
		if err != nil || st.State != service.StateDone {
			t.Fatalf("job %s: state=%q err=%v", id, st.State, err)
		}
	}
	if ex := s.Engine().Executed(); ex != 2 {
		t.Errorf("grid executed %d simulations, want 2", ex)
	}

	// Server-side validation errors surface with their message.
	if _, err := c.SubmitJob(ctx, service.JobRequest{Kernel: "nosuch"}); err == nil ||
		!strings.Contains(err.Error(), "unknown kernel") {
		t.Errorf("bad kernel error = %v, want the server's message", err)
	}
	if _, err := c.Status(ctx, "j-99999999"); err == nil || !strings.Contains(err.Error(), "no such job") {
		t.Errorf("unknown job error = %v", err)
	}
}

func TestClientTraceUploadRoundTrip(t *testing.T) {
	c, _ := newClientServer(t, service.Options{TraceDir: t.TempDir()})
	ctx := context.Background()

	prog, err := workload.Build("rawcaudio", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.cvt")
	if _, err := trace.WriteFile(path, prog.Name, prog.Code, trace.NewExecutor(prog)); err != nil {
		t.Fatal(err)
	}
	digest, records, err := c.UploadTraceFile(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	if records == 0 || !strings.HasPrefix(digest, trace.DigestPrefix) {
		t.Fatalf("upload: digest=%q records=%d", digest, records)
	}
	st, err := c.Run(ctx, service.JobRequest{
		Machine:     config.MachineSpec{Clusters: "2"},
		TraceDigest: digest,
	})
	if err != nil || st.State != service.StateDone {
		t.Fatalf("trace job: state=%q err=%v (%s)", st.State, err, st.Error)
	}
	want, err := runner.Simulate(runner.Job{Config: config.Preset(2), Trace: path})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(st.Results)
	local, _ := json.Marshal(want)
	if !bytes.Equal(got, local) {
		t.Errorf("uploaded-trace results differ from local replay")
	}

	// Corrupt uploads are rejected with the trace error text.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.UploadTrace(ctx, bytes.NewReader(data[:len(data)/2])); err == nil ||
		!strings.Contains(err.Error(), "trace") {
		t.Errorf("corrupt upload error = %v", err)
	}
}

func TestClientFailedJobSurfacesError(t *testing.T) {
	c, _ := newClientServer(t, service.Options{})
	ctx := context.Background()
	// An absurdly small cycle budget fails mid-run.
	st, err := c.Run(ctx, service.JobRequest{
		Machine: config.MachineSpec{Clusters: "2", MaxCycles: 10},
		Kernel:  "cjpeg",
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateFailed || !strings.Contains(st.Error, "exceeded") {
		t.Fatalf("budget-exhausted job: state=%q error=%q", st.State, st.Error)
	}
	if st.Results != nil {
		t.Error("failed job carries results")
	}
}

// TestRunRecoversFromCutStream: a streamed submit whose stream breaks
// after its first line is not submitted again; Run waits on the job ID
// that line carried and returns the final status from the events
// stream.
func TestRunRecoversFromCutStream(t *testing.T) {
	var posts, waits atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		posts.Add(1)
		w.Header().Set("Content-Type", service.NDJSONType)
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(service.Event{
			State: service.StateQueued,
			Job:   &service.JobStatus{ID: "j-00000007", State: service.StateQueued},
		})
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler) // cut the connection mid-stream
	})
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		waits.Add(1)
		if id := r.PathValue("id"); id != "j-00000007" {
			t.Errorf("waited on %q, want the ID from the first line", id)
		}
		json.NewEncoder(w).Encode(service.Event{
			State: service.StateDone,
			Job:   &service.JobStatus{ID: "j-00000007", State: service.StateDone, Kernel: "rawcaudio"},
		})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	st, err := New(ts.URL).Run(context.Background(), service.JobRequest{Kernel: "rawcaudio"})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "j-00000007" || st.State != service.StateDone || st.Kernel != "rawcaudio" {
		t.Errorf("Run after a cut stream = %+v, want the done status from the events stream", st)
	}
	if n := posts.Load(); n != 1 {
		t.Errorf("POSTs = %d, want exactly 1 (the job exists once its ID is known)", n)
	}
	if n := waits.Load(); n != 1 {
		t.Errorf("events requests = %d, want 1", n)
	}
}
