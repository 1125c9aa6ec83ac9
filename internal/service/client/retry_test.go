package client

// Retry/backoff coverage, driven deterministically by the
// fault-injecting transport in internal/service/servicetest: every
// network failure here is scripted, every backoff sleep recorded
// through an injected clock — no timing dependence, no real flakiness.

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"clustervp/internal/config"
	"clustervp/internal/runner"
	"clustervp/internal/service"
	"clustervp/internal/service/servicetest"
	"clustervp/internal/stats"
)

// newFaultyClient wires client → fault transport → in-process server
// with a recording sleep, returning all three knobs.
func newFaultyClient(t *testing.T, policy RetryPolicy) (*Client, *servicetest.Transport, *[]time.Duration) {
	t.Helper()
	s, err := service.New(service.Options{
		Workers: 2,
		Run: func(j runner.Job) (stats.Results, error) {
			return stats.Results{Benchmark: j.Kernel, Cycles: 42}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	tr := servicetest.NewTransport(nil)
	slept := &[]time.Duration{}
	policy.Sleep = func(ctx context.Context, d time.Duration) error {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		*slept = append(*slept, d)
		return nil
	}
	c := New(ts.URL, WithHTTPClient(&http.Client{Transport: tr}), WithRetry(policy))
	return c, tr, slept
}

// submitters are the two ways a job is submitted: the plain submit and
// Run's streamed submit. Each retries a failure before the response
// headers the same way.
var submitters = []struct {
	name      string
	submit    func(*Client, context.Context, service.JobRequest) (service.JobStatus, error)
	wantState string
}{
	{"SubmitJob", (*Client).SubmitJob, service.StateQueued},
	{"Run", (*Client).Run, service.StateDone},
}

// TestRetryTransportDrops: two dropped sends, then success, with the
// exponential schedule recorded exactly.
func TestRetryTransportDrops(t *testing.T) {
	for _, sub := range submitters {
		t.Run(sub.name, func(t *testing.T) {
			c, tr, slept := newFaultyClient(t, RetryPolicy{MaxAttempts: 4, BaseDelay: 10 * time.Millisecond})
			tr.Inject(servicetest.Fault{Method: http.MethodPost, Path: "/v1/jobs", Times: 2, Drop: true})

			st, err := sub.submit(c, context.Background(), service.JobRequest{
				Machine: config.MachineSpec{Clusters: "2"}, Kernel: "rawcaudio",
			})
			if err != nil {
				t.Fatal(err)
			}
			if st.ID == "" || st.State != sub.wantState {
				t.Fatalf("submit after retries = %+v", st)
			}
			if got := tr.Requests(http.MethodPost, "/v1/jobs"); got != 3 {
				t.Errorf("attempts = %d, want 3 (2 drops + 1 success)", got)
			}
			want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}
			if len(*slept) != len(want) || (*slept)[0] != want[0] || (*slept)[1] != want[1] {
				t.Errorf("backoff schedule = %v, want %v", *slept, want)
			}
		})
	}
}

// TestRetryHonorsRetryAfter: a synthesized 503 with Retry-After floors
// the backoff step at the server's hint.
func TestRetryHonorsRetryAfter(t *testing.T) {
	for _, sub := range submitters {
		t.Run(sub.name, func(t *testing.T) {
			c, tr, slept := newFaultyClient(t, RetryPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Millisecond})
			tr.Inject(servicetest.Fault{Path: "/v1/jobs", Times: 1, Status: http.StatusServiceUnavailable, RetryAfterSec: 2})

			st, err := sub.submit(c, context.Background(), service.JobRequest{
				Machine: config.MachineSpec{Clusters: "2"}, Kernel: "rawcaudio",
			})
			if err != nil {
				t.Fatal(err)
			}
			if st.State != sub.wantState {
				t.Errorf("submit after a 503 = %+v", st)
			}
			if got := tr.Requests(http.MethodPost, "/v1/jobs"); got != 2 {
				t.Errorf("attempts = %d, want 2 (one 503 + 1 success)", got)
			}
			if len(*slept) != 1 || (*slept)[0] != 2*time.Second {
				t.Errorf("slept %v, want the server's 2s Retry-After hint", *slept)
			}
		})
	}
}

// TestRetryConnectionReset: a reset mid-flight is retriable like a
// drop; the classified error is still surfaced when attempts run out.
func TestRetryConnectionReset(t *testing.T) {
	c, tr, _ := newFaultyClient(t, RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond})
	tr.Inject(servicetest.Fault{Path: "/v1/statsz", Reset: true}) // unlimited

	_, err := c.Stats(context.Background())
	if !errors.Is(err, servicetest.ErrInjectedReset) {
		t.Fatalf("err = %v, want the injected reset after exhausting retries", err)
	}
	if got := tr.Requests(http.MethodGet, "/v1/statsz"); got != 2 {
		t.Errorf("attempts = %d, want exactly MaxAttempts", got)
	}
}

// TestNoRetryOnVerdicts: 4xx replies are never retried — a bad spec
// stays bad no matter how often it is sent.
func TestNoRetryOnVerdicts(t *testing.T) {
	for _, sub := range submitters {
		t.Run(sub.name, func(t *testing.T) {
			c, tr, slept := newFaultyClient(t, RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond})

			_, err := sub.submit(c, context.Background(), service.JobRequest{
				Machine: config.MachineSpec{Clusters: "2"}, Kernel: "no-such-kernel",
			})
			var apiErr *APIError
			if !errors.As(err, &apiErr) || apiErr.Code != service.CodeInvalidSpec {
				t.Fatalf("err = %v, want invalid_spec", err)
			}
			if got := tr.Requests("", "/v1/jobs"); got != 1 {
				t.Errorf("requests = %d, want 1 (4xx is a verdict)", got)
			}
			if len(*slept) != 0 {
				t.Errorf("slept %v on a non-retriable error", *slept)
			}
		})
	}
}

// TestRetryStopsOnCancel: a canceled context ends the retry loop with
// the context's error, not another attempt.
func TestRetryStopsOnCancel(t *testing.T) {
	c, tr, _ := newFaultyClient(t, RetryPolicy{MaxAttempts: 100, BaseDelay: time.Millisecond})
	tr.Inject(servicetest.Fault{Path: "/v1/statsz", Drop: true})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.Stats(ctx)
	if err == nil {
		t.Fatal("Stats succeeded under a dead context")
	}
	if got := tr.Requests(http.MethodGet, "/v1/statsz"); got > 1 {
		t.Errorf("attempts = %d under a canceled context, want at most 1", got)
	}
}

// TestDuplicateSubmissionIsIdempotentWork: a duplicated submit reaches
// the server twice and creates two job records, but content-addressed
// fingerprints collapse the actual simulation work — which is exactly
// why the fleet's retries are safe.
func TestDuplicateSubmissionIsIdempotentWork(t *testing.T) {
	var executed int
	s, err := service.New(service.Options{
		Workers:  1,
		CacheDir: t.TempDir(),
		Run: func(j runner.Job) (stats.Results, error) {
			executed++ // Workers=1 serializes; no lock needed
			return stats.Results{Benchmark: j.Kernel, Cycles: 42}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	tr := servicetest.NewTransport(nil)
	tr.Inject(servicetest.Fault{Method: http.MethodPost, Path: "/v1/jobs", Times: 1, Duplicate: true})
	c := New(ts.URL, WithHTTPClient(&http.Client{Transport: tr}))

	st, err := c.Run(context.Background(), service.JobRequest{
		Machine: config.MachineSpec{Clusters: "2"}, Kernel: "rawcaudio",
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateDone || st.Results == nil {
		t.Fatalf("final status = %+v", st)
	}
	// Both sends landed…
	zs := s.Stats()
	if zs.Queue.Submitted != 2 {
		t.Errorf("server saw %d submissions, want 2 (the duplicate landed)", zs.Queue.Submitted)
	}
	// …but the cache collapsed the work to one simulation.
	waitDrained(t, s, 2)
	if executed != 1 {
		t.Errorf("simulator ran %d times for a duplicated submission, want 1", executed)
	}
}

// waitDrained blocks until n jobs have reached a terminal state.
func waitDrained(t *testing.T, s *service.Server, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		zs := s.Stats()
		if zs.Queue.Done+zs.Queue.Failed >= n {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("jobs did not drain: %+v", s.Stats().Queue)
}
