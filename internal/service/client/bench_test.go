package client

// The warm-server rung of the benchmark ladder: one memo-hit job
// through client.Run against an in-process clusterd over keep-alive.

import (
	"context"
	"net/http/httptest"
	"testing"

	"clustervp/internal/config"
	"clustervp/internal/service"
)

// warmMemoServer starts a clusterd, simulates one job on it and returns
// a client plus that job's request, which every later Run answers from
// the server's memo.
func warmMemoServer(tb testing.TB) (*Client, service.JobRequest) {
	tb.Helper()
	s, err := service.New(service.Options{Workers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	tb.Cleanup(ts.Close)
	c := New(ts.URL)
	req := service.JobRequest{Machine: config.MachineSpec{Clusters: "2"}, Kernel: "rawcaudio"}
	st, err := c.Run(context.Background(), req)
	if err != nil || st.State != service.StateDone {
		tb.Fatalf("warm-up run: state=%q err=%v", st.State, err)
	}
	return c, req
}

// BenchmarkClientRunMemo times one memo-hit Run against a warm server
// over a keep-alive connection; run with -benchmem.
func BenchmarkClientRunMemo(b *testing.B) {
	c, req := warmMemoServer(b)
	ctx := context.Background()
	for b.Loop() {
		if _, err := c.Run(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}
