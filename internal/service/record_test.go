//go:build !race

package service

// Byte bounds for the records a long-lived server keeps. They are left
// out of -race builds, whose shadow memory and instrumented allocations
// would measure the detector rather than the server.

import (
	"runtime"
	"testing"
	"time"

	"clustervp/internal/config"
	"clustervp/internal/runner"
	"clustervp/internal/stats"
)

// memoHitServer returns a server whose stub simulator answers at once,
// with each of fingerprints distinct jobs already resolved, so every
// later submission of one of them is a memo hit.
func memoHitServer(t *testing.T, fingerprints int) (*Server, func(i int) JobRequest) {
	t.Helper()
	s := newTestServer(t, func(o *Options) {
		o.SpanRing = 64
		o.Run = func(j runner.Job) (stats.Results, error) {
			return stats.Results{Benchmark: j.Kernel, Cycles: 100, Instructions: 150}, nil
		}
	})
	req := func(i int) JobRequest {
		return JobRequest{
			Machine: config.MachineSpec{Clusters: "4", VP: "stride", Steering: "vpb"},
			Kernel:  "rawcaudio",
			Seed:    uint64(i%fingerprints) + 1,
		}
	}
	for i := 0; i < fingerprints; i++ {
		runReleased(t, s, req(i))
	}
	return s, req
}

// runReleased submits req and waits until its job is terminal and
// released.
func runReleased(t *testing.T, s *Server, req JobRequest) {
	t.Helper()
	j, _, err := s.submitAs(s.anonymous, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	j.mu.Lock()
	var terminal chan struct{}
	if j.live != nil {
		terminal = j.live.terminal
	}
	j.mu.Unlock()
	if terminal != nil {
		<-terminal
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Microsecond) {
		j.mu.Lock()
		released := j.live == nil
		j.mu.Unlock()
		if released {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s terminal but never released", j.id)
		}
	}
}

func heapAfterGC() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestFinishedJobRecordBytes: a finished record keeps its status and
// little else. A full table of memo-hit records (the default
// MaxJobRecords, over 8 fingerprints) grows the live heap by at most
// 1,000 bytes a record; it reads about 820. Before records released
// their spans, request, runner job and subscriber table it was about
// 3,650, and about 1,640 while each kept its own copy of the
// fingerprint and its own terminal channel.
func TestFinishedJobRecordBytes(t *testing.T) {
	const fingerprints = 8
	s, req := memoHitServer(t, fingerprints)
	n := s.opts.MaxJobRecords - fingerprints
	before := heapAfterGC()
	for i := 0; i < n; i++ {
		runReleased(t, s, req(i))
	}
	after := heapAfterGC()
	if got := len(s.jobs); got != n+fingerprints {
		t.Fatalf("%d records retained, want %d", got, n+fingerprints)
	}
	perRecord := (int64(after) - int64(before)) / int64(n)
	t.Logf("%d finished records: %d bytes of live heap each", n, perRecord)
	if perRecord > 1000 {
		t.Errorf("a finished job record keeps %d bytes, want at most 1,000", perRecord)
	}
}

// memoHitBytes bounds the bytes one served memo hit allocates. It read
// about 7,550 when the engine formatted the fingerprint a second time,
// about 5,000 once the key is passed down, and about 4,950 with binary
// span ids and the key's digest on the record.
const memoHitBytes = 6000

// TestMemoHitBytesAllocated: a served memo hit formats its fingerprint
// once, at admission, and hands the key down to the engine and the
// progress fanout. Formatting a 4-cluster stride/VPB fingerprint
// allocates about 1.7 KB, and a memo hit used to pay it twice.
func TestMemoHitBytesAllocated(t *testing.T) {
	s, req := memoHitServer(t, 8)
	const n = 2000
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		runReleased(t, s, req(i))
	}
	runtime.ReadMemStats(&m1)
	perHit := (m1.TotalAlloc - m0.TotalAlloc) / n
	t.Logf("a served memo hit allocates %d bytes", perHit)
	if perHit > memoHitBytes {
		t.Errorf("a served memo hit allocates %d bytes, want at most %d", perHit, memoHitBytes)
	}
}
