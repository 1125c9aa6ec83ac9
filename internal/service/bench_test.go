package service

// BenchmarkServiceSubmitCached measures the cache-hit path of the job
// server end to end over HTTP: every timed iteration boots a FRESH
// server over a pre-warmed cache directory (so the in-memory memo is
// cold and the on-disk result cache — CRC verification and all — must
// serve the result), submits the job, and streams its events until
// the terminal line. This is the restart path a clusterd replica pays
// for work the fleet has already done; CI exports it into
// BENCH_pr5.json and gates regressions like the simulator benchmarks.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func BenchmarkServiceSubmitCached(b *testing.B) {
	cacheDir := b.TempDir()
	const body = `{"machine":{"clusters":"2"},"kernel":"rawcaudio"}`

	submitAndWait := func(ts *httptest.Server) {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		var st JobStatus
		if err := readJSON(resp, &st); err != nil {
			b.Fatal(err)
		}
		ev, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
		if err != nil {
			b.Fatal(err)
		}
		data, err := io.ReadAll(ev.Body)
		ev.Body.Close()
		if err != nil {
			b.Fatal(err)
		}
		if !strings.Contains(string(data), `"state":"done"`) {
			b.Fatalf("job %s did not reach done: %s", st.ID, data)
		}
	}

	// Warm the disk cache: the only real simulation in the benchmark.
	warm, err := New(Options{Workers: 2, CacheDir: cacheDir})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(warm.Handler())
	submitAndWait(ts)
	if warm.Engine().Executed() != 1 {
		b.Fatalf("warmup executed %d simulations, want 1", warm.Engine().Executed())
	}
	ts.Close()
	warm.Close()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := New(Options{Workers: 2, CacheDir: cacheDir})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		submitAndWait(ts)
		ts.Close()
		s.Close()
		if ex := s.Engine().Executed(); ex != 0 {
			b.Fatalf("iteration executed %d simulations, want 0 (disk cache must serve the submission)", ex)
		}
	}
}

func readJSON(resp *http.Response, v any) error {
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}
