package runner

import (
	"errors"
	"fmt"
	"io/fs"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"clustervp/internal/config"
	"clustervp/internal/stats"
)

// stubRun returns a Run function whose Results encode the job identity
// (cycles = kernel length, instructions = scale), with an optional
// per-call hook.
func stubRun(hook func(Job)) func(Job) (stats.Results, error) {
	return func(j Job) (stats.Results, error) {
		if hook != nil {
			hook(j)
		}
		return stats.Results{
			Config:       j.Config.Name,
			Benchmark:    j.Kernel,
			Cycles:       int64(len(j.Kernel)),
			Instructions: uint64(j.EffectiveScale()),
		}, nil
	}
}

func kernelNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("k%02d", i)
	}
	return out
}

func TestGridExpansionOrder(t *testing.T) {
	g := Grid{
		Configs: []config.Config{config.Preset(1), config.Preset(4)},
		Kernels: []string{"a", "b"},
		Scales:  []int{1, 2},
	}
	jobs := g.Jobs()
	want := []struct {
		clusters int
		kernel   string
		scale    int
	}{
		{1, "a", 1}, {1, "a", 2}, {1, "b", 1}, {1, "b", 2},
		{4, "a", 1}, {4, "a", 2}, {4, "b", 1}, {4, "b", 2},
	}
	if len(jobs) != len(want) {
		t.Fatalf("got %d jobs, want %d", len(jobs), len(want))
	}
	for i, w := range want {
		j := jobs[i]
		if j.Config.NumClusters() != w.clusters || j.Kernel != w.kernel || j.Scale != w.scale {
			t.Errorf("job %d = %dc/%s@%d, want %dc/%s@%d",
				i, j.Config.NumClusters(), j.Kernel, j.Scale, w.clusters, w.kernel, w.scale)
		}
	}
	if got := (Grid{Configs: g.Configs, Kernels: []string{"a"}}).Jobs(); len(got) != 2 || got[0].Scale != 1 {
		t.Errorf("nil Scales should default to scale 1, got %+v", got)
	}
}

// TestDeterministicOrder checks that results come back in job order even
// when workers finish in scrambled order.
func TestDeterministicOrder(t *testing.T) {
	run := func(j Job) (stats.Results, error) {
		// Later grid positions finish earlier.
		time.Sleep(time.Duration('9'-j.Kernel[2]) * time.Millisecond)
		return stubRun(nil)(j)
	}
	e := New(Options{Workers: 4, Run: run})
	jobs := Grid{Configs: []config.Config{config.Preset(2)}, Kernels: kernelNames(10)}.Jobs()
	rs := e.Run(jobs)
	if len(rs) != len(jobs) {
		t.Fatalf("got %d results, want %d", len(rs), len(jobs))
	}
	for i, r := range rs {
		if r.Err != nil {
			t.Fatalf("job %d failed: %v", i, r.Err)
		}
		if r.Res.Benchmark != jobs[i].Kernel {
			t.Errorf("result %d is for kernel %s, want %s", i, r.Res.Benchmark, jobs[i].Kernel)
		}
	}
}

// TestMemoizationDedup checks that duplicate jobs — within one batch and
// across batches — are executed exactly once.
func TestMemoizationDedup(t *testing.T) {
	var calls int64
	e := New(Options{Workers: 4, Run: stubRun(func(Job) { atomic.AddInt64(&calls, 1) })})

	base := config.Preset(1) // shared baseline, as under -exp all
	jobs := Grid{Configs: []config.Config{base, base}, Kernels: kernelNames(5)}.Jobs()
	rs := e.Run(jobs)
	if err := FirstErr(rs); err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt64(&calls); got != 5 {
		t.Fatalf("duplicate configs in one batch: %d executions, want 5", got)
	}
	if e.Executed() != 5 {
		t.Fatalf("Executed() = %d, want 5", e.Executed())
	}

	// A second "figure" reusing the baseline plus one new config only
	// pays for the new config.
	jobs2 := Grid{Configs: []config.Config{base, config.Preset(4)}, Kernels: kernelNames(5)}.Jobs()
	if err := FirstErr(e.Run(jobs2)); err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt64(&calls); got != 10 {
		t.Fatalf("shared baseline re-simulated: %d executions, want 10", got)
	}

	// Name is cosmetic: renaming an identical config must still hit.
	renamed := base
	renamed.Name = "centralized-reference"
	if err := FirstErr(e.Run(Grid{Configs: []config.Config{renamed}, Kernels: kernelNames(5)}.Jobs())); err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt64(&calls); got != 10 {
		t.Fatalf("renamed identical config missed the memo: %d executions, want 10", got)
	}

	// But changing a simulation-relevant knob must miss.
	lat4 := base.WithComm(4, 0)
	if err := FirstErr(e.Run(Grid{Configs: []config.Config{lat4}, Kernels: kernelNames(5)}.Jobs())); err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt64(&calls); got != 15 {
		t.Fatalf("distinct config hit the memo: %d executions, want 15", got)
	}
}

// TestWorkerPoolBound checks that at most Workers simulations run
// concurrently, while duplicate jobs waiting on the memo don't count
// against the pool.
func TestWorkerPoolBound(t *testing.T) {
	const workers = 3
	var inFlight, peak int64
	run := func(j Job) (stats.Results, error) {
		n := atomic.AddInt64(&inFlight, 1)
		for {
			p := atomic.LoadInt64(&peak)
			if n <= p || atomic.CompareAndSwapInt64(&peak, p, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		atomic.AddInt64(&inFlight, -1)
		return stubRun(nil)(j)
	}
	e := New(Options{Workers: workers, Run: run})
	jobs := Grid{
		Configs: []config.Config{config.Preset(1), config.Preset(2), config.Preset(4)},
		Kernels: kernelNames(8),
	}.Jobs()
	// Append duplicates of the whole grid: they wait on memo entries,
	// not on pool slots.
	jobs = append(jobs, jobs...)
	if err := FirstErr(e.Run(jobs)); err != nil {
		t.Fatal(err)
	}
	if p := atomic.LoadInt64(&peak); p > workers {
		t.Fatalf("peak concurrency %d exceeds worker bound %d", p, workers)
	}
	if e.Executed() != 24 {
		t.Fatalf("Executed() = %d, want 24", e.Executed())
	}
}

// TestErrorPropagation checks that one failing job surfaces through
// FirstErr with its identity while the rest of the grid completes.
func TestErrorPropagation(t *testing.T) {
	boom := errors.New("simulation diverged")
	run := func(j Job) (stats.Results, error) {
		if j.Kernel == "k03" {
			return stats.Results{}, boom
		}
		return stubRun(nil)(j)
	}
	e := New(Options{Workers: 2, Run: run})
	rs := e.Run(Grid{Configs: []config.Config{config.Preset(2)}, Kernels: kernelNames(6)}.Jobs())
	err := FirstErr(rs)
	if !errors.Is(err, boom) {
		t.Fatalf("FirstErr = %v, want wrapped %v", err, boom)
	}
	if !strings.Contains(err.Error(), "k03") {
		t.Errorf("error %q does not identify the failing job", err)
	}
	for i, r := range rs {
		if r.Job.Kernel == "k03" {
			if r.Err == nil {
				t.Errorf("result %d should carry the error", i)
			}
			continue
		}
		if r.Err != nil {
			t.Errorf("healthy job %d poisoned: %v", i, r.Err)
		}
		if r.Res.Benchmark != r.Job.Kernel {
			t.Errorf("healthy job %d has wrong result %q", i, r.Res.Benchmark)
		}
	}
	// Errors are memoized too: re-running must not re-execute.
	before := e.Executed()
	if err := FirstErr(e.Run(jobsOf(rs[:4]))); !errors.Is(err, boom) {
		t.Fatalf("memoized error lost: %v", err)
	}
	if e.Executed() != before {
		t.Fatalf("failed job re-executed: %d -> %d", before, e.Executed())
	}
}

// TestMemoDropsIOFailures: a failure that came from the file system is
// not memoized, so the next duplicate runs again; a failure the job
// determines still is.
func TestMemoDropsIOFailures(t *testing.T) {
	eio := &fs.PathError{Op: "open", Path: "stored.cvt", Err: syscall.EIO}
	diverged := errors.New("simulation diverged")
	var calls atomic.Int64
	e := New(Options{Workers: 1, Run: func(j Job) (stats.Results, error) {
		if j.key == "" {
			t.Error("the run function got an unkeyed job")
		}
		n := calls.Add(1)
		switch {
		case j.Kernel == "bad":
			return stats.Results{}, diverged
		case n == 1:
			return stats.Results{}, fmt.Errorf("runner: open trace: %w", eio)
		}
		return stubRun(nil)(j)
	}})
	j := Job{Config: config.Preset(2), Kernel: "k", Scale: 1}
	if r := e.RunKeyed(j.Keyed()); !errors.Is(r.Err, eio) || r.Via != ViaSimulated {
		t.Fatalf("first run: err %v via %v, want the I/O error, simulated", r.Err, r.Via)
	}
	r := e.RunKeyed(j.Keyed())
	if r.Err != nil || r.Via != ViaSimulated || r.Res.Benchmark != "k" {
		t.Fatalf("after an I/O failure: err %v via %v, want a fresh simulation", r.Err, r.Via)
	}
	if r := e.Run([]Job{j})[0]; r.Err != nil || r.Via != ViaMemo {
		t.Fatalf("after the retry: err %v via %v, want a memo hit", r.Err, r.Via)
	}

	bad := Job{Config: config.Preset(2), Kernel: "bad", Scale: 1}
	for i, want := range []Via{ViaSimulated, ViaMemo} {
		if r := e.Run([]Job{bad})[0]; !errors.Is(r.Err, diverged) || r.Via != want {
			t.Fatalf("job-determined failure, run %d: err %v via %v, want %v", i, r.Err, r.Via, want)
		}
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("run function called %d times, want 3", got)
	}
}

// TestKeyedJob: a keyed job reports the fingerprint it was keyed with.
func TestKeyedJob(t *testing.T) {
	for _, j := range []Job{
		{Config: config.Preset(4), Kernel: "k", Scale: 2, Seed: 7},
		{Config: config.Preset(2), Trace: "missing.cvt"},
	} {
		k := j.Keyed()
		if k.Fingerprint() != j.Fingerprint() {
			t.Errorf("keyed fingerprint %q, unkeyed %q", k.Fingerprint(), j.Fingerprint())
		}
	}
}

// jobsOf projects results back to their jobs (test helper).
func jobsOf(rs []Result) []Job {
	out := make([]Job, len(rs))
	for i, r := range rs {
		out[i] = r.Job
	}
	return out
}

// TestConcurrentRunCalls checks the engine is safe when several grids
// run at once and share fingerprints.
func TestConcurrentRunCalls(t *testing.T) {
	var calls int64
	e := New(Options{Workers: 4, Run: stubRun(func(Job) {
		atomic.AddInt64(&calls, 1)
		time.Sleep(time.Millisecond)
	})})
	jobs := Grid{Configs: []config.Config{config.Preset(1)}, Kernels: kernelNames(10)}.Jobs()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := FirstErr(e.Run(jobs)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := atomic.LoadInt64(&calls); got != 10 {
		t.Fatalf("concurrent identical grids: %d executions, want 10", got)
	}
}

// TestProgressLines checks one line per executed job lands on the
// progress stream, counting fresh work only.
func TestProgressLines(t *testing.T) {
	var buf syncBuffer
	e := New(Options{Workers: 2, Run: stubRun(nil), Progress: &buf})
	jobs := Grid{Configs: []config.Config{config.Preset(2)}, Kernels: kernelNames(4)}.Jobs()
	e.Run(append(jobs, jobs...)) // duplicates are silent
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d progress lines, want 4:\n%s", len(lines), buf.String())
	}
	// The denominator grows as jobs are claimed; the 4th simulation to
	// finish must print [4/4] (writes may interleave, so search all
	// lines rather than assuming it lands last).
	if !strings.Contains(buf.String(), "[4/4]") {
		t.Errorf("no [4/4] progress line in:\n%s", buf.String())
	}
	// A fully-memoized batch is silent.
	buf.Reset()
	e.Run(jobs)
	if buf.String() != "" {
		t.Errorf("memo hits produced progress output: %q", buf.String())
	}
}

type syncBuffer struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}
func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}
func (b *syncBuffer) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.sb.Reset()
}

// TestFingerprintCoversConfig perturbs every Config field via
// reflection and checks each one (recursively, except the cosmetic
// Name) changes the fingerprint, so fields added to Config later are
// provably covered.
func TestFingerprintCoversConfig(t *testing.T) {
	job := Job{Config: config.Preset(2), Kernel: "k", Scale: 1}
	base := job.Fingerprint()

	renamed := job
	renamed.Config.Name = "other-name"
	if renamed.Fingerprint() != base {
		t.Error("cosmetic Name field must not affect the fingerprint")
	}
	if (Job{Config: job.Config, Kernel: "k2", Scale: 1}).Fingerprint() == base {
		t.Error("kernel must affect the fingerprint")
	}
	if (Job{Config: job.Config, Kernel: "k", Scale: 2}).Fingerprint() == base {
		t.Error("scale must affect the fingerprint")
	}

	perturbFields(t, &job, reflect.ValueOf(&job.Config).Elem(), "Config.", base)
}

// perturbFields bumps each field of v in place, asserts job's
// fingerprint moves, and restores the field.
func perturbFields(t *testing.T, job *Job, v reflect.Value, path, base string) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		name := path + v.Type().Field(i).Name
		if name == "Config.Name" {
			continue
		}
		switch f.Kind() {
		case reflect.Struct:
			perturbFields(t, job, f, name+".", base)
		case reflect.Int, reflect.Int64:
			old := f.Int()
			f.SetInt(old + 1)
			if job.Fingerprint() == base {
				t.Errorf("field %s does not affect the fingerprint", name)
			}
			f.SetInt(old)
		case reflect.Bool:
			f.SetBool(!f.Bool())
			if job.Fingerprint() == base {
				t.Errorf("field %s does not affect the fingerprint", name)
			}
			f.SetBool(!f.Bool())
		case reflect.String:
			old := f.String()
			f.SetString(old + "?")
			if job.Fingerprint() == base {
				t.Errorf("field %s does not affect the fingerprint", name)
			}
			f.SetString(old)
		case reflect.Slice:
			// Every element must be covered (Config.Clusters is a slice
			// of ClusterSpec structs), and so must the slice length.
			for j := 0; j < f.Len(); j++ {
				el := f.Index(j)
				if el.Kind() != reflect.Struct {
					t.Fatalf("field %s element kind %s: teach this test to perturb it", name, el.Kind())
				}
				perturbFields(t, job, el, fmt.Sprintf("%s[%d].", name, j), base)
			}
			origLen := f.Len()
			if origLen == 0 {
				t.Fatalf("field %s is empty; cannot prove length coverage", name)
			}
			f.Set(reflect.Append(f, f.Index(0)))
			if job.Fingerprint() == base {
				t.Errorf("length of %s does not affect the fingerprint", name)
			}
			f.Set(f.Slice(0, origLen))
		default:
			t.Fatalf("field %s has unhandled kind %s: teach this test to perturb it", name, f.Kind())
		}
	}
	if job.Fingerprint() != base {
		t.Fatalf("perturbation under %s not restored", path)
	}
}

// TestSnapshotDeterministic checks Snapshot returns every unique job in
// a stable order.
func TestSnapshotDeterministic(t *testing.T) {
	e := New(Options{Workers: 4, Run: stubRun(nil)})
	jobs := Grid{
		Configs: []config.Config{config.Preset(4), config.Preset(1)},
		Kernels: kernelNames(6),
	}.Jobs()
	e.Run(append(jobs, jobs...))
	snap := e.Snapshot()
	if len(snap) != 12 {
		t.Fatalf("snapshot has %d entries, want 12 unique", len(snap))
	}
	again := e.Snapshot()
	for i := range snap {
		if snap[i].Job.Fingerprint() != again[i].Job.Fingerprint() {
			t.Fatalf("snapshot order unstable at %d", i)
		}
	}
}

// TestSimulateIntegration drives the real simulator through the engine
// on one small kernel and cross-checks the engine path against the
// direct path.
func TestSimulateIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation in -short mode")
	}
	job := Job{Config: config.Preset(1), Kernel: "gsmdec", Scale: 1}
	direct, err := Simulate(job)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{Workers: 2})
	rs := e.Run([]Job{job, job})
	if err := FirstErr(rs); err != nil {
		t.Fatal(err)
	}
	if e.Executed() != 1 {
		t.Fatalf("Executed() = %d, want 1", e.Executed())
	}
	for i, r := range rs {
		if r.Res.Cycles != direct.Cycles || r.Res.Instructions != direct.Instructions {
			t.Errorf("engine result %d (%d cycles) differs from direct run (%d cycles)",
				i, r.Res.Cycles, direct.Cycles)
		}
	}
	if _, err := Simulate(Job{Config: config.Preset(1), Kernel: "nope"}); err == nil {
		t.Error("unknown kernel should error")
	}
}
