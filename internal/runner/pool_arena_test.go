package runner

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"clustervp/internal/config"
	"clustervp/internal/core"
	"clustervp/internal/stats"
	"clustervp/internal/trace"
	"clustervp/internal/trace/tracetest"
	"clustervp/internal/workload"
)

// coldSimulate is the reference the pool and arena tests compare
// against: a fresh Sim from core.NewFromSource over a plain trace.Reader
// for replay jobs, or a functional executor for in-process jobs. It
// shares no Sim pool, arena or decode-ahead pipeline with the paths
// under test.
func coldSimulate(t *testing.T, j Job) stats.Results {
	t.Helper()
	var (
		src  trace.Source
		name string
	)
	if j.Trace != "" {
		fr, err := trace.OpenFile(j.Trace)
		if err != nil {
			t.Fatalf("reference %s: %v", j, err)
		}
		defer fr.Close()
		src, name = fr, j.Kernel
		if name == "" {
			name = fr.Name()
		}
	} else {
		prog, err := workload.Build(j.Kernel, j.EffectiveScale(), j.Seed)
		if err != nil {
			t.Fatalf("reference %s: %v", j, err)
		}
		src, name = trace.NewExecutor(prog), prog.Name
	}
	sim, err := core.NewFromSource(j.Config, src, name)
	if err != nil {
		t.Fatalf("reference %s: %v", j, err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatalf("reference %s: %v", j, err)
	}
	return res
}

// withArena is an engine Run function that replays traces through a
// private arena instead of the process-wide one.
func withArena(arena *trace.Arena) func(Job) (stats.Results, error) {
	return func(j Job) (stats.Results, error) { return simulate(j, 0, nil, nil, arena) }
}

// poolArenaJobs returns the determinism grid, replayed and in-process
// jobs mixed so both flows cross the pool. Under -short it is one
// configuration on rawcaudio, in-process plus replayed — small enough
// for the race detector, still concurrent on the shared pool and arena.
func poolArenaJobs(t *testing.T) []Job {
	cfgs := []config.Config{
		config.Preset(1),
		config.Preset(2).WithVP(config.VPStride),
		config.Preset(4).WithVP(config.VPStride).WithSteering(config.SteerVPB),
	}
	kernels := []string{"cjpeg", "rawcaudio"}
	if testing.Short() {
		cfgs, kernels = cfgs[2:], kernels[1:]
	}
	var jobs []Job
	for _, c := range cfgs {
		for _, k := range kernels {
			jobs = append(jobs, Job{Config: c, Kernel: k, Scale: 1})
		}
	}
	traced, err := MaterializeTraces(t.TempDir(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if testing.Short() {
		return append(traced, jobs...)
	}
	return append(traced, jobs[0], jobs[3])
}

// checkAgainstCold runs jobs on an engine with opts and requires every
// result to equal the cold reference.
func checkAgainstCold(t *testing.T, name string, opts Options, jobs []Job, want []stats.Results) {
	t.Helper()
	got := New(opts).Run(jobs)
	for i := range got {
		if got[i].Err != nil {
			t.Fatalf("%s: %s: %v", name, got[i].Job, got[i].Err)
		}
		if !reflect.DeepEqual(got[i].Res, want[i]) {
			t.Errorf("%s: %s diverged from the cold reference:\n got %+v\nwant %+v",
				name, got[i].Job, got[i].Res, want[i])
		}
	}
}

// TestSimulatePoolArenaDeterminism is the acceptance gate for the cold
// path rework: results through the Sim pool, the trace arena and the
// pipelined stream must be byte-identical to a cold Sim over a plain
// reader, at any worker count. Under -short it runs the workers=8
// shared-arena case only, on the reduced grid.
func TestSimulatePoolArenaDeterminism(t *testing.T) {
	all := poolArenaJobs(t)
	want := make([]stats.Results, len(all))
	for i, j := range all {
		want[i] = coldSimulate(t, j)
	}
	check := func(name string, opts Options) {
		t.Helper()
		checkAgainstCold(t, name, opts, all, want)
	}
	if testing.Short() {
		check("pool+arena workers=8", Options{Workers: 8})
		return
	}
	check("pool+arena workers=1", Options{Workers: 1})
	check("pool+arena workers=2", Options{Workers: 2})
	check("pool+arena workers=8", Options{Workers: 8})
	check("private 1MiB arena", Options{Workers: 4, Run: withArena(trace.NewArena(1 << 20))})
	check("forced streaming", Options{Workers: 4, Run: withArena(trace.NewArena(1))})
}

// TestArenaFallbackToStreaming forces the budget path: an engine whose
// arena cannot hold any trace must stream every replay and still match.
// Under -short it replays the reduced grid's one trace.
func TestArenaFallbackToStreaming(t *testing.T) {
	base := Job{Config: config.Preset(2), Kernel: "cjpeg", Scale: 1}
	if testing.Short() {
		base.Config = config.Preset(4).WithVP(config.VPStride).WithSteering(config.SteerVPB)
		base.Kernel = "rawcaudio"
	}
	jobs, err := MaterializeTraces(t.TempDir(), []Job{base})
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstCold(t, "tiny arena", Options{Workers: 8, Run: withArena(trace.NewArena(1))},
		jobs, []stats.Results{coldSimulate(t, jobs[0])})
}

// TestOffModelTracesStream: a valid trace that breaks a fact the
// in-memory form rebuilds instead of storing (a source value off the
// register file, a PC off the previous next PC) must reach the
// simulator through the stream path of openTraceSource, with room to
// spare in the arena, and still match the cold reference.
func TestOffModelTracesStream(t *testing.T) {
	dir := t.TempDir()
	for name, build := range map[string]func() ([]byte, error){
		"source-value": tracetest.SourceOffModel,
		"next-pc":      tracetest.PCOffModel,
	} {
		data, err := build()
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name+".cvt")
		if err := os.WriteFile(path, data, 0o666); err != nil {
			t.Fatal(err)
		}
		arena := trace.NewArena(DefaultArenaBudget)
		_, _, mode, closeFn, err := openTraceSource(path, arena)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if closeFn != nil {
			closeFn()
		}
		if mode != SourceStream {
			t.Errorf("%s: source = %s, want %s", name, mode, SourceStream)
		}
		job := Job{Config: config.Preset(4).WithVP(config.VPStride).WithSteering(config.SteerVPB), Trace: path}
		checkAgainstCold(t, name, Options{Workers: 1, Run: withArena(arena)},
			[]Job{job}, []stats.Results{coldSimulate(t, job)})
	}
}

// TestMaterializeTracesVerifyPoolDigest: a corrupt or truncated
// leftover trace file must be regenerated, not reused — and the
// regenerated file must replay cleanly.
func TestMaterializeTracesVerifyPoolDigest(t *testing.T) {
	dir := t.TempDir()
	jobs := []Job{{Config: config.Preset(1), Kernel: "rawcaudio", Scale: 1}}
	out, err := MaterializeTraces(dir, jobs)
	if err != nil {
		t.Fatal(err)
	}
	path := out[0].Trace

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside a record block: header still parses, but a
	// block CRC no longer matches.
	bad := append([]byte(nil), data...)
	bad[len(bad)/2] ^= 0xFF
	if err := os.WriteFile(path, bad, 0o666); err != nil {
		t.Fatal(err)
	}
	if verifyTrace(path) {
		t.Fatal("verifyTrace accepted a corrupted file")
	}
	if _, err := MaterializeTraces(dir, jobs); err != nil {
		t.Fatal(err)
	}
	fr, err := trace.OpenFile(path)
	if err != nil {
		t.Fatalf("regenerated trace does not open: %v", err)
	}
	var d trace.DynInst
	for fr.Next(&d) {
	}
	if err := fr.Err(); err != nil {
		t.Fatalf("regenerated trace does not decode: %v", err)
	}
	fr.Close()

	// Truncation must likewise trigger regeneration.
	if err := os.WriteFile(path, data[:len(data)/3], 0o666); err != nil {
		t.Fatal(err)
	}
	if verifyTrace(path) {
		t.Fatal("verifyTrace accepted a truncated file")
	}
	if _, err := MaterializeTraces(dir, jobs); err != nil {
		t.Fatal(err)
	}
	if !verifyTrace(path) {
		t.Fatal("regenerated trace fails verification")
	}
}
