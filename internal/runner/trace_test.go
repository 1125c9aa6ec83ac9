package runner

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"clustervp/internal/config"
	"clustervp/internal/trace"
)

// TestTraceReplayMatchesInProcess is the engine-level half of the
// round-trip contract: a job replayed from a materialized trace file
// must produce the same Results as the same job synthesized in-process.
func TestTraceReplayMatchesInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation in -short mode")
	}
	dir := t.TempDir()
	cfg := config.Preset(2).WithVP(config.VPStride)
	inproc := Job{Config: cfg, Kernel: "cjpeg", Scale: 1}
	jobs, err := MaterializeTraces(dir, []Job{inproc})
	if err != nil {
		t.Fatal(err)
	}
	if jobs[0].Trace == "" {
		t.Fatal("MaterializeTraces did not attach a trace path")
	}
	want, err := Simulate(inproc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Simulate(jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("trace replay diverged from in-process run:\n got %+v\nwant %+v", got, want)
	}
}

// TestMaterializeTracesDedupes verifies a workload shared by many grid
// points is encoded once, and that a second materialization against the
// same directory writes nothing.
func TestMaterializeTracesDedupes(t *testing.T) {
	dir := t.TempDir()
	jobs := []Job{
		{Config: config.Preset(1), Kernel: "rawcaudio", Scale: 1},
		{Config: config.Preset(2), Kernel: "rawcaudio", Scale: 1},
		{Config: config.Preset(4), Kernel: "rawcaudio", Scale: 1},
		{Config: config.Preset(4), Kernel: "rawcaudio", Scale: 1, Seed: 7},
	}
	out, err := MaterializeTraces(dir, jobs)
	if err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Fatalf("materialized %d files (%s), want 2 (one per distinct workload)", len(ents), strings.Join(names, ", "))
	}
	if out[0].Trace != out[1].Trace || out[1].Trace != out[2].Trace {
		t.Errorf("identical workloads got different trace paths: %q %q %q", out[0].Trace, out[1].Trace, out[2].Trace)
	}
	if out[3].Trace == out[0].Trace {
		t.Errorf("seeded workload shares the unseeded trace %q", out[3].Trace)
	}
	before := map[string]int64{}
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		before[e.Name()] = fi.ModTime().UnixNano()
	}
	if _, err := MaterializeTraces(dir, jobs); err != nil {
		t.Fatal(err)
	}
	ents, _ = os.ReadDir(dir)
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		if fi.ModTime().UnixNano() != before[e.Name()] {
			t.Errorf("%s was rewritten on re-materialization", e.Name())
		}
	}
}

// TestTraceFingerprint checks the memoization-key contract for trace
// jobs: same content ⇒ same key (even under different paths), changed
// content ⇒ changed key, and trace identity dominates kernel identity.
func TestTraceFingerprint(t *testing.T) {
	dir := t.TempDir()
	base := Job{Config: config.Preset(1), Kernel: "rawcaudio", Scale: 1}
	jobs, err := MaterializeTraces(dir, []Job{base})
	if err != nil {
		t.Fatal(err)
	}
	j := jobs[0]

	// Byte-identical copy under another name: fingerprints must match.
	data, err := os.ReadFile(j.Trace)
	if err != nil {
		t.Fatal(err)
	}
	copyPath := filepath.Join(dir, "copy.cvt")
	if err := os.WriteFile(copyPath, data, 0o666); err != nil {
		t.Fatal(err)
	}
	jc := j
	jc.Trace = copyPath
	if j.Fingerprint() != jc.Fingerprint() {
		t.Error("byte-identical traces under different paths fingerprint differently")
	}

	// Overwriting the file must change the key (stat revalidation).
	mutated := append(append([]byte(nil), data...), 0xFF)
	if err := os.WriteFile(copyPath, mutated, 0o666); err != nil {
		t.Fatal(err)
	}
	if j.Fingerprint() == jc.Fingerprint() {
		t.Error("overwritten trace kept its old fingerprint")
	}

	// The trace identity must dominate: same file, different Kernel
	// label, same simulation ⇒ same key.
	jl := j
	jl.Kernel = "label-only"
	if j.Fingerprint() != jl.Fingerprint() {
		t.Error("kernel label leaked into the trace-replay fingerprint")
	}

	// And in-process jobs must key on the seed.
	seeded := base
	seeded.Seed = 42
	if base.Fingerprint() == seeded.Fingerprint() {
		t.Error("input seed not covered by the fingerprint")
	}
}

// TestTraceKeyOneName: a trace has one name wherever it is keyed. A
// job over the file, the job a trace store's copy yields, and TraceKey
// over the store's digest (what a fleet coordinator computes) are the
// same key, and the store's digest is trace.Digest of the file.
func TestTraceKeyOneName(t *testing.T) {
	dir := t.TempDir()
	cfg := config.Preset(2).WithVP(config.VPStride)
	jobs, err := MaterializeTraces(dir, []Job{{Config: cfg, Kernel: "rawcaudio", Scale: 1}})
	if err != nil {
		t.Fatal(err)
	}
	store, err := trace.NewStore(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	digest, _, err := store.PutFile(jobs[0].Trace)
	if err != nil {
		t.Fatal(err)
	}
	if got := traceDigest(jobs[0].Trace); got != digest {
		t.Fatalf("file digest %s, store digest %s", got, digest)
	}
	path, err := store.Path(digest)
	if err != nil {
		t.Fatal(err)
	}
	named := cfg
	named.Name = "cosmetic"
	want := TraceKey(named, digest)
	for name, got := range map[string]string{
		"file job":   jobs[0].Fingerprint(),
		"stored job": StoredTraceJob(cfg, path, digest).Fingerprint(),
		"store path": Job{Config: cfg, Trace: path}.Fingerprint(),
	} {
		if got != want {
			t.Errorf("%s key %q, want TraceKey's %q", name, got, want)
		}
	}
}

// TestSimulateMissingTraceFails locks in the error contract for a
// dangling trace path: a typed failure, not a fallback to in-process
// synthesis.
func TestSimulateMissingTraceFails(t *testing.T) {
	_, err := Simulate(Job{Config: config.Preset(1), Kernel: "cjpeg", Trace: filepath.Join(t.TempDir(), "nope.cvt")})
	if err == nil {
		t.Fatal("Simulate succeeded with a missing trace file")
	}
}
