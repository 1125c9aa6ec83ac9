package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clustervp/internal/runner"
	"clustervp/internal/service"
)

// cli runs the command in-process and captures its streams and exit
// code, so the exit-status contract is tested without spawning builds.
func cli(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestSimulationErrorExitsNonZero is the regression test for the exit
// code fix: a valid workload whose simulation fails mid-run (here: an
// exhausted cycle budget) must exit 1 with the error on stderr, not 0.
func TestSimulationErrorExitsNonZero(t *testing.T) {
	code, _, stderr := cli(t, "-kernel", "cjpeg", "-maxcycles", "10")
	if code != 1 {
		t.Fatalf("mid-run simulation error exited %d, want 1 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stderr, "error:") || !strings.Contains(stderr, "exceeded") {
		t.Errorf("stderr does not describe the failure: %q", stderr)
	}
}

// TestFailedRunWritesNoTraceOut: -trace-out writes its file only after
// the run succeeds, so a run that exhausts its cycle budget exits 1 and
// leaves nothing at the path or beside it.
func TestFailedRunWritesNoTraceOut(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "cjpeg.cvt")
	code, _, stderr := cli(t, "-kernel", "cjpeg", "-maxcycles", "10", "-trace-out", out)
	if code != 1 {
		t.Fatalf("failed run exited %d, want 1 (stderr: %s)", code, stderr)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Errorf("a failed run left %v in the output directory", ents)
	}
}

// TestCorruptTraceExitsNonZero drives the same contract through the
// trace-replay path: a truncated .cvt file fails mid-run with exit 1.
func TestCorruptTraceExitsNonZero(t *testing.T) {
	dir := t.TempDir()
	path := runner.TracePath(dir, "rawcaudio", 1, 0)
	if _, err := runner.MaterializeTraces(dir, []runner.Job{{Kernel: "rawcaudio", Scale: 1}}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(dir, "trunc.cvt")
	if err := os.WriteFile(trunc, data[:len(data)*2/3], 0o666); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := cli(t, "-trace-in", trunc, "-clusters", "2")
	if code != 1 {
		t.Fatalf("corrupt trace replay exited %d, want 1 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stderr, "trace") {
		t.Errorf("stderr does not mention the trace failure: %q", stderr)
	}
}

// TestBadEnumsExitTwo pins the command-line error code.
func TestBadEnumsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-vp", "psychic"},
		{"-steer", "sideways"},
		{"-topology", "donut"},
		{"-clusters", "3"},
		{"-clusters", "4w16q:"},
		{"-trace-in", "a.cvt", "-trace-out", "b.cvt"},
	} {
		if code, _, _ := cli(t, args...); code != 2 {
			t.Errorf("%v exited %d, want 2", args, code)
		}
	}
}

// TestEnumErrorListsAllEnumChoices is the shared enum-help contract: a
// bad or empty value on any one enum flag prints the valid choices for
// every enum flag, exactly once.
func TestEnumErrorListsAllEnumChoices(t *testing.T) {
	cases := [][]string{
		{"-vp", "psychic"},
		{"-vp", ""}, // bare/empty value
		{"-steer", "sideways"},
		{"-steer", ""},
		{"-topology", "donut"},
		{"-clusters", "zebra"},
		{"-vp"}, // flag with no argument at all
	}
	for _, args := range cases {
		code, _, stderr := cli(t, args...)
		if code != 2 {
			t.Errorf("%v exited %d, want 2", args, code)
			continue
		}
		for _, want := range []string{
			"-clusters", "4w16q:2w8q:2w8q",
			"-vp", "stride", "twodelta",
			"-steer", "baseline", "vpb", "depfifo",
			"-topology", "bus", "crossbar", "mesh",
		} {
			if !strings.Contains(stderr, want) {
				t.Errorf("%v: stderr missing %q:\n%s", args, want, stderr)
			}
		}
		if n := strings.Count(stderr, "valid enum flag values"); n != 1 {
			t.Errorf("%v: enum help printed %d times, want exactly once:\n%s", args, n, stderr)
		}
	}
}

// TestNonEnumErrorsSkipEnumHelp: errors belonging to numeric flags must
// not print the enum-choices table or blame -clusters.
func TestNonEnumErrorsSkipEnumHelp(t *testing.T) {
	for _, args := range [][]string{
		{"-vptable", "foo"}, // flag-package parse error on a non-enum flag whose name prefixes -vp
		{"-commlat", "0"},   // caught by whole-config validation
		{"-rename", "0"},
	} {
		code, _, stderr := cli(t, args...)
		if code != 2 {
			t.Errorf("%v exited %d, want 2", args, code)
		}
		if strings.Contains(stderr, "valid enum flag values") {
			t.Errorf("%v: non-enum error printed the enum help:\n%s", args, stderr)
		}
		if strings.Contains(stderr, "invalid -clusters") {
			t.Errorf("%v: error misattributed to -clusters:\n%s", args, stderr)
		}
	}
}

// TestOversizedSpecRejected: spec strings cannot build machines past
// the 32-cluster mask limit or smuggle in overflowing repeat counts.
func TestOversizedSpecRejected(t *testing.T) {
	for _, spec := range []string{"2w16qx34", "2w8qx4294967295", "2w8qx99999999999999999999"} {
		code, _, stderr := cli(t, "-kernel", "cjpeg", "-clusters", spec)
		if code != 2 {
			t.Errorf("-clusters %s exited %d, want 2 (stderr: %s)", spec, code, stderr)
		}
	}
}

// TestClustersValueIsTrimmed: whitespace-padded preset counts and spec
// strings keep working (the preset check and MachineSpec.Build must
// both see the trimmed value).
func TestClustersValueIsTrimmed(t *testing.T) {
	for _, v := range []string{" 4", "4 ", " 2w16qx2 "} {
		code, _, stderr := cli(t, "-kernel", "rawcaudio", "-clusters", v)
		if code != 0 {
			t.Errorf("-clusters %q exited %d: %s", v, code, stderr)
		}
	}
}

// TestAsymmetricSpecRuns drives a heterogeneous -clusters machine end
// to end and checks the per-cluster breakdown reaches the JSON record.
func TestAsymmetricSpecRuns(t *testing.T) {
	code, stdout, stderr := cli(t,
		"-kernel", "rawcaudio", "-clusters", "4w16q:2w8q:2w8q", "-vp", "stride", "-steer", "vpb", "-json")
	if code != 0 {
		t.Fatalf("asymmetric run exited %d: %s", code, stderr)
	}
	var rec runner.Record
	if err := json.Unmarshal([]byte(stdout), &rec); err != nil {
		t.Fatalf("output is not JSON: %v", err)
	}
	if rec.Clusters != 3 || rec.ClusterSpecs != "4w16q:2w8qx2" {
		t.Errorf("record clusters = %d %q, want 3 clusters of 4w16q:2w8qx2", rec.Clusters, rec.ClusterSpecs)
	}
	if len(rec.PerCluster) != 3 {
		t.Fatalf("per-cluster breakdown has %d entries, want 3", len(rec.PerCluster))
	}
	var total uint64
	for _, c := range rec.PerCluster {
		total += c.Dispatched
	}
	if total != rec.Instructions {
		t.Errorf("per-cluster dispatched sums to %d, want %d committed instructions", total, rec.Instructions)
	}
}

// startClusterd boots an in-process clusterd over httptest and returns
// its base URL.
func startClusterd(t *testing.T, opts service.Options) string {
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
	return ts.URL
}

// TestRemoteMatchesLocalJSON is the -remote contract: submitting the
// identical run to a clusterd instance prints byte-identical JSON to
// local simulation — same stats.Results, same flattened Record.
func TestRemoteMatchesLocalJSON(t *testing.T) {
	base := startClusterd(t, service.Options{})
	for _, args := range [][]string{
		{"-kernel", "rawcaudio", "-clusters", "2", "-json"},
		{"-kernel", "gsmdec", "-clusters", "4", "-vp", "stride", "-steer", "vpb", "-json"},
		{"-kernel", "rawcaudio", "-clusters", "4w16q:2w8qx2", "-vp", "twodelta", "-topology", "ring", "-paths", "1", "-json"},
	} {
		code, local, stderr := cli(t, args...)
		if code != 0 {
			t.Fatalf("local %v exited %d: %s", args, code, stderr)
		}
		code, remote, stderr := cli(t, append(args, "-remote", base)...)
		if code != 0 {
			t.Fatalf("remote %v exited %d: %s", args, code, stderr)
		}
		if local != remote {
			t.Errorf("%v: remote JSON differs from local:\nlocal  %s\nremote %s", args, local, remote)
		}
	}
}

// TestRemoteMatchesLocalText covers the human-readable output path.
func TestRemoteMatchesLocalText(t *testing.T) {
	base := startClusterd(t, service.Options{})
	args := []string{"-kernel", "rawcaudio", "-clusters", "2", "-vp", "stride"}
	code, local, stderr := cli(t, args...)
	if code != 0 {
		t.Fatalf("local exited %d: %s", code, stderr)
	}
	code, remote, stderr := cli(t, append(args, "-remote", base)...)
	if code != 0 {
		t.Fatalf("remote exited %d: %s", code, stderr)
	}
	if local != remote {
		t.Errorf("remote text output differs from local:\nlocal:\n%s\nremote:\n%s", local, remote)
	}
}

// TestRemoteTraceReplayMatchesLocal uploads the -trace-in file to the
// server and replays it by digest; the JSON must match local replay.
func TestRemoteTraceReplayMatchesLocal(t *testing.T) {
	base := startClusterd(t, service.Options{TraceDir: t.TempDir()})
	dir := t.TempDir()
	if _, err := runner.MaterializeTraces(dir, []runner.Job{{Kernel: "rawcaudio", Scale: 1}}); err != nil {
		t.Fatal(err)
	}
	path := runner.TracePath(dir, "rawcaudio", 1, 0)
	args := []string{"-trace-in", path, "-clusters", "2", "-json"}
	code, local, stderr := cli(t, args...)
	if code != 0 {
		t.Fatalf("local replay exited %d: %s", code, stderr)
	}
	code, remote, stderr := cli(t, append(args, "-remote", base)...)
	if code != 0 {
		t.Fatalf("remote replay exited %d: %s", code, stderr)
	}
	if local != remote {
		t.Errorf("remote trace replay differs from local:\nlocal  %s\nremote %s", local, remote)
	}
}

// TestRemoteFailuresExitOne: a failing remote job and an unreachable
// server both follow the simulation-error contract (stderr + exit 1).
func TestRemoteFailuresExitOne(t *testing.T) {
	base := startClusterd(t, service.Options{})
	code, _, stderr := cli(t, "-kernel", "cjpeg", "-maxcycles", "10", "-remote", base)
	if code != 1 || !strings.Contains(stderr, "exceeded") {
		t.Errorf("remote budget failure: code=%d stderr=%q, want 1 with the server error", code, stderr)
	}
	code, _, stderr = cli(t, "-kernel", "cjpeg", "-remote", "http://127.0.0.1:1")
	if code != 1 || !strings.Contains(stderr, "error:") {
		t.Errorf("unreachable server: code=%d stderr=%q, want 1", code, stderr)
	}
}

// TestRemoteTraceOutSavesTimeline: with -remote, -trace-out downloads
// the job's server-side span timeline as Chrome trace-event JSON. The
// file must parse and contain at least one complete ("ph":"X") event —
// the shape chrome://tracing and Perfetto load.
func TestRemoteTraceOutSavesTimeline(t *testing.T) {
	base := startClusterd(t, service.Options{})
	out := filepath.Join(t.TempDir(), "prof.json")
	code, _, stderr := cli(t, "-kernel", "rawcaudio", "-clusters", "2", "-remote", base, "-trace-out", out)
	if code != 0 {
		t.Fatalf("remote run exited %d: %s", code, stderr)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("timeline file: %v", err)
	}
	var tl struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &tl); err != nil {
		t.Fatalf("timeline is not Chrome trace JSON: %v", err)
	}
	complete := 0
	names := make(map[string]bool)
	for _, ev := range tl.TraceEvents {
		if ev.Ph == "X" {
			complete++
			names[ev.Name] = true
		}
	}
	if complete == 0 {
		t.Fatalf("timeline has no complete events: %s", raw)
	}
	for _, want := range []string{"queue.wait", "sim.run"} {
		if !names[want] {
			t.Errorf("timeline is missing a %q span; got %v", want, names)
		}
	}
}

// TestTraceOutThenInIdenticalCounters records a trace while simulating,
// replays it, and requires every exported counter to match — the CLI
// half of the bit-for-bit replay guarantee.
func TestTraceOutThenInIdenticalCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("two real simulations in -short mode")
	}
	dir := t.TempDir()
	cvt := filepath.Join(dir, "gsmdec.cvt")
	common := []string{"-clusters", "4", "-vp", "stride", "-steer", "vpb", "-json"}

	code, rec, stderr := cli(t, append([]string{"-kernel", "gsmdec", "-trace-out", cvt}, common...)...)
	if code != 0 {
		t.Fatalf("record run exited %d: %s", code, stderr)
	}
	code, rep, stderr := cli(t, append([]string{"-trace-in", cvt}, common...)...)
	if code != 0 {
		t.Fatalf("replay run exited %d: %s", code, stderr)
	}

	var a, b runner.Record
	if err := json.Unmarshal([]byte(rec), &a); err != nil {
		t.Fatalf("record output is not JSON: %v", err)
	}
	if err := json.Unmarshal([]byte(rep), &b); err != nil {
		t.Fatalf("replay output is not JSON: %v", err)
	}
	if a.Cycles != b.Cycles || a.Instructions != b.Instructions ||
		a.BusTransfers != b.BusTransfers || a.Reissues != b.Reissues || a.IPC != b.IPC {
		t.Errorf("replay diverged from recording:\nrecorded %+v\nreplayed %+v", a, b)
	}
	if a.Kernel != "gsmdec" || b.Kernel != "gsmdec" {
		t.Errorf("benchmark labels: recorded %q, replayed %q (want gsmdec)", a.Kernel, b.Kernel)
	}
}

// TestAPIKeyRequiresRemote: -api-key without -remote is a command-line
// error (exit 2), like the other flag-combination checks.
func TestAPIKeyRequiresRemote(t *testing.T) {
	code, _, stderr := cli(t, "-kernel", "rawcaudio", "-api-key", "some-key-0001")
	if code != 2 || !strings.Contains(stderr, "-api-key") {
		t.Errorf("-api-key without -remote: code=%d stderr=%q, want 2 naming the flag", code, stderr)
	}
}

// TestRemoteWithAPIKey drives -remote against a multi-tenant clusterd:
// keyless submission fails with the server's unauthorized error (exit
// 1), the flag authenticates, and CLUSTERSIM_API_KEY is the fallback.
func TestRemoteWithAPIKey(t *testing.T) {
	base := startClusterd(t, service.Options{
		Tenants: []service.Tenant{{Name: "alice", Key: "alice-key-0001"}},
	})
	args := []string{"-kernel", "rawcaudio", "-clusters", "2", "-remote", base}

	code, _, stderr := cli(t, args...)
	if code != 1 || !strings.Contains(stderr, "unauthorized") {
		t.Errorf("keyless remote run: code=%d stderr=%q, want 1 with unauthorized", code, stderr)
	}
	if code, _, stderr := cli(t, append(args, "-api-key", "alice-key-0001")...); code != 0 {
		t.Errorf("-api-key run exited %d: %s", code, stderr)
	}
	t.Setenv("CLUSTERSIM_API_KEY", "alice-key-0001")
	if code, _, stderr := cli(t, args...); code != 0 {
		t.Errorf("CLUSTERSIM_API_KEY run exited %d: %s", code, stderr)
	}
}
