package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"clustervp/internal/config"
	"clustervp/internal/runner"
	"clustervp/internal/service"
	"clustervp/internal/service/client"
	"clustervp/internal/service/fleet"
)

// asClusterd as the first argument makes the test binary run main with
// the remaining arguments, so the tests can drive the real command.
const asClusterd = "-as-clusterd"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == asClusterd {
		os.Args = append([]string{"clusterd"}, os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// clusterd is one running clusterd process.
type clusterd struct {
	cmd    *exec.Cmd
	stderr strings.Builder
	base   chan string // the listening URL, once printed
	exited chan error
}

// startClusterd starts clusterd with args; the process is killed at
// the end of the test.
func startClusterd(t *testing.T, args ...string) *clusterd {
	t.Helper()
	c := &clusterd{
		cmd:    exec.Command(os.Args[0], append([]string{asClusterd}, args...)...),
		base:   make(chan string, 1),
		exited: make(chan error, 1),
	}
	c.cmd.Stderr = &c.stderr
	stdout, err := c.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.cmd.Process.Kill() })
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if _, url, ok := strings.Cut(sc.Text(), "listening on "); ok {
				c.base <- url
			}
		}
		io.Copy(io.Discard, stdout)
		c.exited <- c.cmd.Wait()
	}()
	return c
}

// url waits for the process to start serving and returns its base URL.
func (c *clusterd) url(t *testing.T) string {
	t.Helper()
	select {
	case base := <-c.base:
		return base
	case err := <-c.exited:
		t.Fatalf("clusterd exited: %v: %s", err, c.stderr.String())
	case <-time.After(30 * time.Second):
		t.Fatal("clusterd did not start serving")
	}
	return ""
}

// exitCode waits for the process to exit and returns its status; a
// process that starts serving instead fails the test.
func (c *clusterd) exitCode(t *testing.T) int {
	t.Helper()
	select {
	case err := <-c.exited:
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			return ee.ExitCode()
		}
		if err != nil {
			t.Fatal(err)
		}
		return 0
	case url := <-c.base:
		t.Fatalf("clusterd started serving on %s instead of exiting", url)
	case <-time.After(30 * time.Second):
		t.Fatal("clusterd neither exited nor started serving")
	}
	return 0
}

// TestModeFlags: a flag that configures only the other mode is a usage
// error, never silently ignored, and a coordinator's -tenants file is
// loaded like a worker's.
func TestModeFlags(t *testing.T) {
	const replica = "http://127.0.0.1:1"
	coord := []string{"-coordinator", "-replicas", replica, "-addr", "127.0.0.1:0"}
	worker := []string{"-addr", "127.0.0.1:0", "-data", t.TempDir()}
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{append(coord, "-workers", "2"), 2, "-workers cannot be used with -coordinator"},
		{append(coord, "-cache-dir", "off"), 2, "-cache-dir cannot be used with -coordinator"},
		{append(coord, "-trace-dir", "off"), 2, "-trace-dir cannot be used with -coordinator"},
		{append(coord, "-progress-interval", "10"), 2, "-progress-interval cannot be used with -coordinator"},
		{append(coord, "-data", t.TempDir()), 2, "-data cannot be used with -coordinator"},
		{append(worker, "-api-key", "some-key-0001"), 2, "-api-key requires -coordinator"},
		{append(worker, "-probe-interval", "1s"), 2, "-probe-interval requires -coordinator"},
		{append(worker, "-replicas", replica), 2, "-replicas requires -coordinator"},
		{append(coord, "-tenants", filepath.Join(t.TempDir(), "missing.json")), 1, "missing.json"},
	} {
		c := startClusterd(t, tc.args...)
		if code := c.exitCode(t); code != tc.code || !strings.Contains(c.stderr.String(), tc.want) {
			t.Errorf("clusterd %s: exit %d, stderr %q; want exit %d mentioning %q",
				strings.Join(tc.args, " "), code, c.stderr.String(), tc.code, tc.want)
		}
	}
}

// TestCoordinatorTenants: a coordinator started with -tenants requires
// an API key, except on the open endpoints.
func TestCoordinatorTenants(t *testing.T) {
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"ok":true}`))
	}))
	defer replica.Close()
	tenants := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(tenants, []byte(`{"tenants":[{"name":"alice","key":"alice-key-0001"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	base := startClusterd(t, "-coordinator", "-replicas", replica.URL, "-tenants", tenants, "-addr", "127.0.0.1:0").url(t)
	for _, tc := range []struct {
		path, key string
		want      int
	}{
		{"/v1/statsz", "", http.StatusUnauthorized},
		{"/v1/statsz", "wrong-key-0001", http.StatusUnauthorized},
		{"/v1/statsz", "alice-key-0001", http.StatusOK},
		{"/v1/healthz", "", http.StatusOK},
		{"/metrics", "", http.StatusOK},
	} {
		req, _ := http.NewRequest(http.MethodGet, base+tc.path, nil)
		if tc.key != "" {
			req.Header.Set("Authorization", "Bearer "+tc.key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("GET %s with key %q = %d, want %d", tc.path, tc.key, resp.StatusCode, tc.want)
		}
	}
}

// TestParseReplicas pins the -replicas contract: comma-separated base
// URLs, order preserved (the list is the shard space), trailing
// slashes trimmed, junk and duplicates rejected with a usage error.
func TestParseReplicas(t *testing.T) {
	got, err := parseReplicas(" http://10.0.0.1:8090 , http://10.0.0.2:8090/ ,")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"http://10.0.0.1:8090", "http://10.0.0.2:8090"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseReplicas = %v, want %v", got, want)
	}
	for _, bad := range []string{"", "  ", ",,", "not a url", "host-without-scheme:8090", "http://a:1,http://a:1/"} {
		if out, err := parseReplicas(bad); err == nil {
			t.Errorf("parseReplicas(%q) accepted: %v", bad, out)
		}
	}
}

// TestResolveDir pins the data-directory convention: empty means the
// <data>-relative default, "off" disables, anything else is literal.
func TestResolveDir(t *testing.T) {
	cases := []struct {
		override, data, sub, want string
	}{
		{"", "d", "results", "d/results"},
		{"", "d", "traces", "d/traces"},
		{"off", "d", "results", ""},
		{"/elsewhere", "d", "results", "/elsewhere"},
	}
	for _, tc := range cases {
		if got := resolveDir(tc.override, tc.data, tc.sub); got != tc.want {
			t.Errorf("resolveDir(%q, %q, %q) = %q, want %q", tc.override, tc.data, tc.sub, got, tc.want)
		}
	}
}

// TestBuildLogger pins the -log-format/-log-level contract: both
// handlers build, levels parse case-insensitively, and bad values are
// command-line errors.
func TestBuildLogger(t *testing.T) {
	for _, tc := range []struct{ format, level string }{
		{"text", "info"}, {"json", "debug"}, {"text", "WARN"}, {"json", "error"},
	} {
		logger, err := buildLogger(tc.format, tc.level)
		if err != nil || logger == nil {
			t.Errorf("buildLogger(%q, %q) = %v", tc.format, tc.level, err)
		}
	}
	if logger, _ := buildLogger("text", "debug"); !logger.Enabled(nil, slog.LevelDebug) {
		t.Error("-log-level debug does not enable debug records")
	}
	if logger, _ := buildLogger("text", "warn"); logger.Enabled(nil, slog.LevelInfo) {
		t.Error("-log-level warn still enables info records")
	}
	if _, err := buildLogger("xml", "info"); err == nil {
		t.Error("bad -log-format accepted")
	}
	if _, err := buildLogger("text", "loud"); err == nil {
		t.Error("bad -log-level accepted")
	}
}

// waitFor polls cond until it holds, failing the test after a minute.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(time.Minute); !cond(); time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// fleetStats reads a coordinator's GET /v1/statsz.
func fleetStats(t *testing.T, base string) fleet.Stats {
	t.Helper()
	resp, err := http.Get(base + "/v1/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st fleet.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestFleetSurvivesKill9 runs the fleet as real processes: two replicas
// on one shared -data and a coordinator. A replica is SIGKILLed while it
// simulates part of an 8-job grid; every job must still finish, the
// dead replica must be probed down, and a run through the degraded
// fleet must be byte-identical to a local simulation — results do not
// depend on how the work was split. Restarted on the same -data, the
// killed replica resolves the whole grid from the shared result cache
// without simulating.
func TestFleetSurvivesKill9(t *testing.T) {
	ctx := context.Background()
	data := t.TempDir()
	replicas := []*clusterd{
		startClusterd(t, "-addr", "127.0.0.1:0", "-data", data),
		startClusterd(t, "-addr", "127.0.0.1:0", "-data", data),
	}
	bases := []string{replicas[0].url(t), replicas[1].url(t)}
	base := startClusterd(t, "-coordinator", "-replicas", strings.Join(bases, ","),
		"-probe-interval", "100ms", "-addr", "127.0.0.1:0").url(t)

	grid := service.GridRequest{
		Machines: []config.MachineSpec{{Clusters: "2"}, {Clusters: "4", VP: "stride", Steering: "vpb"}},
		Kernels:  []string{"rawcaudio", "gsmdec"},
		Scales:   []int{1, 2},
	}
	if ids, err := client.New(base).SubmitGrid(ctx, grid); err != nil || len(ids) != 8 {
		t.Fatalf("grid submit = %v, %v; want 8 jobs", ids, err)
	}
	// The victim is whichever replica starts simulating first, killed
	// with that simulation in flight.
	victim := -1
	waitFor(t, "a replica to start simulating", func() bool {
		for i, b := range bases {
			if st, err := client.New(b).Stats(ctx); err == nil && st.Queue.Running > 0 {
				victim = i
				return true
			}
		}
		return false
	})
	if err := replicas[victim].cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the grid to finish", func() bool {
		st := fleetStats(t, base)
		if st.Coordinator.Failed != 0 {
			t.Fatalf("fleet jobs failed after the kill: %+v", st.Coordinator)
		}
		return st.Coordinator.Done == 8
	})
	waitFor(t, "the killed replica to be probed down", func() bool {
		return fleetStats(t, base).Replicas[victim].State == "down"
	})

	req := service.JobRequest{Machine: grid.Machines[1], Kernel: "gsmdec"}
	got, err := client.New(base).Run(ctx, req)
	if err != nil || got.State != service.StateDone {
		t.Fatalf("run through the degraded fleet = %+v, %v", got, err)
	}
	cfg, err := req.Machine.Build()
	if err != nil {
		t.Fatal(err)
	}
	want, err := runner.Simulate(runner.Job{Config: cfg, Kernel: req.Kernel})
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(got.Results)
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("fleet results differ from local:\n fleet: %s\n local: %s", gotJSON, wantJSON)
	}

	restarted := client.New(startClusterd(t, "-addr", "127.0.0.1:0", "-data", data).url(t))
	ids, err := restarted.SubmitGrid(ctx, grid)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if st, err := restarted.Wait(ctx, id); err != nil || st.State != service.StateDone {
			t.Fatalf("restarted replica: job %s = %+v, %v", id, st, err)
		}
	}
	if st, err := restarted.Stats(ctx); err != nil || st.Engine.SimulationsExecuted != 0 {
		t.Errorf("restarted replica simulated %d jobs (%v), want 0: the shared cache must serve the grid",
			st.Engine.SimulationsExecuted, err)
	}
}
