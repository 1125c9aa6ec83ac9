package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clustervp"
	"clustervp/internal/runner"
	"clustervp/internal/stats"
)

// stubEnv returns an env whose engine counts simulator invocations but
// runs a trivial stub instead of the real timing simulator, so figure
// plumbing and cross-figure memoization can be tested in milliseconds.
func stubEnv(calls *int64) *env {
	return &env{
		eng: runner.New(runner.Options{Workers: 4, Run: func(j runner.Job) (stats.Results, error) {
			atomic.AddInt64(calls, 1)
			return stats.Results{
				Config: j.Config.Name, Benchmark: j.Kernel,
				Cycles: 100, Instructions: 150,
			}, nil
		}}),
		scale: 1,
		out:   io.Discard,
	}
}

// TestSharedBaselinesSimulatedOnce verifies the -exp all contract: a
// configuration used by several figures (the 1-cluster references, the
// baseline clustered machines) is simulated exactly once per kernel.
func TestSharedBaselinesSimulatedOnce(t *testing.T) {
	var calls int64
	e := stubEnv(&calls)
	k := int64(len(clustervp.Kernels()))

	// fig2: (1,2,4 clusters) × (no VP, stride VP) = 6 unique configs.
	if err := fig2(e); err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt64(&calls); got != 6*k {
		t.Fatalf("fig2 executed %d jobs, want %d", got, 6*k)
	}

	// fig3 declares 11 configs but shares 6 with fig2 (the 1c and 1c+vp
	// references and the 2/4-cluster baselines with and without VP), so
	// only 5 are new: 1c+perfect, and VPB with stride/perfect on 2 and
	// 4 clusters.
	if err := fig3(e); err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt64(&calls); got != 11*k {
		t.Fatalf("after fig3: executed %d jobs, want %d (shared baselines must not re-simulate)", got, 11*k)
	}

	// Re-running a whole figure is free.
	if err := fig3(e); err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt64(&calls); got != 11*k {
		t.Fatalf("re-running fig3 executed %d extra jobs, want 0", got-11*k)
	}
	if e.eng.Executed() != 11*k {
		t.Fatalf("Executed() = %d, want %d", e.eng.Executed(), 11*k)
	}
}

// TestJobsParallelismWithSharedBaselines verifies the -jobs contract
// on the -exp all shared-baseline path: a grid full of duplicate
// baseline jobs must still fan unique work out to the full -jobs
// worker bound — duplicates wait on the memo without occupying a
// worker — and must never exceed it. The stub simulator refuses to
// finish until `workers` simulations are in flight at once, so any
// serialization (e.g. a memo waiter holding a worker token) deadlocks
// the gate and fails the test instead of passing quietly at reduced
// parallelism.
func TestJobsParallelismWithSharedBaselines(t *testing.T) {
	const workers = 4
	var cur, peak int64
	full := make(chan struct{})
	var once sync.Once
	eng := runner.New(runner.Options{Workers: workers, Run: func(j runner.Job) (stats.Results, error) {
		n := atomic.AddInt64(&cur, 1)
		defer atomic.AddInt64(&cur, -1)
		for {
			p := atomic.LoadInt64(&peak)
			if n <= p || atomic.CompareAndSwapInt64(&peak, p, n) {
				break
			}
		}
		if n > workers {
			return stats.Results{}, fmt.Errorf("%d concurrent simulations exceed -jobs %d", n, workers)
		}
		if n == workers {
			once.Do(func() { close(full) })
		}
		select {
		case <-full:
		case <-time.After(10 * time.Second):
			return stats.Results{}, fmt.Errorf("parallelism stuck at %d of -jobs %d", atomic.LoadInt64(&peak), workers)
		}
		return stats.Results{Config: j.Config.Name, Benchmark: j.Kernel, Cycles: 100, Instructions: 150}, nil
	}})

	// The fig2 grid with every job declared three times over — the
	// worst-case shared-baseline shape: two duplicates per unique job
	// inside one Run call, racing the claimant.
	var cfgs []clustervp.Config
	for _, n := range []int{1, 2, 4} {
		cfgs = append(cfgs, clustervp.Preset(n), clustervp.Preset(n).WithVP(clustervp.VPStride))
	}
	jobs := clustervp.GridSpec{Configs: cfgs, Kernels: clustervp.Kernels(), Scales: []int{1}}.Jobs()
	tripled := append(append(append([]clustervp.Job(nil), jobs...), jobs...), jobs...)
	rs := eng.Run(tripled)
	if err := clustervp.FirstErr(rs); err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt64(&peak); got != workers {
		t.Errorf("peak concurrency %d, want the -jobs bound %d", got, workers)
	}
	if got, want := eng.Executed(), int64(len(jobs)); got != want {
		t.Errorf("executed %d simulations for %d unique jobs (duplicates must memoize)", got, want)
	}

	// A later figure re-declaring the same baselines (the -exp all
	// pattern) resolves entirely from the memo: no new simulations, and
	// results stay consistent.
	again := eng.Run(jobs)
	if err := clustervp.FirstErr(again); err != nil {
		t.Fatal(err)
	}
	if got, want := eng.Executed(), int64(len(jobs)); got != want {
		t.Errorf("re-running shared baselines executed %d extra simulations", got-want)
	}
	for i, r := range again {
		if r.Res.Config != rs[i].Res.Config || r.Res.Benchmark != rs[i].Res.Benchmark ||
			r.Res.Cycles != rs[i].Res.Cycles {
			t.Errorf("job %d: memoized result differs from the original", i)
		}
	}
}

// TestAllExperimentsRunOnStub drives every figure through the stub
// engine, checking each completes and prints a table.
func TestAllExperimentsRunOnStub(t *testing.T) {
	var calls int64
	e := stubEnv(&calls)
	var sb strings.Builder
	e.out = &sb
	code, err := runExperiments(e, "all", "")
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit code %d, want 0", code)
	}
	if n := strings.Count(sb.String(), "Figure"); n < 4 {
		t.Errorf("expected at least the 4 figure tables, got %d:\n%s", n, sb.String())
	}
}

// TestUnknownExperiment checks the CI-gating exit code contract.
func TestUnknownExperiment(t *testing.T) {
	var calls int64
	code, err := runExperiments(stubEnv(&calls), "nosuch", "")
	if code != 2 || err == nil {
		t.Fatalf("unknown experiment: code=%d err=%v, want code=2 and an error", code, err)
	}
	if calls != 0 {
		t.Errorf("unknown experiment still simulated %d jobs", calls)
	}
}

// TestOutExportsGrid checks -out dumps the full deduplicated grid as
// JSON that parses back, via the stub engine.
func TestOutExportsGrid(t *testing.T) {
	var calls int64
	e := stubEnv(&calls)
	path := filepath.Join(t.TempDir(), "grid.json")
	code, err := runExperiments(e, "fig2", path)
	if err != nil || code != 0 {
		t.Fatalf("code=%d err=%v", code, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var recs []runner.Record
	if err := json.Unmarshal(data, &recs); err != nil {
		t.Fatalf("-out emitted invalid JSON: %v", err)
	}
	if want := 6 * len(clustervp.Kernels()); len(recs) != want {
		t.Fatalf("exported %d records, want %d", len(recs), want)
	}
	for _, r := range recs {
		if r.Kernel == "" || r.Clusters < 1 || r.Err != "" {
			t.Errorf("bad record: %+v", r)
		}
	}
}

// TestOutJSONRealSimulation runs the cheapest real experiment and the
// asymmetry sweep end to end and parses the exported grids (the
// acceptance-criteria path). The sweep exercises the heterogeneous
// ClusterSpec path: spec parsing, weighted steering and per-cluster
// stats.
func TestOutJSONRealSimulation(t *testing.T) {
	run := func(exp string) []runner.Record {
		t.Helper()
		e := &env{eng: clustervp.NewEngine(0), scale: 1, out: io.Discard}
		path := filepath.Join(t.TempDir(), exp+".json")
		code, err := runExperiments(e, exp, path)
		if err != nil || code != 0 {
			t.Fatalf("-exp %s: code=%d err=%v", exp, code, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var recs []runner.Record
		if err := json.Unmarshal(data, &recs); err != nil {
			t.Fatalf("-exp %s: invalid JSON: %v", exp, err)
		}
		for _, r := range recs {
			if r.Kernel == "" || r.IPC <= 0 || r.Cycles <= 0 || r.Err != "" {
				t.Errorf("-exp %s: suspicious record: %+v", exp, r)
			}
		}
		return recs
	}
	if recs, want := run("rename2"), 2*len(clustervp.Kernels()); len(recs) != want {
		t.Errorf("-exp rename2 exported %d records, want %d", len(recs), want)
	}
	if !slices.ContainsFunc(run("asym"), func(r runner.Record) bool { return r.Clusters == 3 && len(r.PerCluster) > 0 }) {
		t.Error("-exp asym exported no 3-cluster record with per-cluster stats")
	}
}
