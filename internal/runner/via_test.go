package runner

// Via attribution tests: every Result records whether it was simulated,
// served by the in-process memo, or read from the persistent cache —
// and SimInstructions accumulates committed instructions from executed
// simulations only.

import (
	"testing"

	"clustervp/internal/config"
	"clustervp/internal/stats"
)

func TestResultVia(t *testing.T) {
	cacheDir := t.TempDir()
	run := func(j Job) (stats.Results, error) {
		return stats.Results{Benchmark: j.Kernel, Cycles: 10, Instructions: 100}, nil
	}
	newEngine := func() *Engine {
		cache := newDirCache(t, cacheDir)
		return New(Options{Workers: 2, Cache: cache, Run: run})
	}

	e := newEngine()
	jobs := []Job{
		{Config: config.Preset(1), Kernel: "a"},
		{Config: config.Preset(1), Kernel: "a"}, // duplicate → memo
		{Config: config.Preset(1), Kernel: "b"},
	}
	rs := e.Run(jobs)
	if err := FirstErr(rs); err != nil {
		t.Fatal(err)
	}
	// The duplicate pair resolves as one ViaSimulated claimer and one
	// ViaMemo waiter (either index may claim); the unique job simulated.
	pair := []Via{rs[0].Via, rs[1].Via}
	if !(pair[0] == ViaSimulated && pair[1] == ViaMemo || pair[0] == ViaMemo && pair[1] == ViaSimulated) {
		t.Errorf("duplicate pair via = %v/%v, want one simulated + one memo", pair[0], pair[1])
	}
	if rs[2].Via != ViaSimulated {
		t.Errorf("unique job via = %v, want simulated", rs[2].Via)
	}
	if got := e.SimInstructions(); got != 200 {
		t.Errorf("SimInstructions = %d, want 200 (two executed jobs × 100)", got)
	}

	// A re-run within the process is all-memo and adds no instructions.
	rs = e.Run(jobs[:1])
	if rs[0].Via != ViaMemo {
		t.Errorf("re-run via = %v, want memo", rs[0].Via)
	}
	if got := e.SimInstructions(); got != 200 {
		t.Errorf("SimInstructions after memo hit = %d, want 200", got)
	}

	// A fresh engine over the same cache directory serves from disk.
	e2 := newEngine()
	rs = e2.Run(jobs)
	if err := FirstErr(rs); err != nil {
		t.Fatal(err)
	}
	// As above, either index of the duplicate pair may claim the job.
	pair = []Via{rs[0].Via, rs[1].Via}
	if !(pair[0] == ViaCache && pair[1] == ViaMemo || pair[0] == ViaMemo && pair[1] == ViaCache) {
		t.Errorf("restarted duplicate pair via = %v/%v, want one cache + one memo", pair[0], pair[1])
	}
	if rs[2].Via != ViaCache {
		t.Errorf("restarted unique job via = %v, want cache", rs[2].Via)
	}
	if got := e2.SimInstructions(); got != 0 {
		t.Errorf("cache-served engine SimInstructions = %d, want 0", got)
	}
	if e2.Executed() != 0 {
		t.Errorf("cache-served engine executed %d simulations", e2.Executed())
	}
}

func TestViaString(t *testing.T) {
	for v, want := range map[Via]string{ViaSimulated: "simulated", ViaMemo: "memo", ViaCache: "cache"} {
		if got := v.String(); got != want {
			t.Errorf("Via(%d).String() = %q, want %q", v, got, want)
		}
	}
}
