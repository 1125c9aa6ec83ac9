//go:build !race

package clustervp_test

// Allocation ceilings for the cold job path. They are left out of -race
// builds, whose instrumentation changes what the runtime allocates.

import (
	"runtime"
	"testing"

	"clustervp"
)

// TestColdGridAllocsPerJob: a warm traced grid through a fresh Engine
// makes under 500 allocations per job — simulator construction comes
// from the Sim pool and trace decode from the shared arena (about 9,400
// allocations per job before either existed).
func TestColdGridAllocsPerJob(t *testing.T) {
	traced := tracedGrid(t)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	err := clustervp.FirstErr(clustervp.NewEngine(0).Run(traced))
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	perJob := (m1.Mallocs - m0.Mallocs) / uint64(len(traced))
	t.Logf("%d allocations per cold job", perJob)
	if perJob >= 500 {
		t.Errorf("a cold grid job makes %d allocations, want under 500", perJob)
	}
}

// TestRunAllocBound: one run of gsmenc on the centralized machine
// allocates under 1 MiB — the functional memory image and the stride
// table are sized by what the job touches, not by the 16 MiB address
// space and the configured 128K-entry table (16.9 MB and 3.2 MB per
// run when they were).
func TestRunAllocBound(t *testing.T) {
	run := func() {
		if _, err := clustervp.Run(clustervp.Preset(1), "gsmenc", 1); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the Sim pool and the kernel's one-time state
	const runs = 3
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&m1)
	perRun := (m1.TotalAlloc - m0.TotalAlloc) / runs
	t.Logf("%d bytes allocated per run", perRun)
	if perRun >= 1<<20 {
		t.Errorf("a gsmenc run allocates %d bytes, want under 1 MiB", perRun)
	}
}
