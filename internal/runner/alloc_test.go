//go:build !race

package runner

// The allocation bound is left out of -race builds: there sync.Pool
// drops pooled items at random, so the default Sim pool rebuilds
// simulators it would otherwise reuse, and the count no longer measures
// the per-job cost.

import (
	"runtime"
	"testing"

	"clustervp/internal/config"
)

// TestInProcessJobAllocBound: an in-process job on a warm Sim pool
// allocates under 1 MiB — the functional memory image and the stride
// table are sized by what the kernel touches, not by the 16 MiB address
// space and the 128K-entry configured table.
func TestInProcessJobAllocBound(t *testing.T) {
	j := Job{
		Config: config.Preset(4).WithVP(config.VPStride).WithSteering(config.SteerVPB),
		Kernel: "rawcaudio",
		Scale:  1,
	}
	if _, err := Simulate(j); err != nil {
		t.Fatal(err)
	}
	const jobs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < jobs; i++ {
		if _, err := Simulate(j); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perJob := (after.TotalAlloc - before.TotalAlloc) / jobs
	t.Logf("%d bytes allocated per in-process job", perJob)
	if perJob >= 1<<20 {
		t.Errorf("an in-process job allocates %d bytes, want under 1 MiB", perJob)
	}
}
