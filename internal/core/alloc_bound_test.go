//go:build !race

package core

// The construction bound is left out of -race builds, whose
// instrumentation changes what the runtime allocates, so the count no
// longer measures the Sim alone.

import (
	"runtime"
	"testing"

	"clustervp/internal/config"
	"clustervp/internal/trace"
	"clustervp/internal/workload"
)

// TestFreshSimAllocBound: constructing a Sim for the paper's 4-cluster
// VPB machine allocates under 640 KiB — the ring, consumer masks and
// dependence pool are sized by its 128-entry ROB, not by the 512-entry
// maximum (about 990 KB when they were).
func TestFreshSimAllocBound(t *testing.T) {
	k, err := workload.ByName("rawcaudio")
	if err != nil {
		t.Fatal(err)
	}
	src := trace.NewExecutor(k.Build(1))
	cfg := config.Preset(4).WithVP(config.VPStride).WithSteering(config.SteerVPB)
	const sims = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < sims; i++ {
		if _, err := NewFromSource(cfg, src, k.Name); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perSim := (after.TotalAlloc - before.TotalAlloc) / sims
	t.Logf("%d bytes allocated per fresh Sim", perSim)
	if perSim >= 640<<10 {
		t.Errorf("a fresh Sim allocates %d bytes, want under 640 KiB", perSim)
	}
}
