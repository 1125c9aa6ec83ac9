//go:build !race

package core

// The construction and reset bounds are left out of -race builds,
// whose instrumentation changes what the runtime allocates, so the
// count no longer measures the Sim alone.

import (
	"runtime"
	"testing"

	"clustervp/internal/config"
	"clustervp/internal/trace"
	"clustervp/internal/workload"
)

// TestFreshSimAllocBound: constructing a Sim for the paper's 4-cluster
// VPB machine allocates under 640 KiB — the ring, bitmaps and
// dependence pool are sized by its 128-entry ROB, not by the 512-entry
// maximum (about 990 KB when they were).
func TestFreshSimAllocBound(t *testing.T) {
	k, err := workload.ByName("rawcaudio")
	if err != nil {
		t.Fatal(err)
	}
	src := trace.NewExecutor(k.Build(1, 0))
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

// TestSimResetAllocBound: rewinding a pooled Sim for its next job
// allocates under 64 KiB — the branch-predictor tables are reset in
// place, not reallocated per job (about 104 KB per Reset when they were).
func TestSimResetAllocBound(t *testing.T) {
	k, err := workload.ByName("rawcaudio")
	if err != nil {
		t.Fatal(err)
	}
	src := trace.NewExecutor(k.Build(1, 0))
	cfg := config.Preset(4).WithVP(config.VPStride).WithSteering(config.SteerVPB)
	s, err := NewFromSource(cfg, src, k.Name)
	if err != nil {
		t.Fatal(err)
	}
	const resets = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < resets; i++ {
		if err := s.Reset(cfg, src, k.Name); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perReset := (after.TotalAlloc - before.TotalAlloc) / resets
	t.Logf("%d bytes allocated per Sim.Reset", perReset)
	if perReset >= 64<<10 {
		t.Errorf("a Sim.Reset allocates %d bytes, want under 64 KiB", perReset)
	}
}
