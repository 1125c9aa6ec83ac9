package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"clustervp/internal/config"
	"clustervp/internal/program"
	"clustervp/internal/stats"
	"clustervp/internal/workload"
)

// runSelector simulates prog under cfg with the chosen issue selector
// (bitmap, or the reference linear scan of issue_ref_test.go) and
// returns the full statistics record.
func runSelector(t *testing.T, cfg config.Config, prog *program.Program, reference bool) stats.Results {
	t.Helper()
	s, err := New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	step := (*Sim).step
	if reference {
		step = (*Sim).stepRef
	}
	r, err := s.run(step)
	if err != nil {
		t.Fatalf("%s/%s (ref=%v): %v", cfg.Name, prog.Name, reference, err)
	}
	return r
}

// randomSpec draws a cluster spec with randomized width, IQ size,
// register-file size, port count and bypass latency — the dimensions
// the bitmap selector must honor exactly (per-cluster widths, FU
// inventories, RegPorts gating).
func randomSpec(rng *rand.Rand) config.ClusterSpec {
	widths := []int{1, 2, 2, 4, 4, 6, 8}
	iqs := []int{4, 8, 16, 24, 32}
	sp := config.DefaultSpec(widths[rng.Intn(len(widths))], iqs[rng.Intn(len(iqs))])
	// DefaultSpec sizes the register file for benchmark-grade IQs; tiny
	// randomized IQs need an explicit floor to pass config validation.
	sp.PhysRegs = 96 + sp.IQSize
	if rng.Intn(2) == 0 {
		sp.RegPorts = 1 + rng.Intn(sp.Width()+1)
	}
	if rng.Intn(3) == 0 {
		sp.BypassLatency = 1 + rng.Intn(2)
	}
	return sp
}

// TestIssueSelectorOracle is the differential oracle for the bitmap
// wakeup/select rebuild: the old linear ROB scan is retained verbatim
// (issue_ref_test.go) and every run must produce bit-identical statistics
// under both selectors. Machines are drawn randomly — asymmetric
// cluster mixes, random widths/IQ/ports/bypass — so the oracle covers
// corners the fixed golden grid does not.
func TestIssueSelectorOracle(t *testing.T) {
	kernels := workload.Names()
	rounds := 12
	if testing.Short() {
		rounds = 3
	}
	rng := rand.New(rand.NewSource(0x5eed))
	for i := 0; i < rounds; i++ {
		nc := 1 + rng.Intn(4)
		specs := make([]config.ClusterSpec, nc)
		for c := range specs {
			specs[c] = randomSpec(rng)
		}
		cfg := config.FromSpecs(specs...)
		switch rng.Intn(3) {
		case 1:
			cfg = cfg.WithVP(config.VPStride)
		case 2:
			cfg = cfg.WithVP(config.VPStride).WithSteering(config.SteerVPB)
		}
		k, err := workload.ByName(kernels[rng.Intn(len(kernels))])
		if err != nil {
			t.Fatal(err)
		}
		scale := 1 + rng.Intn(2)
		prog := k.Build(scale, 0)
		name := fmt.Sprintf("round%02d_%s_x%d_%dc", i, k.Name, scale, nc)
		t.Run(name, func(t *testing.T) {
			bitmap := runSelector(t, cfg, prog, false)
			ref := runSelector(t, cfg, prog, true)
			if !reflect.DeepEqual(bitmap, ref) {
				t.Errorf("selector divergence on %s:\nbitmap: %+v\nref:    %+v", name, bitmap, ref)
			}
		})
	}
}

// TestIssueSelectorOracleSteady pins the two selectors against each
// other on the exact machines the steady-state benchmarks and the CI
// alloc gate run (symmetric preset-4 VPB and the heterogeneous
// asymCfg), at benchmark scale.
func TestIssueSelectorOracleSteady(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-scale runs in -short mode")
	}
	k, err := workload.ByName("cjpeg")
	if err != nil {
		t.Fatal(err)
	}
	prog := k.Build(20, 0)
	for _, cfg := range []config.Config{
		config.Preset(4).WithVP(config.VPStride).WithSteering(config.SteerVPB),
		asymCfg(),
	} {
		bitmap := runSelector(t, cfg, prog, false)
		ref := runSelector(t, cfg, prog, true)
		if !reflect.DeepEqual(bitmap, ref) {
			t.Errorf("selector divergence on %s:\nbitmap: %+v\nref:    %+v", cfg.Name, bitmap, ref)
		}
	}
}
