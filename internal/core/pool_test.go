package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"clustervp/internal/config"
	"clustervp/internal/program"
	"clustervp/internal/stats"
	"clustervp/internal/trace"
	"clustervp/internal/workload"
)

// TestSimResetPoolDeterminism drives one Sim through a sequence of runs
// via Reset — alternating cluster counts, cache models and predictors,
// then growing the ROB from 128 to 512 and shrinking it to 64, so every
// reshape path executes — and checks each result is byte-identical to a
// freshly constructed Sim's. This is the core guarantee the worker pool
// rests on: reuse is invisible in the statistics.
func TestSimResetPoolDeterminism(t *testing.T) {
	k, err := workload.ByName("cjpeg")
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []config.Config{
		config.Preset(1),
		config.Preset(4).WithVP(config.VPStride).WithSteering(config.SteerVPB),
		config.Preset(2).WithVP(config.VPTwoDelta),
		config.Preset(4),
		config.Preset(1).WithVP(config.VPStride),
		config.Preset(4).WithVP(config.VPStride).WithSteering(config.SteerVPB),
		config.Preset(2),
		config.Preset(4).WithVP(config.VPStride),
	}
	cfgs[3].PerfectCaches = true
	cfgs[5].ROBSize = 512
	cfgs[6].ROBSize = 128
	cfgs[7].ROBSize = 64

	reused := &Sim{}
	for i, cfg := range cfgs {
		prog := k.Build(1, 0)
		want := run(t, cfg, prog)
		if err := reused.Reset(cfg, trace.NewExecutor(k.Build(1, 0)), prog.Name); err != nil {
			t.Fatalf("cfg %d: Reset: %v", i, err)
		}
		got, err := reused.Run()
		if err != nil {
			t.Fatalf("cfg %d: Run: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("cfg %d (%s): reused Sim diverged from fresh Sim:\nfresh:  %+v\nreused: %+v", i, cfg.Name, want, got)
		}
	}
}

// TestSimResetPoolResultsNotAliased pins the aliasing contract: Results
// returned by a run must never be mutated by a later Reset+Run on the
// same Sim (Run hands out s.out, so PerCluster must be re-allocated).
func TestSimResetPoolResultsNotAliased(t *testing.T) {
	k, err := workload.ByName("cjpeg")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Preset(2)
	s, err := New(cfg, k.Build(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	snapshot := first
	snapshot.PerCluster = append([]stats.ClusterStats(nil), first.PerCluster...)
	snapshot.HopHistogram = append([]uint64(nil), first.HopHistogram...)

	if err := s.Reset(config.Preset(2).WithVP(config.VPStride), trace.NewExecutor(k.Build(2, 0)), "cjpeg"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.PerCluster, snapshot.PerCluster) {
		t.Error("first run's PerCluster mutated by a later Reset+Run")
	}
	if !reflect.DeepEqual(first.HopHistogram, snapshot.HopHistogram) {
		t.Error("first run's HopHistogram mutated by a later Reset+Run")
	}
}

// TestPoolGetPutReuse checks the pool recycles across machine shapes: a
// Sim put back after a 2-cluster run is the one a 4-cluster Get returns,
// and its results equal a fresh Sim's.
func TestPoolGetPutReuse(t *testing.T) {
	k, err := workload.ByName("cjpeg")
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool()
	s2, err := p.Get(config.Preset(2), trace.NewExecutor(k.Build(1, 0)), "cjpeg")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Run(); err != nil {
		t.Fatal(err)
	}
	p.Put(s2)
	cfg4 := config.Preset(4).WithVP(config.VPStride).WithSteering(config.SteerVPB)
	s4, err := p.Get(cfg4, trace.NewExecutor(k.Build(1, 0)), "cjpeg")
	if err != nil {
		t.Fatal(err)
	}
	if s4 != s2 {
		t.Error("pool constructed a fresh Sim for a 4-cluster Get instead of reusing the 2-cluster one")
	}
	got, err := s4.Run()
	if err != nil {
		t.Fatal(err)
	}
	if want := run(t, cfg4, k.Build(1, 0)); !reflect.DeepEqual(got, want) {
		t.Errorf("reused Sim diverged from fresh Sim:\nfresh:  %+v\nreused: %+v", want, got)
	}
	p.Put(s4)
}

// TestRingSizeInvisible checks that sizing the ring by the ROB is
// invisible in the statistics: for ROB sizes at, below, above and off a
// power of two, every run is byte-identical to one whose ring is forced
// to the 512-slot maximum.
func TestRingSizeInvisible(t *testing.T) {
	kernels := []string{"cjpeg", "epicdec", "gsmdec", "mesatexgen", "pgpenc"}
	if testing.Short() {
		kernels = kernels[:2]
	}
	machines := []config.Config{
		config.Preset(1),
		config.Preset(4).WithVP(config.VPStride).WithSteering(config.SteerVPB),
	}
	for _, name := range kernels {
		k, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range machines {
			for _, rob := range []int{64, 96, 128, 256, 512} {
				cfg := m
				cfg.ROBSize = rob
				t.Run(fmt.Sprintf("%s/%s/rob%d", name, cfg.Name, rob), func(t *testing.T) {
					sized := runJSON(t, cfg, k.Build(1, 0), 0)
					forced := runJSON(t, cfg, k.Build(1, 0), ringCap)
					if !bytes.Equal(sized, forced) {
						t.Errorf("%d-slot ring diverged from the %d-slot ring:\nsized:  %s\nforced: %s",
							ringSlots(rob), ringCap, sized, forced)
					}
				})
			}
		}
	}
}

// runJSON runs prog under cfg and returns the results as JSON. A
// nonzero slots forces the ring to that many slots in place of the size
// Reset picks for cfg.ROBSize.
func runJSON(t *testing.T, cfg config.Config, prog *program.Program, slots int) []byte {
	t.Helper()
	s, err := New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if slots != 0 {
		s.resetRing(len(s.res), slots)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
