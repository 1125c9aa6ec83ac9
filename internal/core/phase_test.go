package core

import (
	"testing"

	"clustervp/internal/config"
	"clustervp/internal/trace"
	"clustervp/internal/workload"
)

// TestPhaseCyclesSumToTotal pins the phase-attribution invariant the
// tracing layer depends on: every simulated cycle lands in exactly one
// of warmup/steady/drain, so the three counters always sum to
// Results.Cycles.
func TestPhaseCyclesSumToTotal(t *testing.T) {
	k, err := workload.ByName("gsmdec")
	if err != nil {
		t.Fatal(err)
	}
	prog := k.Build(2, 0)
	for _, n := range []int{1, 4} {
		cfg := config.Preset(n)
		s, err := New(cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		w, st, d := s.PhaseCycles()
		if total := w + st + d; total != uint64(r.Cycles) {
			t.Fatalf("%d clusters: phases %d+%d+%d = %d, want Cycles %d",
				n, w, st, d, total, r.Cycles)
		}
		if w == 0 || st == 0 || d == 0 {
			t.Errorf("%d clusters: expected all phases non-empty, got warmup=%d steady=%d drain=%d",
				n, w, st, d)
		}
	}
}

// TestPhaseCyclesResetZeroes ensures Reset rewinds the phase counters
// with everything else, so a pooled Sim never leaks a prior job's
// attribution.
func TestPhaseCyclesResetZeroes(t *testing.T) {
	k, err := workload.ByName("rawcaudio")
	if err != nil {
		t.Fatal(err)
	}
	prog := k.Build(1, 0)
	cfg := config.Preset(2)
	s, err := New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if w, st, d := s.PhaseCycles(); w+st+d == 0 {
		t.Fatal("first run recorded no phase cycles")
	}
	if err := s.Reset(cfg, trace.NewExecutor(prog), prog.Name); err != nil {
		t.Fatal(err)
	}
	if w, st, d := s.PhaseCycles(); w+st+d != 0 {
		t.Fatalf("Reset left phase counters %d/%d/%d", w, st, d)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if w, st, d := s.PhaseCycles(); w+st+d != uint64(r.Cycles) {
		t.Fatalf("post-Reset phases %d+%d+%d != Cycles %d", w, st, d, r.Cycles)
	}
}
