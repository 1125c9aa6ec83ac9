package runner

import (
	"strconv"
	"testing"

	"clustervp/internal/config"
	"clustervp/internal/core"
	"clustervp/internal/obs"
)

// spanByName finds one span in a set; "" on absence keeps call sites
// terse.
func spanByName(spans []obs.Span, name string) (obs.Span, bool) {
	for _, sp := range spans {
		if sp.Name == name {
			return sp, true
		}
	}
	return obs.Span{}, false
}

// TestSimulateTraced covers the traced simulation path: materialize
// and run child spans under the caller's parent, a warmup sub-span,
// and phase-cycle attributes that sum to the reported cycle count.
func TestSimulateTraced(t *testing.T) {
	col := obs.NewCollector("test", 64)
	parent := col.StartRoot("job", obs.SpanContext{})
	j := Job{Config: config.Preset(2), Kernel: "rawcaudio", Scale: 1}
	res, err := SimulateTraced(j, 0, nil, parent)
	if err != nil {
		t.Fatal(err)
	}
	parent.End()

	spans := col.TraceSpans(parent.TraceID())
	mat, ok := spanByName(spans, "sim.materialize")
	if !ok {
		t.Fatalf("no sim.materialize span in %v", names(spans))
	}
	if mat.Attrs["source"] != SourceSynth {
		t.Errorf("materialize source = %q, want %q", mat.Attrs["source"], SourceSynth)
	}
	if mat.ParentID != parent.SpanID() {
		t.Error("sim.materialize not parented under the job span")
	}

	run, ok := spanByName(spans, "sim.run")
	if !ok {
		t.Fatalf("no sim.run span in %v", names(spans))
	}
	var phaseSum uint64
	for _, k := range []string{"phase_cycles_warmup", "phase_cycles_steady", "phase_cycles_drain"} {
		v, err := strconv.ParseUint(run.Attrs[k], 10, 64)
		if err != nil {
			t.Fatalf("attr %s = %q: %v", k, run.Attrs[k], err)
		}
		phaseSum += v
	}
	if phaseSum != uint64(res.Cycles) {
		t.Errorf("phase attrs sum to %d, want Cycles %d", phaseSum, res.Cycles)
	}

	warm, ok := spanByName(spans, "sim.warmup")
	if !ok {
		t.Fatalf("no sim.warmup span in %v", names(spans))
	}
	if warm.ParentID != run.SpanID {
		t.Error("sim.warmup not parented under sim.run")
	}
	if warm.End.After(run.End) {
		t.Error("sim.warmup outlived sim.run")
	}
}

// TestSimulateTracedNilParent pins the untraced path: a nil parent
// still delivers progress to fn and records nothing.
func TestSimulateTracedNilParent(t *testing.T) {
	j := Job{Config: config.Preset(1), Kernel: "rawcaudio", Scale: 1}
	var ticks int
	res, err := SimulateTraced(j, 1000, func(core.Progress) { ticks++ }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 {
		t.Fatal("no cycles simulated")
	}
	if ticks == 0 {
		t.Fatal("progress callback never fired")
	}
}

func names(spans []obs.Span) []string {
	out := make([]string, len(spans))
	for i, sp := range spans {
		out[i] = sp.Name
	}
	return out
}
