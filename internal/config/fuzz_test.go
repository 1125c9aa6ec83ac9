package config

import (
	"slices"
	"testing"
)

// FuzzParseClusterSpecs: parsing never panics, and an accepted spec
// string renders through SpecsString to a string that parses back to
// the same clusters. Run it with
//
//	go test -fuzz=FuzzParseClusterSpecs ./internal/config
//
// The seed corpus in testdata/fuzz/FuzzParseClusterSpecs covers every
// optional suffix, a repeat the renderer merges with its neighbour,
// overrides equal to the derived default, the cluster-count limit, a
// value one past its range and padded segments.
func FuzzParseClusterSpecs(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		specs, err := ParseClusterSpecs(s)
		if err != nil {
			return
		}
		again, err := ParseClusterSpecs(SpecsString(specs))
		if err != nil {
			t.Fatalf("%q parses, its rendering %q does not: %v", s, SpecsString(specs), err)
		}
		if !slices.Equal(again, specs) {
			t.Fatalf("%q parses to %+v, its rendering %q to %+v", s, specs, SpecsString(specs), again)
		}
	})
}

// FuzzMachineSpec fuzzes MachineSpec.Build, the boundary a job's
// machine crosses into the service: it never panics, a spec it accepts
// builds a Config that passes Validate with every latency at most
// MaxLatency, and a spec it rejects yields an error and no machine. Run
// it with
//
//	go test -fuzz=FuzzMachineSpec ./internal/config
//
// The seed corpus in testdata/fuzz/FuzzMachineSpec holds presets, an
// asymmetric spec string, latencies one past MaxLatency and far past
// the deadlock watchdog's window, negative knobs and a rename stage one
// past MaxRenameCycles.
func FuzzMachineSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, clusters, vp, steering, topology string,
		commLatency, commPaths, vpEntries, renameCycles int, maxCycles int64) {
		spec := MachineSpec{
			Clusters: clusters, VP: vp, Steering: steering, Topology: topology,
			CommLatency: commLatency, CommPaths: commPaths,
			VPTableEntries: vpEntries, RenameCycles: renameCycles, MaxCycles: maxCycles,
		}
		cfg, err := spec.Build()
		if err != nil {
			if cfg.Clusters != nil {
				t.Fatalf("%+v: rejected (%v) but built %d clusters", spec, err, len(cfg.Clusters))
			}
			return
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%+v: accepted, but its Config does not validate: %v", spec, err)
		}
		if cfg.CommLatency > MaxLatency {
			t.Fatalf("%+v: accepted comm latency %d > %d", spec, cfg.CommLatency, MaxLatency)
		}
		for i, c := range cfg.Clusters {
			if c.BypassLatency > MaxLatency {
				t.Fatalf("%+v: accepted cluster %d bypass latency %d > %d", spec, i, c.BypassLatency, MaxLatency)
			}
		}
	})
}
