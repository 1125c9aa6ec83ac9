package config

import (
	"strings"
	"testing"

	"clustervp/internal/interconnect"
)

func TestTable1Presets(t *testing.T) {
	// The exact Table 1 numbers.
	cases := []struct {
		clusters                  int
		iq, regs, issInt, issFP   int
		intALU, intMul, fp, fpMul int
	}{
		{1, 64, 128, 8, 4, 8, 4, 4, 2},
		{2, 32, 80, 4, 2, 4, 2, 2, 2},
		{4, 16, 56, 2, 1, 2, 1, 1, 1},
	}
	for _, c := range cases {
		cfg := Preset(c.clusters)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%d clusters: %v", c.clusters, err)
		}
		if cfg.NumClusters() != c.clusters || !cfg.Homogeneous() {
			t.Fatalf("%dc: preset must be %d identical clusters, got %d (homogeneous=%v)",
				c.clusters, c.clusters, cfg.NumClusters(), cfg.Homogeneous())
		}
		cl := cfg.Clusters[0]
		if cl.IQSize != c.iq || cl.PhysRegs != c.regs {
			t.Errorf("%dc: IQ/regs = %d/%d, want %d/%d", c.clusters, cl.IQSize, cl.PhysRegs, c.iq, c.regs)
		}
		if cl.IssueInt != c.issInt || cl.IssueFP != c.issFP {
			t.Errorf("%dc: issue = %d/%d, want %d/%d", c.clusters, cl.IssueInt, cl.IssueFP, c.issInt, c.issFP)
		}
		if cl.FUs.IntALU != c.intALU || cl.FUs.IntMul != c.intMul || cl.FUs.FPALU != c.fp || cl.FUs.FPMulDiv != c.fpMul {
			t.Errorf("%dc: FUs = %+v", c.clusters, cl.FUs)
		}
		if cfg.ROBSize != 128 || cfg.FetchWidth != 8 || cfg.DecodeWidth != 8 || cfg.RetireWidth != 8 {
			t.Errorf("%dc: pipeline widths wrong: %+v", c.clusters, cfg)
		}
		if cfg.DCachePorts != 3 {
			t.Errorf("%dc: D-cache ports = %d, want 3", c.clusters, cfg.DCachePorts)
		}
	}
}

func TestPaperThresholds(t *testing.T) {
	// §3.1: DCOUNT=32/16 for rule 1 on 4/2 clusters; §3.3: VPB M2
	// thresholds 16/8.
	c4 := Preset(4)
	if c4.BalanceThreshold != 32 || c4.VPBThreshold != 16 {
		t.Errorf("4c thresholds = %d/%d, want 32/16", c4.BalanceThreshold, c4.VPBThreshold)
	}
	c2 := Preset(2)
	if c2.BalanceThreshold != 16 || c2.VPBThreshold != 8 {
		t.Errorf("2c thresholds = %d/%d, want 16/8", c2.BalanceThreshold, c2.VPBThreshold)
	}
}

func TestPresetPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Preset(3) must panic: the paper has no 3-cluster machine")
		}
	}()
	Preset(3)
}

func TestWithersDoNotMutate(t *testing.T) {
	base := Preset(4)
	mod := base.WithVP(VPStride).WithSteering(SteerVPB).WithComm(4, 2).WithVPTable(1024)
	if base.VP != VPNone || base.Steering != SteerBaseline || base.CommLatency != 1 || base.VPTableEntries != 128*1024 {
		t.Error("With* must not mutate the receiver")
	}
	if mod.VP != VPStride || mod.Steering != SteerVPB || mod.CommLatency != 4 || mod.CommPaths != 2 || mod.VPTableEntries != 1024 {
		t.Error("With* must apply the change")
	}
}

func TestValidationCatchesBadConfigs(t *testing.T) {
	mk := func(f func(*Config)) Config {
		c := Preset(4)
		f(&c)
		return c
	}
	bad := []Config{
		mk(func(c *Config) { c.Clusters = nil }),
		mk(func(c *Config) { c.Clusters[0].IQSize = 0 }),
		mk(func(c *Config) { c.Clusters[0].FUs.IntMul = 3 }),
		mk(func(c *Config) { c.Clusters[0].FUs.FPMulDiv = 2 }),
		mk(func(c *Config) { c.Clusters[3].RegPorts = -1 }),
		mk(func(c *Config) { c.Clusters[3].BypassLatency = -2 }),
		mk(func(c *Config) { c.Clusters[3].BypassLatency = MaxLatency + 1 }),
		mk(func(c *Config) { c.RetireWidth = 0 }),
		mk(func(c *Config) { c.RenameCycles = 0 }),
		mk(func(c *Config) { c.RenameCycles = MaxRenameCycles + 1 }),
		mk(func(c *Config) { c.CommLatency = 0 }),
		mk(func(c *Config) { c.CommLatency = MaxLatency + 1 }),
		mk(func(c *Config) { c.CommPaths = -1 }),
		mk(func(c *Config) { c.DCachePorts = 0 }),
		mk(func(c *Config) { c.VP = VPStride; c.VPTableEntries = 100 }),
		mk(func(c *Config) { c.VP = VPTwoDelta; c.VPCoverFP = true }),
		mk(func(c *Config) { c.VP = VPNone; c.VPCoverFP = true }),
		mk(func(c *Config) { c.Clusters[0].PhysRegs = 4 }),
		mk(func(c *Config) { c.Topology = interconnect.Kind(99) }),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d passed validation", i)
		}
	}
	// TwoDelta has no FP path: the flag would be silently ignored.
	err := mk(func(c *Config) { c.VP = VPTwoDelta; c.VPCoverFP = true }).Validate()
	if err == nil || !strings.Contains(err.Error(), "VPCoverFP") {
		t.Errorf("VPCoverFP with twodelta: err = %v, want one naming VPCoverFP", err)
	}
	for _, vp := range []VPKind{VPStride, VPPerfect} {
		if err := mk(func(c *Config) { c.VP = vp; c.VPCoverFP = true }).Validate(); err != nil {
			t.Errorf("VPCoverFP with %s must validate: %v", vp, err)
		}
	}
}

func TestKindStrings(t *testing.T) {
	if SteerBaseline.String() != "baseline" || SteerVPB.String() != "vpb" || SteerModified.String() != "modified" {
		t.Error("steering names wrong")
	}
	if VPNone.String() != "none" || VPStride.String() != "stride" || VPPerfect.String() != "perfect" || VPTwoDelta.String() != "twodelta" {
		t.Error("VP names wrong")
	}
	if SteeringKind(99).String() == "" || VPKind(99).String() == "" {
		t.Error("unknown kinds must still render")
	}
}

func TestTopologyPlumbing(t *testing.T) {
	base := Preset(4)
	if base.Topology != interconnect.KindBus {
		t.Errorf("preset topology = %v, want the paper's bus", base.Topology)
	}
	mesh := base.WithTopology(interconnect.KindMesh)
	if base.Topology != interconnect.KindBus {
		t.Error("WithTopology must not mutate the receiver")
	}
	if mesh.Topology != interconnect.KindMesh {
		t.Error("WithTopology must apply the change")
	}
	if err := mesh.Validate(); err != nil {
		t.Errorf("4-cluster mesh must validate: %v", err)
	}
	// Mesh needs 4+ clusters; the 2-cluster preset must reject it.
	if err := Preset(2).WithTopology(interconnect.KindMesh).Validate(); err == nil {
		t.Error("2-cluster mesh must be rejected")
	}
	ic := Preset(2).WithComm(4, 2).WithTopology(interconnect.KindRing).Interconnect()
	want := interconnect.Config{Topology: interconnect.KindRing, Clusters: 2, PathsPerCluster: 2, Latency: 4}
	if ic != want {
		t.Errorf("Interconnect() = %+v, want %+v", ic, want)
	}
}

func TestParseClusterSpecs(t *testing.T) {
	specs, err := ParseClusterSpecs("4w16q:2w8q:2w8q")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 {
		t.Fatalf("parsed %d specs, want 3", len(specs))
	}
	if specs[0] != DefaultSpec(4, 16) || specs[1] != DefaultSpec(2, 8) || specs[2] != specs[1] {
		t.Errorf("specs = %+v", specs)
	}

	// Overrides and repeat counts.
	specs, err = ParseClusterSpecs("8w64qf4r128p6b1:2w8qx3")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 4 {
		t.Fatalf("parsed %d specs, want 4", len(specs))
	}
	big := specs[0]
	if big.IssueInt != 8 || big.IQSize != 64 || big.IssueFP != 4 || big.PhysRegs != 128 ||
		big.RegPorts != 6 || big.BypassLatency != 1 {
		t.Errorf("override spec = %+v", big)
	}
	for i := 1; i < 4; i++ {
		if specs[i] != DefaultSpec(2, 8) {
			t.Errorf("repeat %d = %+v", i, specs[i])
		}
	}

	for _, bad := range []string{
		"", "4w", "w16q", "4w16q:", "zebra", "4w16qx0", "4w16q;2w8q",
		// Bounded: repeat counts past MaxClusters (or overflowing Atoi),
		// cluster totals past MaxClusters, absurd widths.
		"2w8qx33", "2w8qx4294967295", "2w8qx99999999999999999999",
		"2w8qx16:2w8qx17", "9999w8q", "2w8qf0", "2w8qp0", "0w8q",
	} {
		if _, err := ParseClusterSpecs(bad); err == nil {
			t.Errorf("ParseClusterSpecs(%q) must fail", bad)
		}
	}
	// MaxClusters itself is fine and validates.
	specs32, err := ParseClusterSpecs("2w8qx32")
	if err != nil {
		t.Fatalf("32 clusters must parse: %v", err)
	}
	if err := FromSpecs(specs32...).Validate(); err != nil {
		t.Errorf("32-cluster machine must validate: %v", err)
	}
	if err := FromSpecs(repeatSpec(DefaultSpec(2, 8), 33)...).Validate(); err == nil {
		t.Error("33-cluster machine must be rejected (uint32 steering masks)")
	}
}

func TestSpecStringRoundTrip(t *testing.T) {
	// Canonical strings reproduce themselves literally…
	for _, s := range []string{"4w16q:2w8qx2", "2w16qr56x4", "8w64qf3r100p6b1"} {
		specs, err := ParseClusterSpecs(s)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		if got := SpecsString(specs); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
	// …and non-canonical ones (default-valued suffixes, expanded
	// repeats) re-parse to the same machine.
	for _, s := range []string{"8w64qf4r128p6b1", "2w8q:2w8q"} {
		specs, err := ParseClusterSpecs(s)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		again, err := ParseClusterSpecs(SpecsString(specs))
		if err != nil || len(again) != len(specs) {
			t.Fatalf("canonical form of %q does not re-parse: %v", s, err)
		}
		for i := range specs {
			if specs[i] != again[i] {
				t.Errorf("%q: canonicalization changed cluster %d: %+v -> %+v", s, i, specs[i], again[i])
			}
		}
	}
	// The 4-cluster preset renders as a parsable spec string and
	// round-trips to the same machine shape.
	p4 := Preset(4)
	specs, err := ParseClusterSpecs(p4.SpecString())
	if err != nil {
		t.Fatalf("preset spec string %q does not parse: %v", p4.SpecString(), err)
	}
	if len(specs) != 4 || specs[0].IssueInt != 2 || specs[0].IQSize != 16 || specs[0].PhysRegs != 56 {
		t.Errorf("preset spec string %q parsed to %+v", p4.SpecString(), specs)
	}
}

func TestFromSpecsAndBuilders(t *testing.T) {
	cfg := FromSpecs(DefaultSpec(4, 16), DefaultSpec(2, 8), DefaultSpec(2, 8))
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.NumClusters() != 3 || cfg.Homogeneous() {
		t.Errorf("asymmetric machine: n=%d homogeneous=%v", cfg.NumClusters(), cfg.Homogeneous())
	}
	if cfg.BalanceThreshold != 24 || cfg.VPBThreshold != 12 {
		t.Errorf("thresholds = %d/%d, want 8N/4N = 24/12", cfg.BalanceThreshold, cfg.VPBThreshold)
	}
	if cfg.Name != "4w16q:2w8qx2" {
		t.Errorf("name = %q", cfg.Name)
	}
	if w := cfg.IssueWeights(); len(w) != 3 || w[0] != 6 || w[1] != 3 || w[2] != 3 {
		t.Errorf("issue weights = %v", w)
	}

	// WithAsymmetry builds the same machine from the spec string.
	viaString := Preset(4).WithAsymmetry("4w16q:2w8q:2w8q")
	if viaString.NumClusters() != 3 || viaString.Clusters[0] != cfg.Clusters[0] {
		t.Errorf("WithAsymmetry = %+v", viaString.Clusters)
	}
	// The front end (fetch/retire widths, caches, VP table) rides along.
	if viaString.FetchWidth != 8 || viaString.DCachePorts != 3 {
		t.Error("WithAsymmetry must keep the base front end")
	}

	// WithClusterSpecs clones: mutating the argument afterwards must not
	// alias the config.
	arg := []ClusterSpec{DefaultSpec(2, 8), DefaultSpec(2, 8)}
	c2 := Preset(2).WithClusterSpecs(arg...)
	arg[0].IQSize = 99
	if c2.Clusters[0].IQSize == 99 {
		t.Error("WithClusterSpecs must copy the specs")
	}
}

func TestWithAsymmetryPanicsOnBadSpec(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("WithAsymmetry on a malformed spec must panic")
		}
	}()
	Preset(4).WithAsymmetry("not-a-spec")
}

func TestParsersRoundTrip(t *testing.T) {
	for _, name := range SteeringNames() {
		k, err := ParseSteering(name)
		if err != nil || k.String() != name {
			t.Errorf("ParseSteering(%q) = %v, %v", name, k, err)
		}
	}
	for _, name := range VPNames() {
		k, err := ParseVP(name)
		if err != nil || k.String() != name {
			t.Errorf("ParseVP(%q) = %v, %v", name, k, err)
		}
	}
	if _, err := ParseSteering("nope"); err == nil || !strings.Contains(err.Error(), "baseline") {
		t.Errorf("ParseSteering error must list valid names, got %v", err)
	}
	if _, err := ParseVP("nope"); err == nil || !strings.Contains(err.Error(), "stride") {
		t.Errorf("ParseVP error must list valid names, got %v", err)
	}
}
