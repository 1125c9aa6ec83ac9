// Package config defines the simulator configuration — the paper's
// Table 1 machine presets for the 1-, 2- and 4-cluster configurations,
// the steering (§3), value-predictor (§2.2) and interconnect-topology
// (§4.2) selectors, validation, and the With* builder methods the
// experiments compose sweeps from.
//
// The machine description is per-cluster: Config.Clusters is a slice of
// ClusterSpec, one entry per cluster, so clusters need not be identical.
// The paper's homogeneous machines are N copies of one spec; the
// heterogeneous extension (big/LITTLE-style width grading, FU
// specialization, per-cluster bypass depth) is expressed either with
// explicit specs or with the compact spec-string grammar understood by
// ParseClusterSpecs ("4w16q:2w8q:2w8q").
package config

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"

	"clustervp/internal/interconnect"
)

// SteeringKind selects the instruction-steering heuristic (§3).
type SteeringKind int

const (
	// SteerBaseline is the generalized "Advanced RMBS" heuristic of §3.1,
	// with no awareness of value prediction.
	SteerBaseline SteeringKind = iota
	// SteerModified applies both §3.2 modifications unconditionally:
	// predicted operands count as available (M1) and as mapped in all
	// clusters (M2).
	SteerModified
	// SteerVPB is the paper's Value Prediction Based scheme (§3.3): M1
	// always, M2 only when workload imbalance exceeds VPBThreshold.
	SteerVPB
	// SteerRoundRobin distributes instructions cyclically with no
	// dependence awareness (a trace-processor-style baseline, §5).
	SteerRoundRobin
	// SteerLoadOnly always picks the least loaded cluster (pure
	// balancing, no communication awareness).
	SteerLoadOnly
	// SteerDepFIFO approximates the Dependence-based paradigm's FIFO
	// steering (§5): follow the first pending operand's producer, start
	// new slices round-robin.
	SteerDepFIFO
)

// String names the steering scheme.
func (s SteeringKind) String() string {
	switch s {
	case SteerBaseline:
		return "baseline"
	case SteerModified:
		return "modified"
	case SteerVPB:
		return "vpb"
	case SteerRoundRobin:
		return "roundrobin"
	case SteerLoadOnly:
		return "loadonly"
	case SteerDepFIFO:
		return "depfifo"
	}
	return fmt.Sprintf("steer?%d", int(s))
}

// VPKind selects the value predictor.
type VPKind int

const (
	// VPNone disables value prediction.
	VPNone VPKind = iota
	// VPStride is the paper's stride predictor (§2.2).
	VPStride
	// VPPerfect is the Figure 3 upper bound: every integer operand
	// predicted correctly.
	VPPerfect
	// VPTwoDelta is the 2-delta stride extension (the paper's "more
	// complex and effective predictors" remark).
	VPTwoDelta
)

// String names the predictor kind.
func (v VPKind) String() string {
	switch v {
	case VPNone:
		return "none"
	case VPStride:
		return "stride"
	case VPPerfect:
		return "perfect"
	case VPTwoDelta:
		return "twodelta"
	}
	return fmt.Sprintf("vp?%d", int(v))
}

// FUCount is the per-cluster functional-unit inventory. MulDiv-capable
// units are a subset of the integer units, and FPMulDiv-capable units a
// subset of the FP units, as in Table 1 ("8 int (4 include mul/div)").
type FUCount struct {
	IntALU   int // total integer units
	IntMul   int // of which mul/div capable
	FPALU    int // total FP units
	FPMulDiv int // of which FP mul/div capable
}

// ClusterSpec sizes one cluster: the unit every machine description is
// built from. Homogeneous machines repeat one spec N times; asymmetric
// machines mix specs.
type ClusterSpec struct {
	// IQSize is the instruction-queue length.
	IQSize int
	// PhysRegs is the physical register file size.
	PhysRegs int
	// IssueInt and IssueFP are the per-cluster issue widths.
	IssueInt int
	IssueFP  int
	// FUs is the functional-unit inventory.
	FUs FUCount
	// RegPorts bounds the total instructions issued per cycle in this
	// cluster (shared register-file read/write port pairs); 0 means
	// unbounded — the paper's model, where only the per-class issue
	// widths gate.
	RegPorts int
	// BypassLatency is the extra cycles before this cluster's
	// register-writing results (ALU ops and loads) become visible to
	// consumers — a deeper local bypass network; 0 is the paper's
	// single-cycle full bypass. Inter-cluster copies pay the network
	// latency instead.
	BypassLatency int
}

// Width is the cluster's total issue width (int + FP), the capacity
// weight the steering balancer normalizes DCOUNT by.
func (s ClusterSpec) Width() int { return s.IssueInt + s.IssueFP }

// DefaultSpec derives a cluster from its integer issue width and IQ
// size the way the spec-string parser does: IssueFP = width/2 (min 1),
// one integer unit per issue slot with half mul/div-capable, FP units
// matching the FP width with width/4 (min 1) FP mul/div units, and a
// register file sized 64+IQ (enough for the architectural spread plus a
// full queue of in-flight writers).
func DefaultSpec(width, iq int) ClusterSpec {
	half := width / 2
	if half < 1 {
		half = 1
	}
	quarter := width / 4
	if quarter < 1 {
		quarter = 1
	}
	return ClusterSpec{
		IQSize:   iq,
		PhysRegs: 64 + iq,
		IssueInt: width,
		IssueFP:  half,
		FUs:      FUCount{IntALU: width, IntMul: half, FPALU: half, FPMulDiv: quarter},
	}
}

// SpecString renders the spec in the ParseClusterSpecs grammar: the
// mandatory "<W>w<Q>q" core plus the optional suffixes that differ from
// the DefaultSpec derivation (f = FP width, r = physical registers,
// p = register ports, b = bypass latency). FU inventories beyond the
// derived defaults have no spec-string form and are not rendered —
// which is also why this is deliberately NOT a String method: fmt would
// adopt it and the grid fingerprint (a %+v of Config) would stop
// covering the FU fields.
func (s ClusterSpec) SpecString() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%dw%dq", s.IssueInt, s.IQSize)
	d := DefaultSpec(s.IssueInt, s.IQSize)
	if s.IssueFP != d.IssueFP {
		fmt.Fprintf(&sb, "f%d", s.IssueFP)
	}
	if s.PhysRegs != d.PhysRegs {
		fmt.Fprintf(&sb, "r%d", s.PhysRegs)
	}
	if s.RegPorts != 0 {
		fmt.Fprintf(&sb, "p%d", s.RegPorts)
	}
	if s.BypassLatency != 0 {
		fmt.Fprintf(&sb, "b%d", s.BypassLatency)
	}
	return sb.String()
}

// Validate checks one cluster spec. Every instruction class must be
// issuable in every cluster (at least one unit of each kind): steering
// is class-blind, so a cluster unable to execute, say, FP divides would
// deadlock the ROB the first time one is steered there.
func (s ClusterSpec) Validate() error {
	if s.IQSize < 1 || s.PhysRegs < 1 || s.IssueInt < 1 || s.IssueFP < 1 {
		return fmt.Errorf("cluster geometry must be positive (iq=%d regs=%d widths=%d/%d)",
			s.IQSize, s.PhysRegs, s.IssueInt, s.IssueFP)
	}
	if s.FUs.IntALU < 1 || s.FUs.IntMul < 1 || s.FUs.FPALU < 1 || s.FUs.FPMulDiv < 1 {
		return fmt.Errorf("every unit class needs at least one unit (steering is class-blind): %+v", s.FUs)
	}
	if s.FUs.IntMul > s.FUs.IntALU {
		return fmt.Errorf("mul/div units (%d) exceed int units (%d)", s.FUs.IntMul, s.FUs.IntALU)
	}
	if s.FUs.FPMulDiv > s.FUs.FPALU {
		return fmt.Errorf("FP mul/div units (%d) exceed FP units (%d)", s.FUs.FPMulDiv, s.FUs.FPALU)
	}
	if s.RegPorts < 0 || s.BypassLatency < 0 {
		return fmt.Errorf("register ports (%d) and bypass latency (%d) must be >= 0", s.RegPorts, s.BypassLatency)
	}
	if s.BypassLatency > MaxLatency {
		return fmt.Errorf("bypass latency %d exceeds %d", s.BypassLatency, MaxLatency)
	}
	return nil
}

// specSegment matches one spec-string segment:
// <W>w<Q>q [f<FP>] [r<Regs>] [p<Ports>] [b<Bypass>] [x<Repeat>].
var specSegment = regexp.MustCompile(
	`^(\d+)w(\d+)q(?:f(\d+))?(?:r(\d+))?(?:p(\d+))?(?:b(\d+))?(?:x(\d+))?$`)

// specGrammar documents the segment grammar in parse errors.
const specGrammar = "<W>w<Q>q[f<FP>][r<Regs>][p<Ports>][b<Bypass>][x<Repeat>]"

// ParseClusterSpecs parses a compact machine description: colon-
// separated cluster segments, each giving the integer issue width and
// IQ size with optional overrides, e.g.
//
//	4w16q:2w8q:2w8q    one 4-wide and two 2-wide clusters
//	2w16qr56x4         the 4-cluster Table 1 machine (56 registers)
//	8w64qf4:2w8qb1     an 8-wide leader plus a slow-bypass helper
//
// Everything not spelled out is derived by DefaultSpec.
func ParseClusterSpecs(s string) ([]ClusterSpec, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("config: empty cluster spec (want %s segments separated by ':')", specGrammar)
	}
	var specs []ClusterSpec
	for _, seg := range strings.Split(s, ":") {
		m := specSegment.FindStringSubmatch(strings.TrimSpace(seg))
		if m == nil {
			return nil, fmt.Errorf("config: bad cluster spec segment %q (want %s)", seg, specGrammar)
		}
		// All numbers are bounded on both sides: widths/sizes above any
		// plausible machine are config typos, an unchecked repeat count
		// would let one CLI string drive an unbounded allocation loop
		// (strconv range errors must not be swallowed either), and f0/p0
		// would otherwise build a cluster that cannot issue FP at all or
		// silently mean "unbounded ports" — the opposite of the intent.
		var atoiErr error
		atoi := func(v string, lo, hi int) int {
			n, err := strconv.Atoi(v)
			if atoiErr == nil && (err != nil || n < lo || n > hi) {
				atoiErr = fmt.Errorf("config: spec segment %q: value %s out of range [%d, %d]", seg, v, lo, hi)
			}
			return n
		}
		spec := DefaultSpec(atoi(m[1], 1, 1024), atoi(m[2], 1, 1<<16))
		if m[3] != "" {
			spec.IssueFP = atoi(m[3], 1, 1024)
			spec.FUs.FPALU = spec.IssueFP
			if spec.FUs.FPMulDiv > spec.FUs.FPALU {
				spec.FUs.FPMulDiv = spec.FUs.FPALU
			}
		}
		if m[4] != "" {
			spec.PhysRegs = atoi(m[4], 1, 1<<20)
		}
		if m[5] != "" {
			spec.RegPorts = atoi(m[5], 1, 1024)
		}
		if m[6] != "" {
			spec.BypassLatency = atoi(m[6], 0, 1<<16)
		}
		repeat := 1
		if m[7] != "" {
			repeat = atoi(m[7], 1, MaxClusters)
		}
		if atoiErr != nil {
			return nil, atoiErr
		}
		if len(specs)+repeat > MaxClusters {
			return nil, fmt.Errorf("config: spec %q describes more than %d clusters", s, MaxClusters)
		}
		for i := 0; i < repeat; i++ {
			specs = append(specs, spec)
		}
	}
	return specs, nil
}

// SpecsString renders specs in the ParseClusterSpecs grammar, collapsing
// consecutive identical clusters into an xN repeat.
func SpecsString(specs []ClusterSpec) string {
	var parts []string
	for i := 0; i < len(specs); {
		j := i
		for j < len(specs) && specs[j] == specs[i] {
			j++
		}
		seg := specs[i].SpecString()
		if n := j - i; n > 1 {
			seg += fmt.Sprintf("x%d", n)
		}
		parts = append(parts, seg)
		i = j
	}
	return strings.Join(parts, ":")
}

// Config is the full machine configuration.
type Config struct {
	Name string
	// Clusters describes each cluster; the machine has len(Clusters)
	// clusters. Treat the slice as immutable once the Config is built —
	// the With* builders copy it, direct element mutation aliases every
	// derived copy.
	Clusters []ClusterSpec

	FetchWidth  int
	DecodeWidth int
	RetireWidth int
	ROBSize     int
	// RenameCycles is the depth of the decode/rename/steer stage (1 by
	// default; §3.3 evaluates 2).
	RenameCycles int

	// CommLatency is the inter-cluster transfer latency in cycles (§4.1);
	// on multi-hop topologies it is the per-hop latency.
	CommLatency int
	// CommPaths is the per-cluster inter-cluster write-port/bus count
	// (§4.2), reused as the per-port or per-link width on the other
	// topologies; 0 means unbounded.
	CommPaths int
	// Topology selects the inter-cluster network model; the zero value is
	// the paper's N×B bus fabric (§2.1, §4.2), and ring, crossbar and
	// mesh are extensions beyond the paper.
	Topology interconnect.Kind

	// DCachePorts is the number of L1D read/write ports shared by all
	// clusters (Table 1: 3).
	DCachePorts int

	// VP selects the value predictor; VPTableEntries sizes the stride
	// table (§4.3). VPCoverFP extends prediction to FP operands (an
	// extension; the paper's predictor covers integers only, §3.3); it
	// is valid with the stride and perfect predictors only.
	VP             VPKind
	VPTableEntries int
	VPCoverFP      bool

	// Steering selects the heuristic; BalanceThreshold is the DCOUNT
	// threshold of rule 1 (32/16 for 4/2 clusters); VPBThreshold gates
	// the VPB M2 rule (16/8 for 4/2 clusters). On asymmetric machines
	// the DCOUNT counters are capacity-weighted (see internal/steer) but
	// keep the same scale as long as cluster widths share a common
	// factor.
	Steering         SteeringKind
	BalanceThreshold int
	VPBThreshold     int

	// PerfectCaches replaces the hierarchy with fixed 1-cycle accesses
	// (ablation only; the paper always simulates real caches).
	PerfectCaches bool

	// MaxCycles aborts runaway simulations; 0 means a large default.
	MaxCycles int64
}

// NumClusters is the machine's cluster count.
func (c Config) NumClusters() int { return len(c.Clusters) }

// Homogeneous reports whether every cluster has the same spec (the
// paper's machines; asymmetric machines return false).
func (c Config) Homogeneous() bool {
	for _, s := range c.Clusters[1:] {
		if s != c.Clusters[0] {
			return false
		}
	}
	return true
}

// IssueWeights returns each cluster's total issue width, the capacity
// weights the steering balancer normalizes DCOUNT by.
func (c Config) IssueWeights() []int {
	w := make([]int, len(c.Clusters))
	for i, s := range c.Clusters {
		w[i] = s.Width()
	}
	return w
}

// PhysRegsPerCluster returns each cluster's register-file size.
func (c Config) PhysRegsPerCluster() []int {
	r := make([]int, len(c.Clusters))
	for i, s := range c.Clusters {
		r[i] = s.PhysRegs
	}
	return r
}

// SpecString renders the machine's cluster specs in the
// ParseClusterSpecs grammar (repeats collapsed).
func (c Config) SpecString() string { return SpecsString(c.Clusters) }

// MaxClusters bounds the cluster count: steering and rename track
// cluster membership in uint32 bitmasks, so indexes >= 32 would be
// silently dropped from the masks rather than mis-simulated loudly.
const MaxClusters = 32

// MaxRenameCycles bounds the rename/steer stage depth. The paper
// evaluates 1 and 2 cycles (§3.3); a deeper stage only delays dispatch,
// and one deep enough never dispatches at all: with no instruction in
// the ROB the deadlock watchdog cannot fire, and the job spins until its
// whole cycle budget is spent.
const MaxRenameCycles = 64

// MaxLatency bounds CommLatency and every cluster's BypassLatency. The
// paper's latencies are a few cycles; one copy slower than the deadlock
// watchdog's window can only end a run in a deadlock error, after the
// whole window has been simulated.
const MaxLatency = 64

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	n := len(c.Clusters)
	if n < 1 {
		return fmt.Errorf("config %s: clusters must be >= 1", c.Name)
	}
	if n > MaxClusters {
		return fmt.Errorf("config %s: %d clusters exceed the supported maximum %d", c.Name, n, MaxClusters)
	}
	for i, cl := range c.Clusters {
		if err := cl.Validate(); err != nil {
			return fmt.Errorf("config %s: cluster %d: %w", c.Name, i, err)
		}
		// The rename scheme keeps at least one mapping per logical
		// register; the initial round-robin spread puts ceil(64/n)
		// registers in the low-index clusters and needs headroom on top.
		if perCluster := (64 + n - 1) / n; cl.PhysRegs < perCluster+8 {
			return fmt.Errorf("config %s: cluster %d: %d physical registers too few", c.Name, i, cl.PhysRegs)
		}
	}
	if c.FetchWidth < 1 || c.DecodeWidth < 1 || c.RetireWidth < 1 || c.ROBSize < 1 {
		return fmt.Errorf("config %s: pipeline widths must be positive", c.Name)
	}
	if c.RenameCycles < 1 || c.RenameCycles > MaxRenameCycles {
		return fmt.Errorf("config %s: rename cycles %d outside [1, %d]", c.Name, c.RenameCycles, MaxRenameCycles)
	}
	if err := c.Interconnect().Validate(); err != nil {
		return fmt.Errorf("config %s: %w", c.Name, err)
	}
	if c.CommLatency > MaxLatency {
		return fmt.Errorf("config %s: comm latency %d exceeds %d", c.Name, c.CommLatency, MaxLatency)
	}
	if c.DCachePorts < 1 {
		return fmt.Errorf("config %s: bad port counts", c.Name)
	}
	if (c.VP == VPStride || c.VP == VPTwoDelta) && (c.VPTableEntries <= 0 || c.VPTableEntries&(c.VPTableEntries-1) != 0) {
		return fmt.Errorf("config %s: VP table entries must be a power of two", c.Name)
	}
	// Only the stride and perfect predictors have an FP path; accepting
	// the flag elsewhere would change the fingerprint, not the result.
	if c.VPCoverFP && c.VP != VPStride && c.VP != VPPerfect {
		return fmt.Errorf("config %s: VPCoverFP needs VP stride or perfect, not %s", c.Name, c.VP)
	}
	return nil
}

// base is the Table 1 front end and knob defaults shared by every
// machine: presets and spec-built asymmetric configurations alike.
func base() Config {
	return Config{
		FetchWidth:     8,
		DecodeWidth:    8,
		RetireWidth:    8,
		ROBSize:        128,
		RenameCycles:   1,
		CommLatency:    1,
		CommPaths:      0,
		DCachePorts:    3,
		VP:             VPNone,
		VPTableEntries: 128 * 1024,
		Steering:       SteerBaseline,
	}
}

// repeatSpec builds n copies of one spec.
func repeatSpec(s ClusterSpec, n int) []ClusterSpec {
	specs := make([]ClusterSpec, n)
	for i := range specs {
		specs[i] = s
	}
	return specs
}

// Preset returns the paper's Table 1 configuration for 1, 2 or 4
// clusters — N copies of one ClusterSpec — with value prediction off,
// baseline steering, 1-cycle communication and unbounded bandwidth (the
// §3.1 starting point).
func Preset(clusters int) Config {
	c := base()
	switch clusters {
	case 1:
		c.Name = "1cluster"
		c.Clusters = repeatSpec(ClusterSpec{
			IQSize: 64, PhysRegs: 128, IssueInt: 8, IssueFP: 4,
			FUs: FUCount{IntALU: 8, IntMul: 4, FPALU: 4, FPMulDiv: 2},
		}, 1)
	case 2:
		c.Name = "2cluster"
		c.Clusters = repeatSpec(ClusterSpec{
			IQSize: 32, PhysRegs: 80, IssueInt: 4, IssueFP: 2,
			FUs: FUCount{IntALU: 4, IntMul: 2, FPALU: 2, FPMulDiv: 2},
		}, 2)
		c.BalanceThreshold = 16
		c.VPBThreshold = 8
	case 4:
		c.Name = "4cluster"
		c.Clusters = repeatSpec(ClusterSpec{
			IQSize: 16, PhysRegs: 56, IssueInt: 2, IssueFP: 1,
			FUs: FUCount{IntALU: 2, IntMul: 1, FPALU: 1, FPMulDiv: 1},
		}, 4)
		c.BalanceThreshold = 32
		c.VPBThreshold = 16
	default:
		panic(fmt.Sprintf("config: no Table 1 preset for %d clusters", clusters))
	}
	return c
}

// FromSpecs builds a machine from explicit cluster specs on the Table 1
// front end, with the steering thresholds scaled to the cluster count
// the way the paper scales them (8N balance, 4N VPB — matching the
// 32/16 and 16/8 values of the 4- and 2-cluster presets). The name is
// the spec string.
func FromSpecs(specs ...ClusterSpec) Config {
	return base().WithClusterSpecs(specs...)
}

// WithVP returns a copy with the given predictor enabled.
func (c Config) WithVP(kind VPKind) Config {
	c.VP = kind
	return c
}

// WithSteering returns a copy using the given steering scheme.
func (c Config) WithSteering(s SteeringKind) Config {
	c.Steering = s
	return c
}

// WithComm returns a copy with the given communication latency and
// per-cluster path count (0 = unbounded).
func (c Config) WithComm(latency, paths int) Config {
	c.CommLatency = latency
	c.CommPaths = paths
	return c
}

// WithTopology returns a copy using the given interconnect topology.
func (c Config) WithTopology(t interconnect.Kind) Config {
	c.Topology = t
	return c
}

// WithVPTable returns a copy with the given stride-table size.
func (c Config) WithVPTable(entries int) Config {
	c.VPTableEntries = entries
	return c
}

// WithClusterSpecs returns a copy whose clusters are exactly the given
// specs (cloned, so later mutation of the argument cannot alias the
// config). The steering thresholds are rescaled to 8N/4N and the name
// becomes the spec string; apply further With* builders on top.
func (c Config) WithClusterSpecs(specs ...ClusterSpec) Config {
	c.Clusters = append([]ClusterSpec(nil), specs...)
	n := len(specs)
	c.BalanceThreshold = 8 * n
	c.VPBThreshold = 4 * n
	c.Name = SpecsString(c.Clusters)
	return c
}

// WithAsymmetry returns a copy whose clusters are described by the
// compact spec string (see ParseClusterSpecs). It panics on a malformed
// spec, like Preset panics on an unknown cluster count; parse
// user-supplied strings with ParseClusterSpecs first.
func (c Config) WithAsymmetry(spec string) Config {
	specs, err := ParseClusterSpecs(spec)
	if err != nil {
		panic(err.Error())
	}
	return c.WithClusterSpecs(specs...)
}

// Interconnect derives the inter-cluster network configuration.
func (c Config) Interconnect() interconnect.Config {
	return interconnect.Config{
		Topology:        c.Topology,
		Clusters:        len(c.Clusters),
		PathsPerCluster: c.CommPaths,
		Latency:         c.CommLatency,
	}
}

// numSteerings/numVPs are sentinels for the parsers below; keep them in
// sync with the const blocks above.
const (
	numSteerings = int(SteerDepFIFO) + 1
	numVPs       = int(VPTwoDelta) + 1
)

// SteeringNames lists the selectable steering-scheme names.
func SteeringNames() []string {
	names := make([]string, numSteerings)
	for i := range names {
		names[i] = SteeringKind(i).String()
	}
	return names
}

// ParseSteering resolves a steering name (as printed by
// SteeringKind.String) to its kind; the error lists the valid names.
func ParseSteering(name string) (SteeringKind, error) {
	for i := 0; i < numSteerings; i++ {
		if SteeringKind(i).String() == name {
			return SteeringKind(i), nil
		}
	}
	return 0, fmt.Errorf("unknown steering %q (valid: %s)", name, strings.Join(SteeringNames(), ", "))
}

// VPNames lists the selectable value-predictor names.
func VPNames() []string {
	names := make([]string, numVPs)
	for i := range names {
		names[i] = VPKind(i).String()
	}
	return names
}

// ParseVP resolves a predictor name (as printed by VPKind.String) to its
// kind; the error lists the valid names.
func ParseVP(name string) (VPKind, error) {
	for i := 0; i < numVPs; i++ {
		if VPKind(i).String() == name {
			return VPKind(i), nil
		}
	}
	return 0, fmt.Errorf("unknown value predictor %q (valid: %s)", name, strings.Join(VPNames(), ", "))
}
