// Package clustervp is the public API of the reproduction of
// "Reducing Wire Delay Penalty through Value Prediction" (Parcerisa &
// González, MICRO-33, 2000).
//
// The package wraps the internal substrates — workload kernels, the
// trace-driven clustered out-of-order timing simulator, the stride value
// predictor, the steering heuristics and the pluggable interconnect
// topologies — behind three calls:
//
//	cfg := clustervp.Preset(4).WithVP(clustervp.VPStride).WithSteering(clustervp.SteerVPB)
//	res, err := clustervp.Run(cfg, "gsmdec", 1)
//	suite, err := clustervp.RunSuite(cfg, 1)
//
// The inter-cluster network is an experiment axis of its own: the
// default is the paper's bus fabric, and WithTopology selects the ring,
// crossbar or mesh extensions (see TopologyKind).
//
// Results carry IPC, communications per instruction, workload imbalance,
// per-topology transfer statistics and predictor accounting; see the
// stats re-exports below.
package clustervp

import (
	"io"

	"clustervp/internal/config"
	"clustervp/internal/core"
	"clustervp/internal/interconnect"
	"clustervp/internal/program"
	"clustervp/internal/runner"
	"clustervp/internal/stats"
	"clustervp/internal/trace"
	"clustervp/internal/workload"
)

// Config is the machine configuration (Table 1 presets plus knobs).
type Config = config.Config

// ClusterSpec sizes one cluster (issue widths, IQ, register file, FU
// inventory, register ports, bypass latency). Config.Clusters holds one
// spec per cluster, so machines may be heterogeneous; the paper's
// presets are N copies of one spec.
type ClusterSpec = config.ClusterSpec

// Results is the statistics record of one simulation run.
type Results = stats.Results

// ClusterStats is the per-cluster dispatch/issue/occupancy breakdown
// carried in Results.PerCluster.
type ClusterStats = stats.ClusterStats

// Steering scheme selectors (§3).
const (
	SteerBaseline = config.SteerBaseline
	SteerModified = config.SteerModified
	SteerVPB      = config.SteerVPB
)

// Value predictor selectors (§2.2; VPTwoDelta is the extension the
// paper's conclusion anticipates).
const (
	VPNone     = config.VPNone
	VPStride   = config.VPStride
	VPPerfect  = config.VPPerfect
	VPTwoDelta = config.VPTwoDelta
)

// Alternative steering baselines for the §5 related-work comparisons.
const (
	SteerRoundRobin = config.SteerRoundRobin
	SteerLoadOnly   = config.SteerLoadOnly
	SteerDepFIFO    = config.SteerDepFIFO
)

// TopologyKind selects the inter-cluster network model; use it with
// Config.WithTopology. TopoBus is the paper's N×B write-port bus fabric
// (§2.1, §4.2) and the default; ring, crossbar and mesh are extensions
// that model link and port contention (mesh requires >= 4 clusters).
type TopologyKind = interconnect.Kind

// Interconnect topology selectors.
const (
	TopoBus      = interconnect.KindBus
	TopoRing     = interconnect.KindRing
	TopoCrossbar = interconnect.KindCrossbar
	TopoMesh     = interconnect.KindMesh
)

// Topologies lists the selectable topology names ("bus", "ring",
// "crossbar", "mesh").
func Topologies() []string { return interconnect.KindNames() }

// ParseTopology resolves a topology name to its kind; the error lists
// the valid names.
func ParseTopology(name string) (TopologyKind, error) { return interconnect.ParseKind(name) }

// Steerings lists the selectable steering-scheme names.
func Steerings() []string { return config.SteeringNames() }

// ParseSteering resolves a steering name to its kind; the error lists
// the valid names.
func ParseSteering(name string) (config.SteeringKind, error) { return config.ParseSteering(name) }

// VPs lists the selectable value-predictor names.
func VPs() []string { return config.VPNames() }

// ParseVP resolves a value-predictor name to its kind; the error lists
// the valid names.
func ParseVP(name string) (config.VPKind, error) { return config.ParseVP(name) }

// Preset returns the paper's Table 1 machine for 1, 2 or 4 clusters.
func Preset(clusters int) Config { return config.Preset(clusters) }

// FromSpecs builds a (possibly heterogeneous) machine from explicit
// cluster specs on the Table 1 front end, with steering thresholds
// scaled to the cluster count.
func FromSpecs(specs ...ClusterSpec) Config { return config.FromSpecs(specs...) }

// ParseClusterSpecs parses the compact machine description grammar
// ("4w16q:2w8q:2w8q", with optional f/r/p/b overrides and xN repeats);
// the error spells out the grammar.
func ParseClusterSpecs(s string) ([]ClusterSpec, error) { return config.ParseClusterSpecs(s) }

// DefaultSpec derives a full cluster spec from an integer issue width
// and IQ size, the way the spec-string parser does.
func DefaultSpec(width, iq int) ClusterSpec { return config.DefaultSpec(width, iq) }

// Kernels lists the benchmark suite (Table 2 names).
func Kernels() []string { return workload.Names() }

// KernelInfo describes one benchmark.
type KernelInfo struct {
	Name        string
	Category    string
	Description string
	FPHeavy     bool
}

// KernelInfos returns suite metadata in Table 2 order.
func KernelInfos() []KernelInfo {
	ks := workload.All()
	out := make([]KernelInfo, len(ks))
	for i, k := range ks {
		out[i] = KernelInfo{Name: k.Name, Category: k.Category, Description: k.Description, FPHeavy: k.FPHeavy}
	}
	return out
}

// BuildKernel assembles a suite kernel at the given scale (exposed for
// custom experiments and the trace tools).
func BuildKernel(name string, scale int) (*program.Program, error) {
	return workload.Build(name, scale, 0)
}

// BuildKernelSeeded assembles a suite kernel with its pseudo-random
// input streams re-seeded (seed 0 selects the canonical inputs every
// published figure uses).
func BuildKernelSeeded(name string, scale int, seed uint64) (*program.Program, error) {
	return workload.Build(name, scale, seed)
}

// WriteKernelTrace functionally executes a kernel and streams its
// dynamic instruction trace into a .cvt file at path, returning the
// number of records written. The file replays through RunTraceFile,
// clustersim -trace-in or a grid Job's Trace field — all one engine
// path — producing results bit-identical to in-process synthesis.
func WriteKernelTrace(path, kernel string, scale int, seed uint64) (uint64, error) {
	prog, err := workload.Build(kernel, scale, seed)
	if err != nil {
		return 0, err
	}
	return trace.WriteFile(path, prog.Name, prog.Code, trace.NewExecutor(prog))
}

// RunTraceFile simulates a pre-recorded .cvt trace under cfg through
// the grid engine's replay path: the first replay of a distinct trace
// decodes it once into the process-wide trace arena, later replays run
// from that decoded form, and a trace past the arena's budget streams
// from its file through a Reader, one block at a time, so it never
// needs to fit in memory. Every path produces byte-identical Results.
func RunTraceFile(cfg Config, path string) (Results, error) {
	return runner.Simulate(runner.Job{Config: cfg, Trace: path})
}

// MaterializeTraces writes each distinct workload among the jobs to a
// shared .cvt file under dir (once per workload, reusing existing
// files) and returns the jobs rewritten to replay those traces; see
// the runner package for the exact naming scheme.
func MaterializeTraces(dir string, jobs []Job) ([]Job, error) {
	return runner.MaterializeTraces(dir, jobs)
}

// Run simulates one suite kernel under cfg at the given workload scale
// (1 = tens of thousands of dynamic instructions).
func Run(cfg Config, kernel string, scale int) (Results, error) {
	return runner.Simulate(runner.Job{Config: cfg, Kernel: kernel, Scale: scale})
}

// RunProgram simulates an arbitrary assembled program under cfg. The
// simulator instance is drawn from the process-wide pool; reuse is an
// allocation optimization only and results are identical to a cold
// construction.
func RunProgram(cfg Config, prog *program.Program) (Results, error) {
	sim, err := core.DefaultPool.Get(cfg, trace.NewExecutor(prog), prog.Name)
	if err != nil {
		return Results{}, err
	}
	defer core.DefaultPool.Put(sim)
	return sim.Run()
}

// Job is one grid point: a machine configuration applied to a suite
// kernel at a workload scale.
type Job = runner.Job

// JobResult pairs a grid job with its outcome; failed jobs carry a
// per-job error rather than aborting the whole grid.
type JobResult = runner.Result

// GridSpec declares a cross-product of configurations, kernels and
// scales; its Jobs method expands it in deterministic row-major order.
type GridSpec = runner.Grid

// Engine is the experiment-grid executor: a bounded worker pool with
// result memoization keyed by a canonical config+workload fingerprint,
// so a configuration shared by several grids (e.g. the centralized
// 1-cluster reference) is simulated exactly once per engine. Results
// are returned in job order regardless of completion order.
type Engine = runner.Engine

// NewEngine returns a grid engine bounded to the given number of
// concurrent simulations (<=0 means GOMAXPROCS). The memo persists
// across Run calls on the same engine.
func NewEngine(workers int) *Engine {
	return runner.New(runner.Options{Workers: workers})
}

// NewEngineWithProgress is NewEngine plus a per-executed-job progress
// stream (memo hits are silent); cmd/experiments points it at stderr.
func NewEngineWithProgress(workers int, progress io.Writer) *Engine {
	return runner.New(runner.Options{Workers: workers, Progress: progress})
}

// Record is the flattened, serialization-friendly form of one grid
// result (job identity, raw counters, derived metrics).
type Record = runner.Record

// ToRecord flattens one grid result for structured output.
func ToRecord(r JobResult) Record { return runner.ToRecord(r) }

// ExportResults writes grid results to path, choosing the format by
// extension: .csv means CSV, anything else JSON.
func ExportResults(path string, rs []JobResult) error { return runner.Export(path, rs) }

// FirstErr collapses grid results to the first per-job error, in grid
// order, or nil if every job succeeded.
func FirstErr(rs []JobResult) error { return runner.FirstErr(rs) }

// RunGrid executes the jobs on a fresh engine (GOMAXPROCS workers),
// deduplicating identical jobs, and returns results in job order. For
// memoization across several grids, create one Engine and call its Run
// method instead.
func RunGrid(jobs []Job) ([]JobResult, error) {
	rs := NewEngine(0).Run(jobs)
	return rs, FirstErr(rs)
}

// RunSuite simulates every Table 2 kernel under cfg (in parallel, via
// the grid engine) and returns per-kernel results in suite order.
func RunSuite(cfg Config, scale int) ([]Results, error) {
	rs, err := RunGrid(GridSpec{
		Configs: []Config{cfg},
		Kernels: Kernels(),
		Scales:  []int{scale},
	}.Jobs())
	if err != nil {
		return nil, err
	}
	out := make([]Results, len(rs))
	for i, r := range rs {
		out[i] = r.Res
	}
	return out, nil
}

// Aggregate folds per-kernel results into a suite summary whose IPC is
// the instruction-weighted suite IPC.
func Aggregate(name string, rs []Results) Results { return stats.Aggregate(name, rs) }

// IPCR is the paper's normalized N-cluster IPC ratio (§2.4).
func IPCR(clustered, centralized Results) float64 { return stats.IPCR(clustered, centralized) }
