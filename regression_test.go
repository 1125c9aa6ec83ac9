// Golden regression tests for the interconnect refactor: the Topology
// interface must leave the paper's bus model bit-for-bit identical.
package clustervp_test

import (
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"testing"

	"clustervp"
	"clustervp/internal/core"
	"clustervp/internal/trace"
)

// goldenRow is one (configuration, kernel) grid point with the exact
// counters captured on the pre-refactor simulator (the seed bus model,
// commit 84a8a6b), covering the full enum surface the eight figures
// sweep: 1/2/4 clusters, every predictor, the three paper steering
// schemes, latency 2/4, bounded bandwidth and a small VP table.
type goldenRow struct {
	config, kernel string

	cycles               int64
	instructions         uint64
	copies, verifyCopies uint64
	transfers, stalls    uint64
	reissues             uint64
}

// mkGolden maps the config labels used in the golden table to machine
// configurations. Every configuration leaves Topology at its zero value:
// the assertion is precisely that the default is still the paper's bus.
func mkGolden(label string) clustervp.Config {
	vpb := func(c clustervp.Config) clustervp.Config {
		return c.WithVP(clustervp.VPStride).WithSteering(clustervp.SteerVPB)
	}
	switch label {
	case "1c":
		return clustervp.Preset(1)
	case "1c+vp":
		return clustervp.Preset(1).WithVP(clustervp.VPStride)
	case "2c":
		return clustervp.Preset(2)
	case "2c+vp":
		return clustervp.Preset(2).WithVP(clustervp.VPStride)
	case "4c":
		return clustervp.Preset(4)
	case "4c+vp":
		return clustervp.Preset(4).WithVP(clustervp.VPStride)
	case "4c+vp+vpb":
		return vpb(clustervp.Preset(4))
	case "4c+perf+vpb":
		return clustervp.Preset(4).WithVP(clustervp.VPPerfect).WithSteering(clustervp.SteerVPB)
	case "4c+vp+mod":
		return clustervp.Preset(4).WithVP(clustervp.VPStride).WithSteering(clustervp.SteerModified)
	case "4c+vp+vpb+lat4":
		return vpb(clustervp.Preset(4)).WithComm(4, 0)
	case "4c+lat2":
		return clustervp.Preset(4).WithComm(2, 0)
	case "4c+vp+vpb+b1":
		return vpb(clustervp.Preset(4)).WithComm(1, 1)
	case "2c+b2":
		return clustervp.Preset(2).WithComm(1, 2)
	case "4c+2delta+vpb":
		return clustervp.Preset(4).WithVP(clustervp.VPTwoDelta).WithSteering(clustervp.SteerVPB)
	case "4c+vp+vpb+tab256":
		return vpb(clustervp.Preset(4)).WithVPTable(256)
	}
	panic("unknown golden config " + label)
}

// golden was captured by running every row's configuration on the
// pre-refactor simulator at scale 1. Do not regenerate it casually: a
// diff here means the default bus timing model changed, which breaks
// comparability of every previously published figure.
var golden = []goldenRow{
	{"1c", "gsmdec", 32076, 64011, 0, 0, 0, 0, 0},
	{"1c", "cjpeg", 8300, 37208, 0, 0, 0, 0, 0},
	{"1c", "mesaosdemo", 22291, 54608, 0, 0, 0, 0, 0},
	{"1c", "pgpenc", 37039, 21968, 0, 0, 0, 0, 0},
	{"1c+vp", "gsmdec", 31572, 64011, 0, 0, 0, 0, 6},
	{"1c+vp", "cjpeg", 7566, 37208, 0, 0, 0, 0, 3564},
	{"1c+vp", "mesaosdemo", 21994, 54608, 0, 0, 0, 0, 1},
	{"1c+vp", "pgpenc", 36952, 21968, 0, 0, 0, 0, 359},
	{"2c", "gsmdec", 35577, 64011, 9341, 0, 9341, 0, 0},
	{"2c", "cjpeg", 10170, 37208, 5749, 0, 5749, 0, 0},
	{"2c", "mesaosdemo", 22265, 54608, 8099, 0, 8099, 0, 0},
	{"2c", "pgpenc", 41491, 21968, 2055, 0, 2055, 0, 0},
	{"2c+vp", "gsmdec", 34048, 64011, 6510, 2499, 6521, 0, 46},
	{"2c+vp", "cjpeg", 9395, 37208, 3063, 4057, 3374, 0, 3241},
	{"2c+vp", "mesaosdemo", 21965, 54608, 8099, 0, 8099, 0, 1},
	{"2c+vp", "pgpenc", 39482, 21968, 2214, 372, 2388, 0, 359},
	{"4c", "gsmdec", 42575, 64011, 13086, 0, 13086, 0, 0},
	{"4c", "cjpeg", 14175, 37208, 13873, 0, 13873, 0, 0},
	{"4c", "mesaosdemo", 23216, 54608, 22642, 0, 22642, 0, 0},
	{"4c", "pgpenc", 55164, 21968, 3334, 0, 3334, 0, 0},
	{"4c+vp", "gsmdec", 40985, 64011, 10214, 13202, 10226, 0, 36},
	{"4c+vp", "cjpeg", 12826, 37208, 9781, 7697, 10115, 0, 2570},
	{"4c+vp", "mesaosdemo", 23417, 54608, 20641, 1580, 20642, 0, 1},
	{"4c+vp", "pgpenc", 59289, 21968, 2805, 1636, 2871, 0, 339},
	{"4c+vp+vpb", "gsmdec", 41927, 64011, 10239, 24457, 10252, 0, 39},
	{"4c+vp+vpb", "cjpeg", 12324, 37208, 8517, 10532, 10122, 0, 4309},
	{"4c+vp+vpb", "mesaosdemo", 22951, 54608, 17740, 5973, 17741, 0, 1},
	{"4c+vp+vpb", "pgpenc", 50532, 21968, 2141, 2231, 2415, 0, 359},
	{"4c+perf+vpb", "gsmdec", 25362, 64011, 0, 33598, 0, 0, 0},
	{"4c+perf+vpb", "cjpeg", 10061, 37208, 0, 20915, 0, 0, 0},
	{"4c+perf+vpb", "mesaosdemo", 23792, 54608, 14090, 12195, 14090, 0, 0},
	{"4c+perf+vpb", "pgpenc", 49165, 21968, 0, 12605, 0, 0, 0},
	{"4c+vp+mod", "gsmdec", 43795, 64011, 9064, 27104, 9076, 0, 34},
	{"4c+vp+mod", "cjpeg", 12750, 37208, 8199, 16636, 12658, 0, 6435},
	{"4c+vp+mod", "mesaosdemo", 23352, 54608, 16983, 9850, 16984, 0, 1},
	{"4c+vp+mod", "pgpenc", 60153, 21968, 2590, 2399, 2928, 0, 355},
	{"4c+vp+vpb+lat4", "gsmdec", 51512, 64011, 11009, 21449, 11023, 0, 46},
	{"4c+vp+vpb+lat4", "cjpeg", 13647, 37208, 8309, 10267, 10036, 0, 4700},
	{"4c+vp+vpb+lat4", "mesaosdemo", 24676, 54608, 17368, 6472, 17369, 0, 1},
	{"4c+vp+vpb+lat4", "pgpenc", 50617, 21968, 2132, 2255, 2405, 0, 359},
	{"4c+lat2", "gsmdec", 44098, 64011, 13086, 0, 13086, 0, 0},
	{"4c+lat2", "cjpeg", 14828, 37208, 13505, 0, 13505, 0, 0},
	{"4c+lat2", "mesaosdemo", 24057, 54608, 23778, 0, 23778, 0, 0},
	{"4c+lat2", "pgpenc", 56532, 21968, 3393, 0, 3393, 0, 0},
	{"4c+vp+vpb+b1", "gsmdec", 41928, 64011, 10239, 24457, 10252, 870, 39},
	{"4c+vp+vpb+b1", "cjpeg", 12311, 37208, 8555, 10503, 10094, 3289, 4307},
	{"4c+vp+vpb+b1", "mesaosdemo", 23373, 54608, 18344, 6401, 18345, 6594, 1},
	{"4c+vp+vpb+b1", "pgpenc", 50533, 21968, 2141, 2231, 2415, 8, 359},
	{"2c+b2", "gsmdec", 35577, 64011, 9341, 0, 9341, 0, 0},
	{"2c+b2", "cjpeg", 10203, 37208, 5684, 0, 5684, 366, 0},
	{"2c+b2", "mesaosdemo", 22265, 54608, 8099, 0, 8099, 0, 0},
	{"2c+b2", "pgpenc", 41491, 21968, 2055, 0, 2055, 62, 0},
	{"4c+2delta+vpb", "gsmdec", 41552, 64011, 10148, 25431, 10153, 0, 16},
	{"4c+2delta+vpb", "cjpeg", 11494, 37208, 7016, 11629, 8389, 0, 3716},
	{"4c+2delta+vpb", "mesaosdemo", 23275, 54608, 16590, 7734, 18468, 0, 4475},
	{"4c+2delta+vpb", "pgpenc", 66930, 21968, 1938, 2626, 2388, 0, 539},
	{"4c+vp+vpb+tab256", "gsmdec", 41927, 64011, 10239, 24457, 10252, 0, 39},
	{"4c+vp+vpb+tab256", "cjpeg", 12324, 37208, 8517, 10532, 10122, 0, 4309},
	{"4c+vp+vpb+tab256", "mesaosdemo", 22951, 54608, 17740, 5973, 17741, 0, 1},
	{"4c+vp+vpb+tab256", "pgpenc", 50532, 21968, 2141, 2231, 2415, 0, 359},
}

// TestBusTopologyMatchesSeedGolden runs every golden grid point on the
// refactored simulator (default bus topology, and the same topology
// selected explicitly) and requires every counter to match the
// pre-refactor capture exactly.
func TestBusTopologyMatchesSeedGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("60-point golden grid in -short mode")
	}
	// One engine: rows sharing a fingerprint (e.g. the tab256 rows, whose
	// table is larger than any kernel's working set) simulate once.
	eng := clustervp.NewEngine(0)
	jobs := make([]clustervp.Job, 0, 2*len(golden))
	for _, g := range golden {
		jobs = append(jobs, clustervp.Job{Config: mkGolden(g.config), Kernel: g.kernel, Scale: 1})
	}
	// Explicit TopoBus must be the same machine as the default.
	for _, g := range golden {
		jobs = append(jobs, clustervp.Job{
			Config: mkGolden(g.config).WithTopology(clustervp.TopoBus), Kernel: g.kernel, Scale: 1,
		})
	}
	rs := eng.Run(jobs)
	if err := clustervp.FirstErr(rs); err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		for i, g := range golden {
			r := rs[pass*len(golden)+i].Res
			if r.Cycles != g.cycles || r.Instructions != g.instructions ||
				r.Copies != g.copies || r.VerifyCopies != g.verifyCopies ||
				r.BusTransfers != g.transfers || r.BusStalls != g.stalls ||
				r.Reissues != g.reissues {
				t.Errorf("%s/%s (pass %d): got cycles=%d instrs=%d copies=%d vcs=%d transfers=%d stalls=%d reissues=%d, want %+v",
					g.config, g.kernel, pass, r.Cycles, r.Instructions, r.Copies, r.VerifyCopies,
					r.BusTransfers, r.BusStalls, r.Reissues, g)
			}
			if r.Topology != "bus" {
				t.Errorf("%s/%s: topology = %q, want bus", g.config, g.kernel, r.Topology)
			}
		}
	}
}

// TestNonBusTopologiesRunEndToEnd drives each extension topology through
// the public API on one kernel and checks the invariants that hold
// regardless of timing: exact committed instruction count and a hop
// histogram consistent with the fabric.
func TestNonBusTopologiesRunEndToEnd(t *testing.T) {
	want, err := clustervp.Run(clustervp.Preset(4), "cjpeg", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, topo := range []clustervp.TopologyKind{
		clustervp.TopoRing, clustervp.TopoCrossbar, clustervp.TopoMesh,
	} {
		cfg := clustervp.Preset(4).WithComm(1, 1).WithTopology(topo).
			WithVP(clustervp.VPStride).WithSteering(clustervp.SteerVPB)
		r, err := clustervp.Run(cfg, "cjpeg", 1)
		if err != nil {
			t.Fatalf("%v: %v", topo, err)
		}
		if r.Instructions != want.Instructions {
			t.Errorf("%v: committed %d, want %d", topo, r.Instructions, want.Instructions)
		}
		if r.Topology != topo.String() {
			t.Errorf("%v: results topology = %q", topo, r.Topology)
		}
		maxHops := 1
		if topo == clustervp.TopoRing {
			maxHops = 3 // 4-cluster unidirectional ring
		}
		if topo == clustervp.TopoMesh {
			maxHops = 2 // 2x2 grid
		}
		for h, n := range r.HopHistogram {
			if n > 0 && (h < 1 || h > maxHops) {
				t.Errorf("%v: %d transfers at impossible hop count %d", topo, n, h)
			}
		}
	}
}

// TestTraceRoundTripGolden is the trace-subsystem golden grid: every
// workload kernel, at two scales, is encoded to a .cvt file, decoded,
// and replayed through the timing simulator — and the replay must
// produce byte-identical stats.Results to the in-process generator.
// Any divergence means the container dropped or distorted information
// the timing model observes, which would silently invalidate every
// trace-driven experiment.
func TestTraceRoundTripGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite trace round trip in -short mode")
	}
	cfg := clustervp.Preset(2).WithVP(clustervp.VPStride)
	dir := t.TempDir()
	for _, kernel := range clustervp.Kernels() {
		for _, scale := range []int{1, 2} {
			prog, err := clustervp.BuildKernel(kernel, scale)
			if err != nil {
				t.Fatal(err)
			}
			want, err := clustervp.RunProgram(cfg, prog)
			if err != nil {
				t.Fatalf("%s@%d in-process: %v", kernel, scale, err)
			}
			path := filepath.Join(dir, fmt.Sprintf("%s-%d.cvt", kernel, scale))
			if _, err := clustervp.WriteKernelTrace(path, kernel, scale, 0); err != nil {
				t.Fatalf("%s@%d encode: %v", kernel, scale, err)
			}
			got, err := clustervp.RunTraceFile(cfg, path)
			if err != nil {
				t.Fatalf("%s@%d replay: %v", kernel, scale, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s@%d: trace replay diverged from in-process run:\n got %+v\nwant %+v",
					kernel, scale, got, want)
			}
		}
	}
}

// TestReplayModesArenaAndPipelinedGolden extends the trace golden grid
// across the replay data paths: for every workload kernel at two
// scales, the in-memory cursor (the arena form), the pipelined
// (decode-ahead) reader and clustervp.RunTraceFile (the engine's
// arena-then-stream path) must each produce byte-identical
// stats.Results to a cold Sim over the synchronous streaming Reader.
// The reference is built here and shares no pool, arena or decoding
// state with the paths under test, so agreement means the in-memory
// re-encoding and the batch handoff both preserve every field the
// timing model observes.
func TestReplayModesArenaAndPipelinedGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite replay-mode grid in -short mode")
	}
	cfg := clustervp.Preset(2).WithVP(clustervp.VPStride)
	dir := t.TempDir()
	// replay simulates cfg on a fresh Sim over the source wrap builds
	// from the file's Reader, closing that source first if it is closable.
	replay := func(path string, wrap func(*trace.Reader) (trace.Source, error)) (clustervp.Results, error) {
		fr, err := trace.OpenFile(path)
		if err != nil {
			return clustervp.Results{}, err
		}
		defer fr.Close()
		src, err := wrap(fr.Reader)
		if err != nil {
			return clustervp.Results{}, err
		}
		if c, ok := src.(io.Closer); ok {
			defer c.Close()
		}
		sim, err := core.NewFromSource(cfg, src, fr.Name())
		if err != nil {
			return clustervp.Results{}, err
		}
		return sim.Run()
	}
	reader := func(r *trace.Reader) (trace.Source, error) { return r, nil }
	cursor := func(r *trace.Reader) (trace.Source, error) {
		mt, err := trace.ReadMem(r)
		if err != nil {
			return nil, err
		}
		return mt.NewCursor(), nil
	}
	pipelined := func(r *trace.Reader) (trace.Source, error) { return trace.NewPipelined(r), nil }
	for _, kernel := range clustervp.Kernels() {
		for _, scale := range []int{1, 2} {
			path := filepath.Join(dir, fmt.Sprintf("%s-%d.cvt", kernel, scale))
			if _, err := clustervp.WriteKernelTrace(path, kernel, scale, 0); err != nil {
				t.Fatalf("%s@%d encode: %v", kernel, scale, err)
			}
			want, err := replay(path, reader)
			if err != nil {
				t.Fatalf("%s@%d streaming replay: %v", kernel, scale, err)
			}
			modes := []struct {
				name string
				run  func() (clustervp.Results, error)
			}{
				{"in-memory", func() (clustervp.Results, error) { return replay(path, cursor) }},
				{"pipelined", func() (clustervp.Results, error) { return replay(path, pipelined) }},
				{"RunTraceFile", func() (clustervp.Results, error) { return clustervp.RunTraceFile(cfg, path) }},
			}
			for _, m := range modes {
				got, err := m.run()
				if err != nil {
					t.Fatalf("%s@%d %s replay: %v", kernel, scale, m.name, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s@%d: %s replay diverged from streaming Reader:\n got %+v\nwant %+v",
						kernel, scale, m.name, got, want)
				}
			}
		}
	}
}

// TestSeededTraceDiffers guards the -seed plumbing end to end: a
// re-seeded kernel must produce a different value stream (different
// predictor behaviour) while seed 0 reproduces the canonical one
// exactly.
func TestSeededTraceDiffers(t *testing.T) {
	cfg := clustervp.Preset(2).WithVP(clustervp.VPStride)
	dir := t.TempDir()
	runSeed := func(seed uint64) clustervp.Results {
		path := filepath.Join(dir, fmt.Sprintf("seed-%d.cvt", seed))
		if _, err := clustervp.WriteKernelTrace(path, "cjpeg", 1, seed); err != nil {
			t.Fatal(err)
		}
		r, err := clustervp.RunTraceFile(cfg, path)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	canonical := runSeed(0)
	prog, err := clustervp.BuildKernel("cjpeg", 1)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := clustervp.RunProgram(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(canonical, direct) {
		t.Error("seed 0 trace does not reproduce the canonical run")
	}
	seeded := runSeed(12345)
	if seeded.Instructions == 0 {
		t.Fatal("seeded run committed nothing")
	}
	if reflect.DeepEqual(seeded.VP, canonical.VP) && seeded.Cycles == canonical.Cycles {
		t.Error("seed 12345 produced a run indistinguishable from canonical; seeding is not reaching the input data")
	}
}
