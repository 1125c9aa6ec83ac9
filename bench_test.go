// Benchmarks regenerating each table and figure of the paper's
// evaluation. Every benchmark runs the full machine simulation and
// reports the figure's metric through b.ReportMetric (IPC, IPCR,
// communications per instruction, predictor accuracy), so
//
//	go test -bench=. -benchmem
//
// prints the same series the paper plots. cmd/experiments prints the
// full per-benchmark tables; these benches use a representative kernel
// subset per figure to keep runtimes reasonable.
package clustervp_test

import (
	"path/filepath"
	"runtime"
	"testing"

	"clustervp"
	"clustervp/internal/config"
	"clustervp/internal/core"
	"clustervp/internal/trace"
	"clustervp/internal/workload"
)

// benchKernels is a representative cross-section of Table 2: integer
// image code, serial audio code, branchy video code and FP geometry.
var benchKernels = []string{"cjpeg", "gsmdec", "mpeg2enc", "mesaosdemo"}

func runSuiteOn(b *testing.B, cfg clustervp.Config, kernels []string) clustervp.Results {
	b.Helper()
	rs := make([]clustervp.Results, 0, len(kernels))
	for _, k := range kernels {
		r, err := clustervp.Run(cfg, k, 1)
		if err != nil {
			b.Fatal(err)
		}
		rs = append(rs, r)
	}
	return clustervp.Aggregate(cfg.Name, rs)
}

// BenchmarkFig2IPC regenerates Figure 2: IPC for 1/2/4 clusters with and
// without the stride value predictor under baseline steering.
func BenchmarkFig2IPC(b *testing.B) {
	for _, n := range []int{1, 2, 4} {
		for _, vp := range []bool{false, true} {
			name := map[bool]string{false: "nopredict", true: "predict"}[vp]
			b.Run(map[int]string{1: "1cluster", 2: "2cluster", 4: "4cluster"}[n]+"/"+name, func(b *testing.B) {
				cfg := clustervp.Preset(n)
				if vp {
					cfg = cfg.WithVP(clustervp.VPStride)
				}
				var agg clustervp.Results
				for i := 0; i < b.N; i++ {
					agg = runSuiteOn(b, cfg, benchKernels)
				}
				b.ReportMetric(agg.IPC(), "IPC")
				b.ReportMetric(float64(agg.Cycles)/float64(b.N), "cycles/run")
			})
		}
	}
}

// BenchmarkFig3Schemes regenerates Figure 3: imbalance, communications
// per instruction and IPCR for the four configurations on 4 clusters.
func BenchmarkFig3Schemes(b *testing.B) {
	cases := []struct {
		name string
		cfg  clustervp.Config
		ref  clustervp.Config
	}{
		{"Baseline-nopredict", clustervp.Preset(4), clustervp.Preset(1)},
		{"Baseline-predict", clustervp.Preset(4).WithVP(clustervp.VPStride), clustervp.Preset(1).WithVP(clustervp.VPStride)},
		{"VPB-predict", clustervp.Preset(4).WithVP(clustervp.VPStride).WithSteering(clustervp.SteerVPB),
			clustervp.Preset(1).WithVP(clustervp.VPStride)},
		{"VPB-perfect", clustervp.Preset(4).WithVP(clustervp.VPPerfect).WithSteering(clustervp.SteerVPB),
			clustervp.Preset(1).WithVP(clustervp.VPPerfect)},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var agg, ref clustervp.Results
			for i := 0; i < b.N; i++ {
				agg = runSuiteOn(b, c.cfg, benchKernels)
				ref = runSuiteOn(b, c.ref, benchKernels)
			}
			b.ReportMetric(agg.Imbalance(), "imbalance")
			b.ReportMetric(agg.CommPerInstr(), "comm/instr")
			b.ReportMetric(clustervp.IPCR(agg, ref), "IPCR")
		})
	}
}

// BenchmarkFig4aLatency regenerates Figure 4(a): IPC vs. inter-cluster
// communication latency on the 4-cluster machine.
func BenchmarkFig4aLatency(b *testing.B) {
	for _, lat := range []int{1, 2, 4} {
		for _, vp := range []bool{true, false} {
			name := map[bool]string{false: "nopredict", true: "predict"}[vp]
			b.Run(name+"/lat"+string(rune('0'+lat)), func(b *testing.B) {
				cfg := clustervp.Preset(4).WithComm(lat, 0)
				if vp {
					cfg = cfg.WithVP(clustervp.VPStride).WithSteering(clustervp.SteerVPB)
				}
				var agg clustervp.Results
				for i := 0; i < b.N; i++ {
					agg = runSuiteOn(b, cfg, benchKernels)
				}
				b.ReportMetric(agg.IPC(), "IPC")
			})
		}
	}
}

// BenchmarkFig4bBandwidth regenerates Figure 4(b): IPC vs. paths per
// cluster (1, 2, unbounded).
func BenchmarkFig4bBandwidth(b *testing.B) {
	for _, c := range []struct {
		name  string
		paths int
	}{{"B1", 1}, {"B2", 2}, {"unbounded", 0}} {
		b.Run(c.name, func(b *testing.B) {
			cfg := clustervp.Preset(4).WithComm(1, c.paths).WithVP(clustervp.VPStride).WithSteering(clustervp.SteerVPB)
			var agg clustervp.Results
			for i := 0; i < b.N; i++ {
				agg = runSuiteOn(b, cfg, benchKernels)
			}
			b.ReportMetric(agg.IPC(), "IPC")
			b.ReportMetric(float64(agg.BusStalls)/float64(b.N), "bus-stalls/run")
		})
	}
}

// BenchmarkFig5TableSize regenerates Figure 5: IPC and predictor
// accuracy vs. stride-table size (footprint-scaled sweep; DESIGN.md §3).
func BenchmarkFig5TableSize(b *testing.B) {
	for _, c := range []struct {
		name    string
		entries int
	}{{"16", 16}, {"256", 256}, {"1K", 1024}, {"128K", 128 * 1024}} {
		b.Run(c.name, func(b *testing.B) {
			cfg := clustervp.Preset(4).WithVP(clustervp.VPStride).WithSteering(clustervp.SteerVPB).WithVPTable(c.entries)
			var agg clustervp.Results
			for i := 0; i < b.N; i++ {
				agg = runSuiteOn(b, cfg, benchKernels)
			}
			b.ReportMetric(agg.IPC(), "IPC")
			b.ReportMetric(agg.VP.HitRatio(), "hit-ratio")
			b.ReportMetric(agg.VP.ConfidentFraction(), "confident")
		})
	}
}

// BenchmarkRename2Cycle regenerates the §3.3 experiment: rename/steer
// stage depth 1 vs. 2 on the 4-cluster VPB machine.
func BenchmarkRename2Cycle(b *testing.B) {
	for _, depth := range []int{1, 2} {
		b.Run(map[int]string{1: "rename1", 2: "rename2"}[depth], func(b *testing.B) {
			cfg := clustervp.Preset(4).WithVP(clustervp.VPStride).WithSteering(clustervp.SteerVPB)
			cfg.RenameCycles = depth
			var agg clustervp.Results
			for i := 0; i < b.N; i++ {
				agg = runSuiteOn(b, cfg, benchKernels)
			}
			b.ReportMetric(agg.IPC(), "IPC")
		})
	}
}

// BenchmarkModifiedSteering regenerates the §3.2 observation: both
// steering modifications applied unconditionally vs. baseline vs. VPB.
func BenchmarkModifiedSteering(b *testing.B) {
	for _, c := range []struct {
		name string
		k    func(clustervp.Config) clustervp.Config
	}{
		{"baseline", func(c clustervp.Config) clustervp.Config { return c }},
		{"modified", func(c clustervp.Config) clustervp.Config { return c.WithSteering(clustervp.SteerModified) }},
		{"vpb", func(c clustervp.Config) clustervp.Config { return c.WithSteering(clustervp.SteerVPB) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			cfg := c.k(clustervp.Preset(4).WithVP(clustervp.VPStride))
			var agg clustervp.Results
			for i := 0; i < b.N; i++ {
				agg = runSuiteOn(b, cfg, benchKernels)
			}
			b.ReportMetric(agg.IPC(), "IPC")
			b.ReportMetric(agg.CommPerInstr(), "comm/instr")
			b.ReportMetric(agg.Imbalance(), "imbalance")
		})
	}
}

// BenchmarkAblationNoVerifyCopy measures the design alternative DESIGN.md
// calls out: predict-but-always-copy, approximated by the baseline
// steering with prediction (verification-copies still dispatched) versus
// no prediction — isolating how much of the win comes from eliminated
// transfers rather than steering freedom.
func BenchmarkAblationNoVerifyCopy(b *testing.B) {
	for _, c := range []struct {
		name string
		cfg  clustervp.Config
	}{
		{"nopredict", clustervp.Preset(4)},
		{"predict-baseline-steer", clustervp.Preset(4).WithVP(clustervp.VPStride)},
	} {
		b.Run(c.name, func(b *testing.B) {
			var agg clustervp.Results
			for i := 0; i < b.N; i++ {
				agg = runSuiteOn(b, c.cfg, benchKernels)
			}
			b.ReportMetric(agg.CommPerInstr(), "comm/instr")
			b.ReportMetric(agg.IPC(), "IPC")
		})
	}
}

// BenchmarkSimulatorThroughput measures raw simulator speed (simulated
// instructions per wall second) on the centralized machine, a sanity
// reference for planning larger sweeps.
func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg := clustervp.Preset(1)
	var insts uint64
	for i := 0; i < b.N; i++ {
		r, err := clustervp.Run(cfg, "gsmenc", 1)
		if err != nil {
			b.Fatal(err)
		}
		insts += r.Instructions
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "sim-instrs/s")
}

// BenchmarkCalibration is a fixed pure-integer workload used by the CI
// perf gate as a machine-speed probe: cmd/benchexport divides every
// ns/op by this benchmark's ns/op on the same machine before comparing
// against the checked-in baseline, so the gate measures the simulator's
// shape rather than the runner's absolute speed.
func BenchmarkCalibration(b *testing.B) {
	var acc uint64 = 0x9E3779B97F4A7C15
	for i := 0; i < b.N; i++ {
		for j := 0; j < 1024; j++ {
			acc ^= acc << 13
			acc ^= acc >> 7
			acc ^= acc << 17
		}
	}
	if acc == 0 {
		b.Fatal("unreachable; defeats dead-code elimination")
	}
}

// tracedGrid materializes the 12-job trace-replay grid (3 kernels x 4
// machines) and runs it once, so the shared trace arena and Sim pool
// are warm and a later run measures the steady-state cold-job path
// rather than first-touch decoding.
func tracedGrid(tb testing.TB) []clustervp.Job {
	tb.Helper()
	dir := tb.TempDir()
	cfgs := []clustervp.Config{
		clustervp.Preset(1),
		clustervp.Preset(2),
		clustervp.Preset(4),
		clustervp.Preset(4).WithVP(clustervp.VPStride).WithSteering(clustervp.SteerVPB),
	}
	var jobs []clustervp.Job
	for _, c := range cfgs {
		for _, k := range []string{"cjpeg", "gsmdec", "rawcaudio"} {
			jobs = append(jobs, clustervp.Job{Config: c, Kernel: k, Scale: 1})
		}
	}
	traced, err := clustervp.MaterializeTraces(dir, jobs)
	if err != nil {
		tb.Fatal(err)
	}
	if err := clustervp.FirstErr(clustervp.NewEngine(0).Run(traced)); err != nil {
		tb.Fatal(err)
	}
	return traced
}

// BenchmarkGridThroughput measures the cold-job grid path end to end:
// the traced grid through a fresh Engine every iteration, so result
// memoization never fires and every job pays simulator construction
// (via the Sim pool) and trace decode (via the shared arena). The
// allocs/job metric counts every allocation in the timed region —
// workers, scheduling and simulation — divided by jobs run;
// TestColdGridAllocsPerJob bounds it.
func BenchmarkGridThroughput(b *testing.B) {
	traced := tracedGrid(b)
	var insts uint64
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs := clustervp.NewEngine(0).Run(traced)
		for _, r := range rs {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
			insts += r.Res.Instructions
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	jobsRun := float64(b.N * len(traced))
	b.ReportMetric(jobsRun/b.Elapsed().Seconds(), "jobs/s")
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "sim-instrs/s")
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/jobsRun, "allocs/job")
}

// BenchmarkSimReset isolates the Sim.Reset lifecycle — the cost a
// pooled simulator pays per job instead of full construction: rewinding
// the ROB ring, rename tables, scheduler bitmaps, caches and stats in
// place.
func BenchmarkSimReset(b *testing.B) {
	cfg := config.Preset(4).WithVP(config.VPStride).WithSteering(config.SteerVPB)
	prog, err := workload.Build("rawcaudio", 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	src := trace.NewExecutor(prog)
	s, err := core.NewFromSource(cfg, src, prog.Name)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Reset(cfg, src, prog.Name); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceReplayThroughput measures simulated instructions per
// wall second when the stream comes from a .cvt file instead of the
// in-process functional executor — the trace subsystem's headline
// number, directly comparable to BenchmarkSimulatorThroughput.
func BenchmarkTraceReplayThroughput(b *testing.B) {
	path := filepath.Join(b.TempDir(), "gsmenc.cvt")
	if _, err := clustervp.WriteKernelTrace(path, "gsmenc", 1, 0); err != nil {
		b.Fatal(err)
	}
	cfg := clustervp.Preset(1)
	var insts uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := clustervp.RunTraceFile(cfg, path)
		if err != nil {
			b.Fatal(err)
		}
		insts += r.Instructions
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "sim-instrs/s")
}
