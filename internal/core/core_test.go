package core

import (
	"testing"

	"clustervp/internal/config"
	"clustervp/internal/isa"
	"clustervp/internal/program"
	"clustervp/internal/stats"
	"clustervp/internal/trace"
	"clustervp/internal/workload"
)

// run simulates prog under cfg and fails the test on error.
func run(t *testing.T, cfg config.Config, prog *program.Program) stats.Results {
	t.Helper()
	s, err := New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatalf("%s/%s: %v", cfg.Name, prog.Name, err)
	}
	return r
}

func straightLine(n int) *program.Program {
	b := program.NewBuilder("straight")
	b.Li(isa.R1, 1)
	for i := 0; i < n; i++ {
		b.I(isa.ADDI, isa.R2, isa.R1, int64(i))
	}
	b.Halt()
	return b.MustBuild()
}

func chain(n int) *program.Program {
	// A serial dependence chain: IPC must approach 1 regardless of width.
	b := program.NewBuilder("chain")
	b.Li(isa.R1, 0)
	for i := 0; i < n; i++ {
		b.I(isa.ADDI, isa.R1, isa.R1, 1)
	}
	b.Halt()
	return b.MustBuild()
}

func loopSum(n int64) *program.Program {
	b := program.NewBuilder("loopsum")
	b.Li(isa.R1, 0)
	b.Li(isa.R2, 0)
	b.Li(isa.R3, n)
	b.Label("loop")
	b.R(isa.ADD, isa.R1, isa.R1, isa.R2)
	b.I(isa.ADDI, isa.R2, isa.R2, 1)
	b.Br(isa.BLT, isa.R2, isa.R3, "loop")
	b.Store(isa.SW, isa.R1, isa.R0, 0)
	b.Halt()
	return b.MustBuild()
}

// perfectCache returns cfg with ideal caches, for microbenchmark tests
// whose straight-line code would otherwise be dominated by compulsory
// I-cache misses (real workloads loop; these probes do not).
func perfectCache(cfg config.Config) config.Config {
	cfg.PerfectCaches = true
	return cfg
}

func TestStraightLineCompletes(t *testing.T) {
	r := run(t, perfectCache(config.Preset(1)), straightLine(500))
	if r.Instructions != 501 { // HALT is not traced
		t.Errorf("instructions = %d, want 501", r.Instructions)
	}
	if r.IPC() < 2.0 {
		t.Errorf("independent straight-line IPC = %.2f, expected > 2", r.IPC())
	}
}

func TestSerialChainIPCNearOne(t *testing.T) {
	r := run(t, perfectCache(config.Preset(1)), chain(2000))
	if ipc := r.IPC(); ipc > 1.1 {
		t.Errorf("serial chain IPC = %.2f, cannot exceed ~1", ipc)
	}
	if ipc := r.IPC(); ipc < 0.8 {
		t.Errorf("serial chain IPC = %.2f, suspiciously low", ipc)
	}
}

func TestLoopCompletesAllClusterCounts(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		r := run(t, config.Preset(n), loopSum(500))
		if r.Instructions != 3+500*3+1 {
			t.Errorf("%d clusters: instructions = %d", n, r.Instructions)
		}
	}
}

func TestClusteringDegradesIPC(t *testing.T) {
	if testing.Short() {
		t.Skip("three-config simulation in -short mode")
	}
	// The fundamental result the whole paper builds on: clustered IPC is
	// below centralized IPC (communication + narrower per-cluster issue).
	k, _ := workload.ByName("gsmenc")
	p := k.Build(1, 0)
	ipc1 := run(t, config.Preset(1), p).IPC()
	ipc2 := run(t, config.Preset(2), k.Build(1, 0)).IPC()
	ipc4 := run(t, config.Preset(4), k.Build(1, 0)).IPC()
	if !(ipc1 > ipc2 && ipc2 > ipc4) {
		t.Errorf("expected IPC1 > IPC2 > IPC4, got %.3f / %.3f / %.3f", ipc1, ipc2, ipc4)
	}
	if ipc4 <= 0 {
		t.Fatal("4-cluster run produced no progress")
	}
}

func TestCommunicationOnlyWhenClustered(t *testing.T) {
	k, _ := workload.ByName("cjpeg")
	r1 := run(t, config.Preset(1), k.Build(1, 0))
	if r1.Copies != 0 || r1.BusTransfers != 0 {
		t.Errorf("centralized machine must not communicate: %d copies, %d transfers", r1.Copies, r1.BusTransfers)
	}
	r4 := run(t, config.Preset(4), k.Build(1, 0))
	if r4.Copies == 0 || r4.BusTransfers == 0 {
		t.Error("4-cluster machine must generate copies")
	}
	if r4.CommPerInstr() <= 0 || r4.CommPerInstr() > 1.5 {
		t.Errorf("comm/instr = %.3f out of plausible range", r4.CommPerInstr())
	}
}

func TestValuePredictionReducesCommunication(t *testing.T) {
	// The paper's central claim (Figure 3b): with the stride predictor
	// and VPB steering, communications drop substantially.
	k, _ := workload.ByName("gsmdec")
	base := run(t, config.Preset(4), k.Build(1, 0))
	vp := run(t, config.Preset(4).WithVP(config.VPStride).WithSteering(config.SteerVPB), k.Build(1, 0))
	if vp.CommPerInstr() >= base.CommPerInstr() {
		t.Errorf("VP should cut communication: base %.4f, vp %.4f", base.CommPerInstr(), vp.CommPerInstr())
	}
	if vp.PredictedOperandsUsed == 0 {
		t.Error("stride predictor never used")
	}
}

func TestValuePredictionHelpsClusteredIPC(t *testing.T) {
	k, _ := workload.ByName("gsmdec")
	base := run(t, config.Preset(4), k.Build(1, 0))
	vp := run(t, config.Preset(4).WithVP(config.VPStride).WithSteering(config.SteerVPB), k.Build(1, 0))
	if vp.IPC() <= base.IPC() {
		t.Errorf("VP should raise 4-cluster IPC on a serial kernel: base %.3f, vp %.3f", base.IPC(), vp.IPC())
	}
}

func TestPerfectPredictionUpperBound(t *testing.T) {
	k, _ := workload.ByName("cjpeg")
	vp := run(t, config.Preset(4).WithVP(config.VPStride).WithSteering(config.SteerVPB), k.Build(1, 0))
	perfect := run(t, config.Preset(4).WithVP(config.VPPerfect).WithSteering(config.SteerVPB), k.Build(1, 0))
	if perfect.IPC() < vp.IPC()*0.98 {
		t.Errorf("perfect prediction (%.3f) must not lose to stride (%.3f)", perfect.IPC(), vp.IPC())
	}
	if perfect.Reissues != 0 {
		t.Errorf("perfect prediction must never reissue, got %d", perfect.Reissues)
	}
}

func TestMispredictionsRecoverCorrectly(t *testing.T) {
	// pgpenc has erratic values: the stride predictor will mispredict;
	// the run must still complete with the exact instruction count.
	k, _ := workload.ByName("pgpenc")
	e := trace.NewExecutor(k.Build(1, 0))
	want, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	r := run(t, config.Preset(4).WithVP(config.VPStride).WithSteering(config.SteerVPB), k.Build(1, 0))
	if r.Instructions != want {
		t.Errorf("committed %d, functional count %d", r.Instructions, want)
	}
	if r.PredictedOperandsWrong == 0 {
		t.Log("note: no mispredictions on pgpenc (unexpected but not fatal)")
	}
	if r.PredictedOperandsWrong > 0 && r.Reissues == 0 {
		t.Error("mispredictions without reissues")
	}
}

func TestLatencySensitivity(t *testing.T) {
	// Figure 4a: IPC must fall as communication latency grows.
	k, _ := workload.ByName("epicenc")
	var prev float64
	for i, lat := range []int{1, 2, 4} {
		r := run(t, config.Preset(4).WithComm(lat, 0), k.Build(1, 0))
		if i > 0 && r.IPC() > prev*1.005 {
			t.Errorf("latency %d: IPC %.3f should not exceed latency %d IPC %.3f", lat, r.IPC(), lat/2, prev)
		}
		prev = r.IPC()
	}
}

func TestBandwidthLimitSmallEffect(t *testing.T) {
	// Figure 4b: one path per cluster costs only a few percent.
	k, _ := workload.ByName("djpeg")
	unb := run(t, config.Preset(4), k.Build(1, 0))
	one := run(t, config.Preset(4).WithComm(1, 1), k.Build(1, 0))
	if one.IPC() > unb.IPC()*1.001 {
		t.Errorf("limited bandwidth cannot beat unbounded: %.3f vs %.3f", one.IPC(), unb.IPC())
	}
	if one.IPC() < unb.IPC()*0.80 {
		t.Errorf("single path per cluster should cost little: %.3f vs %.3f", one.IPC(), unb.IPC())
	}
}

func TestTwoCycleRenameSmallCost(t *testing.T) {
	if testing.Short() {
		t.Skip("two-config simulation in -short mode")
	}
	// §3.3: a 2-cycle rename/steer stage degrades IPC by under ~2-3%.
	k, _ := workload.ByName("gsmenc")
	cfg := config.Preset(4).WithVP(config.VPStride).WithSteering(config.SteerVPB)
	r1 := run(t, cfg, k.Build(1, 0))
	cfg2 := cfg
	cfg2.RenameCycles = 2
	r2 := run(t, cfg2, k.Build(1, 0))
	if r2.IPC() > r1.IPC() {
		t.Errorf("deeper rename cannot help: %.3f vs %.3f", r2.IPC(), r1.IPC())
	}
	if r2.IPC() < r1.IPC()*0.90 {
		t.Errorf("2-cycle rename cost too high: %.3f vs %.3f (>10%%)", r2.IPC(), r1.IPC())
	}
}

func TestStoreLoadForwarding(t *testing.T) {
	// A store immediately followed by a dependent load must forward, and
	// the result must be timely (well under a cache miss).
	b := program.NewBuilder("fwd")
	b.Li(isa.R1, 42)
	for i := 0; i < 200; i++ {
		b.Store(isa.SW, isa.R1, isa.R0, 64)
		b.Load(isa.LW, isa.R2, isa.R0, 64)
		b.I(isa.ADDI, isa.R1, isa.R2, 1)
	}
	b.Halt()
	r := run(t, perfectCache(config.Preset(1)), b.MustBuild())
	// Serial chain of store->load->add: ~3-5 cycles per iteration. If
	// forwarding were broken (cache round trips), this would blow up.
	cyclesPerIter := float64(r.Cycles) / 200
	if cyclesPerIter > 8 {
		t.Errorf("store-load chain %.1f cycles/iter; forwarding broken?", cyclesPerIter)
	}
}

func TestBranchMispredictStalls(t *testing.T) {
	// A data-dependent unpredictable branch pattern costs cycles.
	b := program.NewBuilder("brmiss")
	vals := make([]int64, 2048)
	l := uint64(99)
	for i := range vals {
		l = l*6364136223846793005 + 1442695040888963407
		vals[i] = int64(l >> 63) // random 0/1
	}
	arr := b.DataWords(vals)
	b.Li(isa.R10, arr)
	b.Li(isa.R1, 0)
	b.Li(isa.R2, 2048)
	b.Li(isa.R4, 0)
	b.Label("loop")
	b.I(isa.SLLI, isa.R3, isa.R1, 3)
	b.R(isa.ADD, isa.R3, isa.R3, isa.R10)
	b.Load(isa.LW, isa.R3, isa.R3, 0)
	b.Br(isa.BEQ, isa.R3, isa.R0, "skip")
	b.I(isa.ADDI, isa.R4, isa.R4, 1)
	b.Label("skip")
	b.I(isa.ADDI, isa.R1, isa.R1, 1)
	b.Br(isa.BLT, isa.R1, isa.R2, "loop")
	b.Halt()
	p := b.MustBuild()
	r := run(t, config.Preset(1), p)
	if r.BranchAccuracy() > 0.95 {
		t.Errorf("random branch accuracy %.3f implausibly high", r.BranchAccuracy())
	}
	if r.IPC() > 4.0 {
		t.Errorf("IPC %.2f too high for a mispredict-bound loop", r.IPC())
	}
}

func TestAllWorkloadsAllConfigsComplete(t *testing.T) {
	// Exhaustive smoke: every kernel on every cluster count, with and
	// without VP, commits exactly its functional instruction count.
	if testing.Short() {
		t.Skip("long")
	}
	for _, k := range workload.All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			t.Parallel()
			e := trace.NewExecutor(k.Build(1, 0))
			want, err := e.Run(0)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{1, 2, 4} {
				for _, vp := range []config.VPKind{config.VPNone, config.VPStride} {
					cfg := config.Preset(n).WithVP(vp)
					if vp != config.VPNone {
						cfg = cfg.WithSteering(config.SteerVPB)
					}
					r := run(t, cfg, k.Build(1, 0))
					if r.Instructions != want {
						t.Errorf("%s clusters=%d vp=%v: committed %d, want %d", k.Name, n, vp, r.Instructions, want)
					}
				}
			}
		})
	}
}
