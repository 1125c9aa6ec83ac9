package core

import (
	"math/bits"
	"reflect"
	"strings"
	"testing"

	"clustervp/internal/config"
	"clustervp/internal/interconnect"
	"clustervp/internal/isa"
	"clustervp/internal/program"
	"clustervp/internal/trace"
	"clustervp/internal/workload"
)

func TestDeterminism(t *testing.T) {
	// Two runs of the same configuration must produce identical
	// statistics; the simulator has no hidden nondeterminism.
	k, _ := workload.ByName("cjpeg")
	cfg := config.Preset(4).WithVP(config.VPStride).WithSteering(config.SteerVPB)
	a := run(t, cfg, k.Build(1, 0))
	b := run(t, cfg, k.Build(1, 0))
	if !reflect.DeepEqual(a, b) {
		t.Errorf("runs differ:\n%+v\n%+v", a, b)
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	k, _ := workload.ByName("cjpeg")
	bad := config.Preset(4)
	bad.CommLatency = 0
	if _, err := New(bad, k.Build(1, 0)); err == nil {
		t.Error("zero comm latency must be rejected")
	}
	bad2 := config.Preset(4)
	bad2.Clusters[0].FUs.IntMul = 99
	if _, err := New(bad2, k.Build(1, 0)); err == nil {
		t.Error("mul units exceeding int units must be rejected")
	}
	bad3 := config.Preset(2)
	bad3.VPTableEntries = 1000
	bad3.VP = config.VPStride
	if _, err := New(bad3, k.Build(1, 0)); err == nil {
		t.Error("non-power-of-two VP table must be rejected")
	}
}

func TestMaxCyclesAborts(t *testing.T) {
	k, _ := workload.ByName("gsmenc")
	cfg := config.Preset(4)
	cfg.MaxCycles = 100
	s, err := New(cfg, k.Build(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Fatalf("expected cycle-budget error, got %v", err)
	}
}

func TestRunawayProgramSurfacesError(t *testing.T) {
	if testing.Short() {
		t.Skip("2M-cycle spin loop in -short mode")
	}
	b := program.NewBuilder("spin")
	b.Label("x")
	b.I(isa.ADDI, isa.R1, isa.R1, 1)
	b.Jmp("x")
	b.Halt()
	cfg := config.Preset(1)
	cfg.MaxCycles = 2_000_000
	s, err := New(cfg, b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err == nil {
		t.Fatal("infinite program must surface an error, not hang")
	}
}

func TestBusSaturationStallsButCompletes(t *testing.T) {
	// Squeeze a communication-heavy kernel through one path per cluster
	// at high latency: bus stalls must appear, and not a single
	// instruction may be lost.
	k, _ := workload.ByName("gsmenc")
	e := trace.NewExecutor(k.Build(1, 0))
	want, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	r := run(t, config.Preset(4).WithComm(4, 1), k.Build(1, 0))
	if r.Instructions != want {
		t.Errorf("committed %d, want %d", r.Instructions, want)
	}
	if r.BusStalls == 0 {
		t.Error("single-path latency-4 network should stall sometimes")
	}
}

func TestCopiesEqualTransfersWithoutVP(t *testing.T) {
	// Without value prediction every copy crosses a wire exactly once
	// unless it was reissued (each reissue re-reserves the bus).
	k, _ := workload.ByName("djpeg")
	r := run(t, config.Preset(4), k.Build(1, 0))
	if r.Reissues != 0 {
		// No VP, no speculation on values: reissues must be zero.
		t.Errorf("reissues without VP = %d, want 0", r.Reissues)
	}
	if r.Copies != r.BusTransfers {
		t.Errorf("copies (%d) must equal bus transfers (%d) without VP", r.Copies, r.BusTransfers)
	}
	if r.VerifyCopies != 0 || r.PredictedOperandsUsed != 0 {
		t.Error("no VP must mean no verification-copies or predicted operands")
	}
}

func TestTransfersBoundedWithVP(t *testing.T) {
	// With prediction, transfers = copies + mispredicted verification
	// forwards (+ reissued copies); they can never exceed copies plus
	// verification-copies plus reissues.
	k, _ := workload.ByName("rawcaudio")
	r := run(t, config.Preset(4).WithVP(config.VPStride).WithSteering(config.SteerVPB), k.Build(1, 0))
	if r.BusTransfers < r.Copies {
		t.Errorf("transfers (%d) below copies (%d)", r.BusTransfers, r.Copies)
	}
	if r.BusTransfers > r.Copies+r.VerifyCopies+r.Reissues {
		t.Errorf("transfers (%d) exceed copies+vcs+reissues (%d+%d+%d)",
			r.BusTransfers, r.Copies, r.VerifyCopies, r.Reissues)
	}
}

func TestAlternativeSteeringsComplete(t *testing.T) {
	k, _ := workload.ByName("epicdec")
	e := trace.NewExecutor(k.Build(1, 0))
	want, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []config.SteeringKind{
		config.SteerRoundRobin, config.SteerLoadOnly, config.SteerDepFIFO,
	} {
		r := run(t, config.Preset(4).WithSteering(kind).WithVP(config.VPStride), k.Build(1, 0))
		if r.Instructions != want {
			t.Errorf("%v: committed %d, want %d", kind, r.Instructions, want)
		}
	}
}

func TestAlternativeSteeringsLoseToPaperScheme(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-config simulation in -short mode")
	}
	// The §5 comparison: communication-blind steering must generate far
	// more traffic than the paper's heuristic.
	k, _ := workload.ByName("gsmenc")
	base := run(t, config.Preset(4), k.Build(1, 0))
	rr := run(t, config.Preset(4).WithSteering(config.SteerRoundRobin), k.Build(1, 0))
	if rr.CommPerInstr() < base.CommPerInstr()*1.3 {
		t.Errorf("round robin comm %.3f should far exceed baseline %.3f",
			rr.CommPerInstr(), base.CommPerInstr())
	}
	if rr.IPC() > base.IPC() {
		t.Errorf("round robin (%.3f) should not beat the paper's steering (%.3f)", rr.IPC(), base.IPC())
	}
}

func TestTwoDeltaPredictorRuns(t *testing.T) {
	k, _ := workload.ByName("cjpeg")
	e := trace.NewExecutor(k.Build(1, 0))
	want, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	r := run(t, config.Preset(4).WithVP(config.VPTwoDelta).WithSteering(config.SteerVPB), k.Build(1, 0))
	if r.Instructions != want {
		t.Errorf("committed %d, want %d", r.Instructions, want)
	}
	if r.VP.Lookups == 0 || r.PredictedOperandsUsed == 0 {
		t.Error("2-delta predictor never engaged")
	}
}

func TestTinyVPTableStillCorrect(t *testing.T) {
	k, _ := workload.ByName("g721enc")
	e := trace.NewExecutor(k.Build(1, 0))
	want, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	r := run(t, config.Preset(4).WithVP(config.VPStride).WithSteering(config.SteerVPB).WithVPTable(16), k.Build(1, 0))
	if r.Instructions != want {
		t.Errorf("committed %d, want %d (16-entry table)", r.Instructions, want)
	}
}

func TestAllTopologiesCommitExactCount(t *testing.T) {
	// The topology changes timing only: under any fabric, at any
	// bandwidth, exactly the trace's instruction count must commit.
	k, _ := workload.ByName("djpeg")
	e := trace.NewExecutor(k.Build(1, 0))
	want, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, topo := range []interconnect.Kind{
		interconnect.KindBus, interconnect.KindRing, interconnect.KindCrossbar, interconnect.KindMesh,
	} {
		for _, paths := range []int{0, 1} {
			cfg := config.Preset(4).WithComm(1, paths).WithTopology(topo).
				WithVP(config.VPStride).WithSteering(config.SteerVPB)
			r := run(t, cfg, k.Build(1, 0))
			if r.Instructions != want {
				t.Errorf("%v paths=%d: committed %d, want %d", topo, paths, r.Instructions, want)
			}
			if r.Topology != topo.String() {
				t.Errorf("results topology = %q, want %q", r.Topology, topo)
			}
			if r.BusTransfers > 0 && r.MeanHops() < 1 {
				t.Errorf("%v: mean hops %.2f below 1 with %d transfers", topo, r.MeanHops(), r.BusTransfers)
			}
		}
	}
}

// Multi-hop fabrics at bounded bandwidth must slow a communication-bound
// kernel down relative to the single-hop bus, never speed it up beyond
// the unbounded-bus bound.
func TestRingSlowerThanUnboundedBus(t *testing.T) {
	k, _ := workload.ByName("gsmenc")
	unbounded := run(t, config.Preset(4), k.Build(1, 0))
	ring := run(t, config.Preset(4).WithComm(1, 1).WithTopology(interconnect.KindRing), k.Build(1, 0))
	if ring.Cycles < unbounded.Cycles {
		t.Errorf("bounded ring (%d cycles) cannot beat the unbounded bus (%d cycles)",
			ring.Cycles, unbounded.Cycles)
	}
	if ring.MeanHops() <= 1 {
		t.Errorf("4-cluster ring mean hops = %.2f, must exceed 1", ring.MeanHops())
	}
}

func TestAsymmetricMachinesCommitExactCount(t *testing.T) {
	// Heterogeneous machines change timing only: under any spec mix,
	// every steering scheme, with and without VP, exactly the trace's
	// instruction count must commit, and the per-cluster dispatch
	// breakdown must account for every instruction.
	k, _ := workload.ByName("cjpeg")
	e := trace.NewExecutor(k.Build(1, 0))
	want, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	specs := [][]config.ClusterSpec{
		{config.DefaultSpec(4, 16), config.DefaultSpec(2, 8), config.DefaultSpec(2, 8)},
		{config.DefaultSpec(8, 64), config.DefaultSpec(2, 8)},
		{
			func() config.ClusterSpec { s := config.DefaultSpec(2, 16); s.BypassLatency = 2; return s }(),
			func() config.ClusterSpec { s := config.DefaultSpec(2, 16); s.RegPorts = 2; return s }(),
			config.DefaultSpec(4, 16),
		},
	}
	for si, sp := range specs {
		for _, kind := range []config.SteeringKind{
			config.SteerBaseline, config.SteerVPB, config.SteerRoundRobin,
			config.SteerLoadOnly, config.SteerDepFIFO, config.SteerModified,
		} {
			cfg := config.FromSpecs(sp...).WithSteering(kind)
			if kind == config.SteerVPB || kind == config.SteerModified {
				cfg = cfg.WithVP(config.VPStride)
			}
			r := run(t, cfg, k.Build(1, 0))
			if r.Instructions != want {
				t.Errorf("specs %d, %v: committed %d, want %d", si, kind, r.Instructions, want)
			}
			var dispatched uint64
			for _, pc := range r.PerCluster {
				dispatched += pc.Dispatched
			}
			if dispatched != want {
				t.Errorf("specs %d, %v: per-cluster dispatched sums to %d, want %d", si, kind, dispatched, want)
			}
		}
	}
}

func TestBypassLatencySlowsCluster(t *testing.T) {
	// A machine whose clusters all pay extra bypass cycles must be
	// slower than the identical machine with single-cycle bypass.
	k, _ := workload.ByName("gsmenc")
	fast := config.FromSpecs(config.DefaultSpec(2, 16), config.DefaultSpec(2, 16))
	slowSpec := config.DefaultSpec(2, 16)
	slowSpec.BypassLatency = 2
	slow := config.FromSpecs(slowSpec, slowSpec)
	rf := run(t, fast, k.Build(1, 0))
	rs := run(t, slow, k.Build(1, 0))
	if rs.Cycles <= rf.Cycles {
		t.Errorf("bypass latency 2 cannot be free: %d cycles vs %d", rs.Cycles, rf.Cycles)
	}
	if rs.Instructions != rf.Instructions {
		t.Errorf("bypass latency changed committed count: %d vs %d", rs.Instructions, rf.Instructions)
	}
}

func TestRegPortsGateIssue(t *testing.T) {
	// Capping a cluster's register ports below its issue width must
	// cost cycles on a wide machine, never instructions.
	k, _ := workload.ByName("cjpeg")
	open := config.FromSpecs(config.DefaultSpec(8, 64))
	capped8 := config.DefaultSpec(8, 64)
	capped8.RegPorts = 2
	capped := config.FromSpecs(capped8)
	ro := run(t, open, k.Build(1, 0))
	rc := run(t, capped, k.Build(1, 0))
	if rc.Cycles <= ro.Cycles {
		t.Errorf("2 register ports on an 8-wide cluster cannot be free: %d cycles vs %d", rc.Cycles, ro.Cycles)
	}
	if rc.Instructions != ro.Instructions {
		t.Errorf("register-port cap changed committed count: %d vs %d", rc.Instructions, ro.Instructions)
	}
}

func TestImbalanceMetricZeroOnOneCluster(t *testing.T) {
	k, _ := workload.ByName("cjpeg")
	r := run(t, config.Preset(1), k.Build(1, 0))
	if r.Imbalance() != 0 {
		t.Errorf("centralized machine cannot be imbalanced, got %v", r.Imbalance())
	}
}

func TestRetireOrderExactCount(t *testing.T) {
	// Heavy misprediction pressure (tiny table + erratic values) across
	// 2 clusters with limited bandwidth: the reissue machinery must
	// neither lose nor duplicate instructions.
	k, _ := workload.ByName("pgpenc")
	e := trace.NewExecutor(k.Build(1, 0))
	want, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Preset(2).WithVP(config.VPStride).WithSteering(config.SteerModified).WithComm(2, 1).WithVPTable(16)
	r := run(t, cfg, k.Build(1, 0))
	if r.Instructions != want {
		t.Errorf("committed %d, want %d", r.Instructions, want)
	}
}

func TestPerfectCachesFasterThanReal(t *testing.T) {
	k, _ := workload.ByName("epicenc")
	real := run(t, config.Preset(1), k.Build(1, 0))
	ideal := run(t, perfectCache(config.Preset(1)), k.Build(1, 0))
	if ideal.IPC() < real.IPC() {
		t.Errorf("perfect caches (%.3f) cannot lose to real caches (%.3f)", ideal.IPC(), real.IPC())
	}
	if ideal.L1DMisses != 0 || ideal.L1IMisses != 0 {
		t.Error("perfect caches must record no misses")
	}
}

func TestHigherScaleSameIPCBallpark(t *testing.T) {
	// IPC must be a property of the kernel, not of its length: doubling
	// the workload scale should not move IPC more than a few percent.
	k, _ := workload.ByName("gsmdec")
	cfg := config.Preset(4).WithVP(config.VPStride).WithSteering(config.SteerVPB)
	r1 := run(t, cfg, k.Build(1, 0))
	r2 := run(t, cfg, k.Build(2, 0))
	ratio := r2.IPC() / r1.IPC()
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("IPC drifted with scale: %.3f -> %.3f", r1.IPC(), r2.IPC())
	}
}

func TestFPCoverageExtension(t *testing.T) {
	if testing.Short() {
		t.Skip("FP-heavy kernel simulation in -short mode")
	}
	// The paper's §3.3 remark: residual communication under perfect
	// prediction is FP values. Extending coverage to FP operands must
	// drive the residue toward zero on FP-heavy kernels.
	k, _ := workload.ByName("rasta")
	intOnly := run(t, config.Preset(4).WithVP(config.VPPerfect).WithSteering(config.SteerVPB), k.Build(1, 0))
	cfg := config.Preset(4).WithVP(config.VPPerfect).WithSteering(config.SteerVPB)
	cfg.VPCoverFP = true
	withFP := run(t, cfg, k.Build(1, 0))
	if withFP.CommPerInstr() >= intOnly.CommPerInstr() {
		t.Errorf("FP coverage should cut residual comm: %.4f -> %.4f",
			intOnly.CommPerInstr(), withFP.CommPerInstr())
	}
	if withFP.IPC() < intOnly.IPC() {
		t.Errorf("perfect FP coverage cannot lose IPC: %.3f -> %.3f", intOnly.IPC(), withFP.IPC())
	}
	// Stride-with-FP must still commit exactly the right count even
	// though FP bit patterns rarely stride-predict.
	e := trace.NewExecutor(k.Build(1, 0))
	want, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := config.Preset(4).WithVP(config.VPStride).WithSteering(config.SteerVPB)
	cfg2.VPCoverFP = true
	r := run(t, cfg2, k.Build(1, 0))
	if r.Instructions != want {
		t.Errorf("stride+fp committed %d, want %d", r.Instructions, want)
	}
}

// checkBitmapInvariants asserts the structural soundness of the bitmap
// scheduler state after a completed cycle: IQ valid-mask conservation,
// readiness implying eligibility, and chunk-pool conservation (every
// dep/event chunk is on exactly one chain — some entry's consumer list,
// some wheel slot, or the free list).
func checkBitmapInvariants(t *testing.T, s *Sim, now int64) {
	t.Helper()

	// Every cluster's valid mask has exactly iqCount[c] bits, and no
	// ring slot appears in two clusters' masks.
	union := make([]uint64, s.nw)
	for c := range s.iqCount {
		pop := 0
		for w, word := range s.iqW[c*s.nw : (c+1)*s.nw] {
			pop += bits.OnesCount64(word)
			if over := word & union[w]; over != 0 {
				t.Fatalf("cycle %d: ring slots in two IQ masks (word %d: %#x)", now, w, over)
			}
			union[w] |= word
		}
		if pop != s.iqCount[c] {
			t.Fatalf("cycle %d: cluster %d IQ mask popcount %d != iqCount %d", now, c, pop, s.iqCount[c])
		}
	}

	// Valid-mask bits only mark live, still-waiting entries.
	for w, word := range union {
		for m := word; m != 0; m &= m - 1 {
			slot := int64(w*64 + bits.TrailingZeros64(m))
			e := &s.ring[slot]
			if e.st != stWaiting {
				t.Fatalf("cycle %d: IQ bit on slot %d in state %d", now, slot, e.st)
			}
			if e.seq < s.headSeq || e.seq >= s.nextSeq {
				t.Fatalf("cycle %d: IQ bit on slot %d outside live window (seq %d)", now, slot, e.seq)
			}
		}
	}

	// Ready bits are a subset of the valid masks, and every marked entry
	// really is issuable: waiting, live, all sources ready.
	for w, word := range s.readyW {
		if stray := word &^ union[w]; stray != 0 {
			t.Fatalf("cycle %d: ready bits outside IQ masks (word %d: %#x)", now, w, stray)
		}
		for m := word; m != 0; m &= m - 1 {
			slot := int64(w*64 + bits.TrailingZeros64(m))
			e := &s.ring[slot]
			if !e.allSrcReady(now) {
				t.Fatalf("cycle %d: ready bit on slot %d (seq %d) with unready sources", now, slot, e.seq)
			}
		}
	}

	// Dep-pool conservation: chains hanging off ring slots plus the free
	// list partition the pool exactly.
	seen := make(map[int32]bool, len(s.depPool))
	walk := func(head int32, what string) int {
		n := 0
		for c := head; c != noChunk; c = s.depPool[c].next {
			if seen[c] {
				t.Fatalf("cycle %d: dep chunk %d on two chains (%s)", now, c, what)
			}
			seen[c] = true
			n++
		}
		return n
	}
	total := walk(s.depFree, "free")
	for i := range s.ring {
		total += walk(s.ring[i].depHead, "entry")
	}
	if total != len(s.depPool) {
		t.Fatalf("cycle %d: dep pool leak: %d chunks reachable of %d", now, total, len(s.depPool))
	}

	// Event-pool conservation over the wheel slots and the free list.
	evSeen := make(map[int32]bool, len(s.evPool))
	evWalk := func(head int32, what string) int {
		n := 0
		for c := head; c != noChunk; c = s.evPool[c].next {
			if evSeen[c] {
				t.Fatalf("cycle %d: event chunk %d on two chains (%s)", now, c, what)
			}
			evSeen[c] = true
			n++
		}
		return n
	}
	evTotal := evWalk(s.evFree, "free")
	for sl := range s.wheelHead {
		evTotal += evWalk(s.wheelHead[sl], "wheel")
	}
	if evTotal != len(s.evPool) {
		t.Fatalf("cycle %d: event pool leak: %d chunks reachable of %d", now, evTotal, len(s.evPool))
	}
}

// TestReadyBitmapSoundness steps warm symmetric and asymmetric machines
// and audits the full bitmap-scheduler state at regular intervals. The
// differential oracle (oracle_test.go) pins end-to-end equivalence with
// the reference selector; this test pins the internal representation.
func TestReadyBitmapSoundness(t *testing.T) {
	steps := 6000
	if testing.Short() {
		steps = 1500
	}
	for _, tc := range []struct {
		name string
		sim  *Sim
	}{
		{"sym", steadySim(t, 50)},
		{"asym", steadySimCfg(t, asymCfg(), 50)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.sim
			cycle := int64(5000)
			for i := 0; i < steps; i++ {
				if s.drained() {
					t.Fatalf("drained at step %d", i)
				}
				s.step(cycle)
				if i%97 == 0 {
					checkBitmapInvariants(t, s, cycle)
				}
				cycle++
			}
			checkBitmapInvariants(t, s, cycle-1)
		})
	}
}
