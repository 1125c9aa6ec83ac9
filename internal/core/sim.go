package core

import (
	"fmt"

	"clustervp/internal/bpred"
	"clustervp/internal/cache"
	"clustervp/internal/cluster"
	"clustervp/internal/config"
	"clustervp/internal/interconnect"
	"clustervp/internal/isa"
	"clustervp/internal/program"
	"clustervp/internal/rename"
	"clustervp/internal/stats"
	"clustervp/internal/steer"
	"clustervp/internal/trace"
	"clustervp/internal/vpred"
)

const (
	// ringCap is the largest ROB a Sim accepts. Each Sim sizes its ring
	// by its own ROB (ringSlots), not by this maximum.
	ringCap   = 512
	fetchQCap = 32
	// watchdogWindow aborts the run when no instruction commits for this
	// many cycles — always a simulator bug, never a workload property.
	watchdogWindow = 100_000
	defaultMaxCyc  = 500_000_000
)

// Sim is one simulation instance: one configuration bound to one
// workload trace.
type Sim struct {
	cfg config.Config

	// src streams the dynamic instructions; it is either an in-process
	// functional executor or a .cvt file reader — the timing model
	// cannot tell the difference.
	src trace.Source
	// fetchHeld marks a record read from src into the fetch queue's tail
	// slot but not yet admitted: its I-cache line is still arriving.
	fetchHeld bool
	trDone    bool

	bp     *bpred.Unit
	vp     vpred.Predictor
	caches cache.Oracle
	hier   *cache.Hierarchy // nil when PerfectCaches
	// hierMem persists the hierarchy's backing arrays across Resets so a
	// pooled Sim alternating with PerfectCaches configs does not rebuild
	// them; hier points at it (or nil) per the current config.
	hierMem *cache.Hierarchy
	net     interconnect.Topology
	bal     *steer.Balancer
	str     steer.Chooser
	// pureSteer: str's Choose changes no state (steer.Sequenced), so a
	// dispatch attempt that cannot succeed need not steer.
	pureSteer bool
	table     *rename.Table[eref]
	res       []*cluster.Resources
	// Per-cluster constants hoisted out of the spec slice so the hot
	// loop never chases cfg.Clusters[c]: IQ sizes for the dispatch
	// structural check and extra bypass cycles for result visibility.
	iqSize []int
	bypass []int64

	// ROB ring of ringSlots(ROBSize) entries; seq maps to slot
	// seq&ringMask. The cold per-entry payload lives in the ring; the
	// scheduler-hot state (valid/ready bitmaps, consumer masks, wakeup
	// wheel, dependence-edge pool) lives in the embedded sched as
	// parallel arrays indexed by ring slot.
	ring     []entry
	ringMask int64
	headSeq  int64
	nextSeq  int64
	robCount int

	sched

	iqCount []int

	// fetchQ is a fixed ring between fetch and dispatch; fqHead indexes
	// the oldest entry, fqLen counts occupancy.
	fetchQ [fetchQCap]fetched
	fqHead int
	fqLen  int
	// fetchReadyTime gates fetch (I-cache misses, branch redirects);
	// lastFetchLine dedupes I-cache accesses within a line.
	fetchReadyTime int64
	lastFetchLine  int64
	// blockingBranch is the in-flight control-mispredicted branch fetch
	// is waiting on, if any; fetchBlockedPreDispatch covers the window
	// between fetching the mispredicted branch and dispatching it.
	blockingBranch      eref
	fetchBlockedPreDisp bool
	pendingVerifs       []verification
	activeStores        []eref
	lastCommitCycle     int64

	// Per-instruction and per-cycle scratch, hoisted out of the hot
	// loop so steady-state simulation performs zero heap allocations
	// (see BenchmarkSimSteadyState and TestSteadyStateAllocFree).
	// views[j] and steerOps[j] are the two halves of the analysis of an
	// instruction's j-th non-R0 source operand.
	views     [trace.MaxSrc]opView
	steerOps  [trace.MaxSrc]steer.Operand
	excessInt []int
	excessFP  []int

	// Progress callback state: progFn fires every progEvery cycles
	// (progNext is the next firing cycle). The check is two loads and a
	// compare per cycle and the snapshot is a stack value, so enabling
	// progress keeps the hot loop at zero heap allocations.
	progFn    func(Progress)
	progEvery int64
	progNext  int64

	// Coarse phase attribution for tracing: every cycle is exactly one
	// of warmup (nothing committed yet), drain (trace exhausted,
	// pipeline emptying) or steady (everything between). Plain uint64
	// increments in step keep the hot loop allocation-free; readers use
	// PhaseCycles after Run. Deliberately NOT part of stats.Results —
	// golden regression outputs stay byte-identical.
	phaseWarmup uint64
	phaseSteady uint64
	phaseDrain  uint64

	out stats.Results
}

// Progress is a cheap point-in-time snapshot of a running simulation,
// delivered to the callback registered with SetProgress.
type Progress struct {
	// Cycle is the current simulated cycle.
	Cycle int64
	// Instructions is the committed program-instruction count so far.
	Instructions uint64
}

// IPC is the instantaneous instructions-per-cycle figure of the
// snapshot (0 at cycle 0).
func (p Progress) IPC() float64 {
	if p.Cycle == 0 {
		return 0
	}
	return float64(p.Instructions) / float64(p.Cycle)
}

// SetProgress registers fn to be invoked every `every` cycles while the
// simulation runs (from the simulation goroutine, so fn must be fast
// and must not call back into the Sim). A non-positive interval or nil
// fn disables progress. Call before Run; the callback itself must not
// allocate if the caller relies on the 0 allocs/op steady-state
// guarantee.
func (s *Sim) SetProgress(every int64, fn func(Progress)) {
	if every <= 0 || fn == nil {
		s.progFn = nil
		s.progEvery = 0
		return
	}
	s.progFn = fn
	s.progEvery = every
	s.progNext = every
}

// New builds a simulator for the given configuration and program. It
// returns an error for invalid configurations.
func New(cfg config.Config, prog *program.Program) (*Sim, error) {
	return NewFromSource(cfg, trace.NewExecutor(prog), prog.Name)
}

// NewFromSource builds a simulator that consumes an arbitrary dynamic
// instruction stream — an in-process executor, a .cvt trace file
// reader, or anything else satisfying trace.Source. benchmark labels
// the stream in the results.
func NewFromSource(cfg config.Config, src trace.Source, benchmark string) (*Sim, error) {
	s := &Sim{}
	if err := s.Reset(cfg, src, benchmark); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset rebinds the simulator to a new configuration and instruction
// stream, rewinding every piece of run state — ROB ring, rename table,
// scheduler bitmaps and chunk pools, branch predictor, caches, fetch
// queue, statistics — while reusing the large allocations from the
// previous run. The ring and the scheduler state indexed by ring slot
// are sized by cfg.ROBSize: a Sim whose storage is large enough
// reslices it, a smaller one regrows it. A worker can therefore run job
// after job, of any machine shape, on one Sim at memclr cost instead of
// reconstruction cost; results are identical to a freshly constructed
// Sim by construction (every field is restored to its New state).
//
// Reset works on a zero Sim too — NewFromSource is just Reset on a
// fresh struct. On error the Sim may be partially rewound and must be
// discarded, not reused.
func (s *Sim) Reset(cfg config.Config, src trace.Source, benchmark string) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.ROBSize > ringCap {
		return fmt.Errorf("core: ROB size %d exceeds the ring capacity %d", cfg.ROBSize, ringCap)
	}
	nc := cfg.NumClusters()

	s.cfg = cfg
	s.src = src
	s.fetchHeld = false
	s.trDone = false

	// Peripherals that are a handful of small allocations are rebuilt
	// fresh — cheap, and trivially identical to a new Sim. The bulk
	// state (branch-predictor tables, rename table, scheduler pools,
	// cache arrays, the ring) is rewound in place.
	if s.bp == nil {
		s.bp = bpred.NewUnit(bpred.NewPaperCombined())
	} else {
		s.bp.Reset()
	}
	s.bal = steer.NewWeightedBalancer(cfg.IssueWeights())

	if s.table != nil && s.table.Clusters() == nc {
		s.table.Reset(cfg.PhysRegsPerCluster())
	} else {
		s.table = rename.New[eref](cfg.PhysRegsPerCluster())
	}

	if len(s.iqCount) != nc {
		s.iqCount = make([]int, nc)
		s.iqSize = make([]int, nc)
		s.bypass = make([]int64, nc)
		s.excessInt = make([]int, nc)
		s.excessFP = make([]int, nc)
	} else {
		for c := 0; c < nc; c++ {
			s.iqCount[c] = 0
			s.excessInt[c], s.excessFP[c] = 0, 0
		}
	}
	s.resetRing(nc, ringSlots(cfg.ROBSize))

	for i := range s.fetchQ {
		s.fetchQ[i] = fetched{}
	}
	s.fqHead, s.fqLen = 0, 0
	s.fetchReadyTime = 0
	s.lastFetchLine = -1
	s.blockingBranch = 0
	s.fetchBlockedPreDisp = false
	s.pendingVerifs = s.pendingVerifs[:0]
	s.activeStores = s.activeStores[:0]
	s.lastCommitCycle = 0

	s.views = [trace.MaxSrc]opView{}
	s.steerOps = [trace.MaxSrc]steer.Operand{}

	s.progFn = nil
	s.progEvery, s.progNext = 0, 0
	s.phaseWarmup, s.phaseSteady, s.phaseDrain = 0, 0, 0

	s.str = steer.NewChooser(cfg, s.bal)
	s.pureSteer = !steer.Sequenced(cfg.Steering)
	switch cfg.VP {
	case config.VPNone:
		s.vp = vpred.None{}
	case config.VPStride:
		sp := vpred.NewStride(cfg.VPTableEntries)
		sp.CoverFP = cfg.VPCoverFP
		s.vp = sp
	case config.VPPerfect:
		pp := vpred.NewPerfect()
		pp.CoverFP = cfg.VPCoverFP
		s.vp = pp
	case config.VPTwoDelta:
		s.vp = vpred.NewTwoDelta(cfg.VPTableEntries)
	default:
		return fmt.Errorf("core: unknown VP kind %v", cfg.VP)
	}
	if cfg.PerfectCaches {
		s.hier = nil
		s.caches = cache.Perfect{Lat: 1}
	} else {
		if s.hierMem == nil {
			s.hierMem = cache.DefaultHierarchy()
		} else {
			s.hierMem.Reset()
		}
		s.hier = s.hierMem
		s.caches = s.hier
	}
	s.net = interconnect.New(cfg.Interconnect())
	if len(s.res) != nc {
		s.res = make([]*cluster.Resources, nc)
	}
	// PerCluster is freshly allocated every run: Run returns s.out, so
	// the previous run's Results share the old backing array and must
	// never be mutated by a reuse.
	s.out = stats.Results{PerCluster: make([]stats.ClusterStats, nc)}
	for c := range s.res {
		spec := cfg.Clusters[c]
		s.res[c] = cluster.New(spec)
		s.iqSize[c] = spec.IQSize
		s.bypass[c] = int64(spec.BypassLatency)
		s.out.PerCluster[c].Spec = spec.SpecString()
	}
	s.out.Config = cfg.Name
	s.out.Benchmark = benchmark
	return nil
}

// ringSlots is the ring size for a ROB of rob entries: the next power
// of two, so a sequence number maps to its slot with a mask, and at
// least one 64-bit bitmap word.
func ringSlots(rob int) int {
	n := 64
	for n < rob {
		n <<= 1
	}
	return n
}

// resetRing sizes the ROB ring to slots entries (a power of two, at
// least 64), empties it, and sizes and rewinds the scheduler state
// indexed by ring slot for nc clusters. Storage from a previous run is
// resliced when it is large enough.
func (s *Sim) resetRing(nc, slots int) {
	if cap(s.ring) < slots {
		s.ring = make([]entry, slots)
	} else {
		s.ring = s.ring[:slots]
	}
	for i := range s.ring {
		s.ring[i] = entry{depHead: noChunk, depTail: noChunk}
	}
	s.ringMask = int64(slots - 1)
	s.headSeq, s.nextSeq, s.robCount = 0, 0, 0
	s.resetSched(nc)
}

// step advances the machine by one cycle: verification, commit, issue,
// dispatch and fetch, in the reverse-pipeline order the paper's
// simulator uses so each stage sees the previous cycle's state.
func (s *Sim) step(cycle int64) {
	s.processVerifications(cycle)
	s.commit(cycle)
	s.issue(cycle)
	s.dispatch(cycle)
	s.fetch(cycle)
	s.endCycle(cycle)
}

// endCycle charges the cycle to its phase and fires the progress
// callback when due.
func (s *Sim) endCycle(cycle int64) {
	switch {
	case s.trDone:
		s.phaseDrain++
	case s.out.Instructions == 0:
		s.phaseWarmup++
	default:
		s.phaseSteady++
	}
	if s.progFn != nil && cycle >= s.progNext {
		s.progNext = cycle + s.progEvery
		s.progFn(Progress{Cycle: cycle, Instructions: s.out.Instructions})
	}
}

// drained reports whether the trace is exhausted and the pipeline empty.
func (s *Sim) drained() bool {
	return s.trDone && !s.fetchHeld && s.robCount == 0 && s.fqLen == 0
}

// Run simulates until the trace drains and the pipeline empties, then
// returns the collected statistics.
func (s *Sim) Run() (stats.Results, error) { return s.run((*Sim).step) }

// run is Run's cycle loop around a given per-cycle step, so a test can
// substitute a reference stage for a production one.
func (s *Sim) run(step func(*Sim, int64)) (stats.Results, error) {
	maxCyc := s.cfg.MaxCycles
	if maxCyc == 0 {
		maxCyc = defaultMaxCyc
	}
	var cycle int64
	for cycle = 0; ; cycle++ {
		if cycle > maxCyc {
			return s.out, fmt.Errorf("core: exceeded %d cycles", maxCyc)
		}
		step(s, cycle)
		if s.drained() {
			cycle++
			break
		}
		if s.robCount > 0 && cycle-s.lastCommitCycle > watchdogWindow {
			return s.out, fmt.Errorf("core: deadlock at cycle %d: %s", cycle, s.describeHead(cycle))
		}
	}
	if err := s.src.Err(); err != nil {
		return s.out, err
	}
	s.out.Cycles = cycle
	s.out.VP = s.vp.Stats()
	s.out.BranchSeen = s.bp.CondSeen + s.bp.TargetSeen
	s.out.BranchHit = s.bp.CondHit + s.bp.TargetHit
	ist := s.net.Stats()
	s.out.Topology = s.cfg.Topology.String()
	s.out.BusTransfers = ist.Transfers
	s.out.HopHistogram = ist.Hops
	for c, r := range s.res {
		s.out.PerCluster[c].Issued = r.IssuedTotal
	}
	if s.hier != nil {
		s.out.L1IMisses = s.hier.L1I.Misses
		s.out.L1DMisses = s.hier.L1D.Misses
		s.out.L2Misses = s.hier.L2.Misses
	}
	return s.out, nil
}

// PhaseCycles reports how the simulated cycles split across the three
// coarse phases: warmup (before the first commit), steady (committing
// with trace input remaining) and drain (trace exhausted, pipeline
// emptying). The three always sum to Results.Cycles after Run. The
// split feeds trace spans and is intentionally kept out of
// stats.Results so golden outputs never change.
func (s *Sim) PhaseCycles() (warmup, steady, drain uint64) {
	return s.phaseWarmup, s.phaseSteady, s.phaseDrain
}

func (s *Sim) describeHead(now int64) string {
	if s.robCount == 0 {
		return "rob empty"
	}
	e := &s.ring[s.headSeq&s.ringMask]
	msg := fmt.Sprintf("head seq=%d pc=%d op=%v st=%d cluster=%d unverified=%d",
		e.seq, e.pc, e.op, e.st, e.cluster, e.unverified)
	for i := 0; i < int(e.nsrc); i++ {
		msg += fmt.Sprintf(" src%d(ready=%v pred=%v)", i, s.srcReady(e, i, now), e.src[i].predicted)
	}
	return msg
}

// fetch models the front end: up to FetchWidth instructions per cycle
// from the correct path, gated by the I-cache and by unresolved
// mispredicted branches.
func (s *Sim) fetch(now int64) {
	if s.fetchBlockedPreDisp {
		return
	}
	if b := s.get(s.blockingBranch); b != nil {
		if !b.resolved(now) {
			return
		}
		s.blockingBranch = 0
		if t := b.doneTime + 1; t > s.fetchReadyTime {
			s.fetchReadyTime = t
		}
		// Redirect restarts fetch on a fresh line.
		s.lastFetchLine = -1
	} else if !s.blockingBranch.zero() {
		// The branch committed while we were blocked (resolved earlier).
		s.blockingBranch = 0
		s.lastFetchLine = -1
	}
	if now < s.fetchReadyTime {
		return
	}
	for n := 0; n < s.cfg.FetchWidth && s.fqLen < fetchQCap; n++ {
		// The source writes straight into the queue's tail slot. Dispatch
		// drains the head, which moves fqHead and fqLen together, so the
		// tail slot stays put while a record is held in it.
		f := &s.fetchQ[(s.fqHead+s.fqLen)%fetchQCap]
		if !s.fetchHeld {
			if s.trDone || !s.src.Next(&f.dyn) {
				s.trDone = true
				return
			}
			s.fetchHeld = true
		}
		d := &f.dyn
		// Instruction-cache access once per 32-byte line.
		line := int64(d.PC) * 4 / 32
		if line != s.lastFetchLine {
			lat := s.caches.InstAccess(uint64(d.PC) * 4)
			s.lastFetchLine = line
			if lat > 1 {
				// Line arrives later; retry then (it will hit).
				s.fetchReadyTime = now + int64(lat)
				return
			}
		}
		s.fetchHeld = false
		f.fetchTime = now
		f.mispred = false
		f.vpDone = false
		if isa.InfoFor(d.Inst.Op).IsBranch {
			predNext, _ := s.bp.PredictNext(d.PC, d.Inst)
			f.mispred = !s.bp.Resolve(d.PC, d.Inst, d.NextPC, d.Taken, predNext)
		}
		s.fqLen++
		if f.mispred {
			// Fetch cannot proceed past a mispredicted branch until it
			// resolves; the block transfers to blockingBranch at
			// dispatch.
			s.fetchBlockedPreDisp = true
			return
		}
	}
}

// alloc claims ring slot seq for a new entry, returning the previous
// occupant's dependence-edge chunks to the shared pool and clearing the
// slot's consumer mask. The pool's high-water mark is global, so after
// warmup recycling never heap-allocates. The caller advances nextSeq.
func (s *Sim) alloc(seq int64) *entry {
	slot := seq & s.ringMask
	e := &s.ring[slot]
	s.releaseDeps(e, slot)
	*e = entry{seq: seq, doneTime: 1 << 62, depHead: noChunk, depTail: noChunk}
	s.robCount++
	return e
}

// dispatch is the decode/rename/steer stage: up to DecodeWidth
// instructions per cycle, each possibly expanding into copy or
// verification-copy instructions, all consuming ROB/IQ/register
// resources.
func (s *Sim) dispatch(now int64) {
	for n := 0; n < s.cfg.DecodeWidth && s.fqLen > 0; n++ {
		f := &s.fetchQ[s.fqHead]
		if now < f.fetchTime+int64(s.cfg.RenameCycles) {
			return
		}
		if !s.dispatchOne(now, f) {
			return
		}
		s.fqHead = (s.fqHead + 1) % fetchQCap
		s.fqLen--
	}
}

// opView is the rename-side analysis of one non-R0 source operand; its
// steering-side half (availability, mapped clusters, home cluster,
// confident prediction) is the steer.Operand at the same index of
// steerOps, which steering reads in place.
type opView struct {
	homeProv eref // provider of the home-cluster mapping (snapshot)
	idx      int  // operand index in the instruction
	reg      isa.RegID
	correct  bool // the prediction, if confident, is right
}

// analyzeOperands analyzes the first nsrc source operands of f in one
// pass: it trains the value predictor (once per dynamic instruction,
// however often dispatch retries) and fills steerOps and views for
// every operand but R0, which is always ready and never renamed or
// steered by. It returns the number of views filled; they stay valid
// until the next call (dispatch is strictly sequential).
func (s *Sim) analyzeOperands(now int64, f *fetched, nsrc int) int {
	train := !f.vpDone
	f.vpDone = true
	k := 0
	for i := 0; i < nsrc; i++ {
		r := f.dyn.Inst.Source(i)
		if r == isa.R0 {
			continue
		}
		if train {
			// Decode-time predictor lookup and training (§2.2: predictions
			// available and tables updated at decode).
			conf, correct := false, false
			if s.cfg.VP != config.VPNone {
				_, conf, correct = s.vp.PredictAndTrain(f.dyn.PC, i, r.IsFP(), f.dyn.SrcVal[i])
			}
			f.vpConf[i], f.vpCorrect[i] = conf, correct
		}
		home := s.table.Home(r)
		prov := s.table.Lookup(r, home).Provider
		p := s.get(prov)
		s.steerOps[k] = steer.Operand{
			Available:       p == nil || p.done(now),
			MappedIn:        s.table.MappedMask(r),
			ProducerCluster: home,
			Predicted:       f.vpConf[i],
		}
		s.views[k] = opView{homeProv: prov, idx: i, reg: r, correct: f.vpCorrect[i]}
		k++
	}
	return k
}

// dispatchOne renames, steers and inserts one instruction (plus its
// generated copies); it returns false when a structural resource is
// exhausted and dispatch must retry next cycle. All intermediate
// per-instruction state lives in Sim-owned scratch buffers.
func (s *Sim) dispatchOne(now int64, f *fetched) bool {
	if s.robCount >= s.cfg.ROBSize && s.pureSteer {
		// A full ROB fits no instruction, so the attempt's analysis and
		// steering would go unused. Skipping them is invisible when
		// steering keeps no state, and the predictor is trained at the
		// first attempt that analyzes, still in program order. A
		// sequenced steering scheme must see this attempt's Choose.
		s.out.DispatchStallROB++
		return false
	}
	info := f.dyn.Info()
	k := s.analyzeOperands(now, f, info.NumSrc)
	ops, views := s.steerOps[:k], s.views[:k]
	cl := s.str.Choose(ops)
	clBit := uint32(1) << uint(cl)
	hasDest := info.HasDest && f.dyn.Inst.Rd != isa.R0

	// Plan resource needs. An operand not mapped in cl is read through a
	// copy, or a verification-copy when predicted, issued in its home
	// cluster; a plain copy also allocates the value's register in cl.
	regNeed := 0 // registers in cl; no other cluster allocates one
	if hasDest {
		regNeed++
	}
	var homes [trace.MaxSrc]int
	ncopies := 0
	for j := range ops {
		op := &ops[j]
		if op.MappedIn&clBit != 0 {
			continue // mapped in target cluster: read locally (maybe predicted)
		}
		homes[ncopies] = op.ProducerCluster
		ncopies++
		if !op.Predicted {
			regNeed++
		}
	}

	// Structural checks: ROB, IQ and registers for the instruction and
	// every generated copy. The instruction takes an IQ slot in cl, each
	// copy one in its home, never cl (a register is always mapped in its
	// home). The stall is the one a scan of the clusters in index order
	// meets first, checking a cluster's IQ before cl's registers: an IQ
	// short at or below cl, else cl's registers, else any IQ short. A
	// cluster needing no slot is short only when reissues have refilled
	// its IQ past capacity (iqOver).
	if s.robCount+1+ncopies > s.cfg.ROBSize {
		s.out.DispatchStallROB++
		return false
	}
	short := s.iqOver
	if s.iqCount[cl] >= s.iqSize[cl] {
		short |= clBit
	}
	for _, h := range homes[:ncopies] {
		need := 0
		for _, g := range homes[:ncopies] {
			if g == h {
				need++
			}
		}
		if s.iqCount[h]+need > s.iqSize[h] {
			short |= 1 << uint(h)
		}
	}
	if short&(clBit<<1-1) != 0 {
		s.out.DispatchStallIQ++
		return false
	}
	if !s.table.CanAlloc(cl, regNeed) {
		s.out.DispatchStallRegs++
		return false
	}
	if short != 0 {
		s.out.DispatchStallIQ++
		return false
	}

	// The copies and verification-copies precede the consumer in ROB
	// order. A second operand naming the register a first one gets a
	// plain copy of reads that copy instead of getting its own, so the
	// consumer's seq is known before any copy exists, and its sources,
	// dependence edges and verifications are written in place.
	nalloc := ncopies
	if k == 2 && views[0].reg == views[1].reg && ops[0].MappedIn&clBit == 0 && !ops[0].Predicted {
		nalloc--
	}
	e := s.alloc(s.nextSeq + int64(nalloc))
	er := ref(e)
	e.pc = int32(f.dyn.PC)
	e.op = f.dyn.Inst.Op
	e.class = info.Class
	e.lat = int32(info.Latency)
	e.pipe = info.Pipelined
	e.cluster = int16(cl)
	e.nsrc = uint8(info.NumSrc)
	for i := 0; i < info.NumSrc; i++ {
		r := f.dyn.Inst.Source(i)
		e.src[i] = source{reg: r, isFP: r.IsFP()}
	}
	e.dispatchTime = now
	e.isBranch = info.IsBranch
	e.mispred = f.mispred
	e.isLoad = info.IsLoad
	e.isStore = info.IsStore
	e.addr = f.dyn.Addr

	// Rename the sources, registering dependence edges for the reissue
	// cascade and bitmap wakeup and computing initial readiness in the
	// same pass (predicted operands are covered, and pending issued
	// providers carry the armed completion event that will wake this
	// entry).
	ready := true
	for j := range views {
		v, op := &views[j], &ops[j]
		src := &e.src[v.idx]
		if mapping := s.table.Lookup(v.reg, cl); mapping.Valid {
			prov := mapping.Provider
			p := s.get(prov)
			if p == nil || p.done(now) {
				// Ready locally.
				continue
			}
			if op.Predicted {
				// Local predicted speculation: verified at the
				// provider's writeback (§2.2).
				src.predicted = true
				src.predCorrect = v.correct
				s.pendingVerifs = append(s.pendingVerifs, verification{consumer: er, provider: prov, opIdx: int32(v.idx), correct: v.correct})
				e.unverified++
				p.hasVerif = true
				if p.st == stIssued && p.doneTime+1 < s.nextVerifMin {
					s.nextVerifMin = p.doneTime + 1
				}
				s.out.PredictedOperandsUsed++
			} else {
				src.provider = prov
				s.addDep(p, er)
				ready = false
			}
			continue
		}
		// Unmapped in the target cluster: copy or verification-copy.
		// The home-cluster mapping is untouched since analyzeOperands
		// (earlier operands only AddCopy into the target cluster), so
		// the snapshotted provider is still current.
		home := op.ProducerCluster
		c := s.dispatchCopy(now, v.reg, home, cl, v.homeProv, op.Predicted, v.correct)
		if op.Predicted {
			s.out.VerifyCopies++
			src.predicted = true
			src.predCorrect = v.correct
			s.pendingVerifs = append(s.pendingVerifs, verification{consumer: er, provider: ref(c), opIdx: int32(v.idx), remote: true, correct: v.correct})
			e.unverified++
			s.out.PredictedOperandsUsed++
		} else {
			if !s.table.AddCopy(v.reg, cl, ref(c)) {
				panic("core: copy register allocation failed after CanAlloc")
			}
			s.out.Copies++
			src.provider = ref(c)
			s.addDep(c, er)
			ready = false
		}
	}
	if s.nextSeq != e.seq {
		panic("core: copies allocated around the consumer's slot")
	}
	s.nextSeq++

	if hasDest {
		destLog := f.dyn.Inst.Rd
		free, ok := s.table.Rename(destLog, cl, er)
		if !ok {
			panic("core: destination register allocation failed after CanAlloc")
		}
		e.hasDest = true
		e.destLog = destLog
		e.freeAtCommit = free
	}
	if e.isStore {
		s.activeStores = append(s.activeStores, er)
	}
	s.iqEnter(e)
	if ready {
		s.setReady(e.seq & s.ringMask)
	}
	s.bal.Dispatched(cl)
	s.out.PerCluster[cl].Dispatched++

	if f.mispred {
		s.blockingBranch = er
		s.fetchBlockedPreDisp = false
	}
	return true
}

// dispatchCopy allocates and enters the IQ a copy of reg's value, issued
// in cluster home for delivery to cluster cl, reading provider prov: a
// verification-copy when vc, whose prediction is then correct or not,
// else a plain copy, which writes reg in cl.
func (s *Sim) dispatchCopy(now int64, reg isa.RegID, home, cl int, prov eref, vc, correct bool) *entry {
	c := s.alloc(s.nextSeq)
	s.nextSeq++
	if vc {
		c.isVC = true
		c.vcCorrect = correct
		c.hasVerif = true
	} else {
		c.isCopy = true
		c.hasDest = true
		c.destLog = reg
	}
	c.class = isa.ClassNone
	c.lat = 1
	c.pipe = true
	c.cluster = int16(home)
	c.dstCluster = int16(cl)
	c.nsrc = 1
	c.src[0] = source{reg: reg, isFP: reg.IsFP(), provider: prov}
	c.dispatchTime = now
	s.iqEnter(c)
	// Inline readiness: a freshly dispatched entry has no minReady
	// bound, so it is ready exactly when its provider's result is
	// visible. A pending issued provider needs no recheck event — every
	// issued-not-done entry keeps one completion event armed on the
	// wheel (re-armed on horizon chaining), which fires the
	// consumer-mask wakeup this addDep just registered for.
	if p := s.get(prov); p != nil {
		s.addDep(p, ref(c))
		if p.done(now) {
			s.setReady(c.seq & s.ringMask)
		}
	} else {
		s.setReady(c.seq & s.ringMask)
	}
	s.out.PerCluster[home].CopiesOut++
	return c
}
