package core

// Allocation-freedom and pool-invariant tests for the hot loop: the ROB
// ring doubles as the entry free-list pool and the fetch queue is a
// fixed ring, so after warmup a cycle step must perform zero heap
// allocations and the pool accounting must stay exactly conserved.

import (
	"runtime"
	"testing"

	"clustervp/internal/config"
	"clustervp/internal/workload"
)

// steadySimCfg builds a simulator for cfg on a real kernel and warms it
// past the allocation transient (scratch slices, pendingVerifs and
// activeStores growing to their steady capacity, ring deps warming up).
func steadySimCfg(t testing.TB, cfg config.Config, scale int) *Sim {
	t.Helper()
	k, err := workload.ByName("gsmenc")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(cfg, k.Build(scale, 0))
	if err != nil {
		t.Fatal(err)
	}
	for c := int64(0); c < 5000; c++ {
		s.step(c)
		if s.drained() {
			t.Fatalf("kernel drained during warmup at cycle %d; raise the scale", c)
		}
	}
	return s
}

// steadySim is steadySimCfg on the paper's 4-cluster VPB machine.
func steadySim(t testing.TB, scale int) *Sim {
	t.Helper()
	return steadySimCfg(t, config.Preset(4).WithVP(config.VPStride).WithSteering(config.SteerVPB), scale)
}

// asymCfg is a heterogeneous machine (one wide cluster, two narrow
// slow-bypass ones) exercising per-spec IQ limits, capacity-weighted
// steering, register-port gating and bypass latency in the hot loop.
func asymCfg() config.Config {
	wide := config.DefaultSpec(4, 32)
	narrow := config.DefaultSpec(2, 8)
	narrow.BypassLatency = 1
	narrow.RegPorts = 3
	return config.FromSpecs(wide, narrow, narrow).
		WithVP(config.VPStride).WithSteering(config.SteerVPB)
}

// poolAccounting scans the ROB ring and classifies every slot.
func poolAccounting(s *Sim) (live, free int, conflict bool) {
	for i := range s.ring {
		e := &s.ring[i]
		// A slot holds the live entry for sequence number e.seq only if
		// that seq actually maps to this slot (virgin slots all carry
		// seq 0 and would otherwise masquerade as live).
		inWindow := e.seq >= s.headSeq && e.seq < s.nextSeq &&
			e.seq&s.ringMask == int64(i) && e.st != stCommitted
		if inWindow {
			live++
		} else {
			free++
			// A free slot that has ever been allocated (slot i first
			// carries seq i) must never still be reachable as an
			// in-flight provider: any eref pointing at it must see a
			// committed state and resolve to nil.
			if s.nextSeq > int64(i) {
				if s.get(ref(e)) != nil {
					conflict = true
				}
			}
		}
	}
	return live, free, conflict
}

// TestPoolConservation checks the free-list/pool invariants: after every
// cycle, live entries + free slots is exactly the ring's length, live
// matches the ROB occupancy counter, and no slot is simultaneously free
// and in-flight. ROB sizes below, at and off a power of two cover a ring
// the window fills exactly and one it never fills.
func TestPoolConservation(t *testing.T) {
	k, err := workload.ByName("cjpeg")
	if err != nil {
		t.Fatal(err)
	}
	for _, rob := range []int{64, 96, 128} {
		cfg := config.Preset(4).WithVP(config.VPStride).WithSteering(config.SteerVPB)
		cfg.ROBSize = rob
		s, err := New(cfg, k.Build(1, 0))
		if err != nil {
			t.Fatal(err)
		}
		if want := ringSlots(rob); len(s.ring) != want {
			t.Fatalf("ROB %d: ring has %d slots, want %d", rob, len(s.ring), want)
		}
		for c := int64(0); c < 3000 && !s.drained(); c++ {
			s.step(c)
			live, free, conflict := poolAccounting(s)
			if live+free != len(s.ring) {
				t.Fatalf("ROB %d, cycle %d: live %d + free %d != ring length %d", rob, c, live, free, len(s.ring))
			}
			if live != s.robCount {
				t.Fatalf("ROB %d, cycle %d: %d live ring entries but robCount %d", rob, c, live, s.robCount)
			}
			if conflict {
				t.Fatalf("ROB %d, cycle %d: a ring slot is both free and in-flight", rob, c)
			}
			if s.fqLen < 0 || s.fqLen > fetchQCap {
				t.Fatalf("ROB %d, cycle %d: fetch queue occupancy %d out of [0,%d]", rob, c, s.fqLen, fetchQCap)
			}
		}
	}
}

// TestDepPoolRecyclesChunks exercises the shared dependence-edge pool
// directly: appends past one chunk grow the chain, releases splice every
// chunk back onto the free list, and a subsequent producer reuses those
// chunks instead of extending the pool. Append order must survive the
// chunked representation — the reissue cascade's blockingBranch election
// depends on walking edges in insertion order.
func TestDepPoolRecyclesChunks(t *testing.T) {
	s := &Sim{}
	s.resetRing(1, 64)
	p := &s.ring[0]
	p.seq = 0
	n := 3*depChunkSize + 5
	for i := 0; i < n; i++ {
		c := &s.ring[1+i%4]
		c.seq = int64(1 + i)
		s.addDep(p, ref(c))
	}
	grown := len(s.depPool)
	if grown != 4 {
		t.Fatalf("%d edges occupy %d chunks, want 4", n, grown)
	}
	var got []int64
	for ci := p.depHead; ci != noChunk; ci = s.depPool[ci].next {
		ch := &s.depPool[ci]
		for i := int32(0); i < ch.n; i++ {
			got = append(got, int64(ch.refs[i])-1)
		}
	}
	if len(got) != n {
		t.Fatalf("walked %d edges, want %d", len(got), n)
	}
	for i, seq := range got {
		if seq != int64(1+i) {
			t.Fatalf("edge %d has seq %d; append order not preserved: %v", i, seq, got)
		}
	}
	s.releaseDeps(p)
	if p.depHead != noChunk || p.depTail != noChunk {
		t.Fatal("release left the entry chained")
	}
	q := &s.ring[5]
	q.seq = 5
	for i := 0; i < n; i++ {
		s.addDep(q, ref(p))
	}
	if len(s.depPool) != grown {
		t.Errorf("pool grew to %d chunks on reuse, want to stay at %d (free list not recycling)", len(s.depPool), grown)
	}
}

// measureSteady runs steps against a warmed simulator and returns the
// exact number of heap bytes and objects allocated while stepping. GC
// stays enabled — TotalAlloc and Mallocs are monotonic and unaffected
// by collection — but the measurement loop itself must not allocate,
// so the MemStats live in the caller's frame.
func measureSteady(t *testing.T, s *Sim, cycle *int64, steps int) (bytes, mallocs uint64) {
	t.Helper()
	var m1, m2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m1)
	for i := 0; i < steps; i++ {
		s.step(*cycle)
		*cycle++
	}
	runtime.ReadMemStats(&m2)
	if s.drained() {
		t.Fatal("trace drained during measurement; the steady-state claim is vacuous")
	}
	return m2.TotalAlloc - m1.TotalAlloc, m2.Mallocs - m1.Mallocs
}

// requireZero asserts that 20,000 warm cycles of s allocate exactly
// zero of what pick takes from a measurement: heap objects or heap
// bytes. An exact count catches what a per-cycle average rounds away:
// one small allocation every few hundred cycles. Runtime goroutines (GC
// workers, the test framework) can allocate between the two
// ReadMemStats; a genuine leak shows up on every attempt, ambient noise
// does not, so any clean measurement proves the stepping loop clean.
func requireZero(t *testing.T, s *Sim, unit string, pick func(bytes, mallocs uint64) uint64) {
	t.Helper()
	cycle := int64(5000)
	var got uint64
	for attempt := 0; attempt < 3; attempt++ {
		if got = pick(measureSteady(t, s, &cycle, 20000)); got == 0 {
			return
		}
	}
	t.Errorf("steady-state stepping allocated %d %s over 20k cycles on every attempt, want exactly 0", got, unit)
}

func heapObjects(_, mallocs uint64) uint64 { return mallocs }
func heapBytes(bytes, _ uint64) uint64     { return bytes }

// TestSteadyStateAllocFree is the allocation-freedom claim for the hot
// loop: once warm, the cycle step allocates no object, cycle after
// cycle. The count is exact over the whole run, not a per-cycle average
// that truncates sub-1-per-cycle allocations to zero.
func TestSteadyStateAllocFree(t *testing.T) {
	requireZero(t, steadySim(t, 200), "objects", heapObjects)
}

// TestSteadyStateAllocFreeAsym extends the allocation-freedom claim to
// heterogeneous machines: per-cluster IQ sizes, weighted steering,
// register ports and bypass latency must not reintroduce allocations.
func TestSteadyStateAllocFreeAsym(t *testing.T) {
	requireZero(t, steadySimCfg(t, asymCfg(), 200), "objects", heapObjects)
}

// TestSteadyStateZeroBytes pins the figure the benchmarks gate, 0 B/op,
// on homogeneous and heterogeneous machines. The previous per-slot deps
// pooling allocated under one object per cycle while still growing a
// slice every few hundred cycles — 5 B/op in BENCH_pr5.json.
func TestSteadyStateZeroBytes(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  config.Config
	}{
		{"sym", config.Preset(4).WithVP(config.VPStride).WithSteering(config.SteerVPB)},
		{"asym", asymCfg()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			requireZero(t, steadySimCfg(t, tc.cfg, 200), "bytes", heapBytes)
		})
	}
}

// TestSteadyStateAllocFreeProgress extends the allocation-freedom
// claim to the service path: a registered progress callback firing
// every few cycles must not reintroduce allocations (the snapshot is a
// stack value and the firing check is branch-and-compare only).
func TestSteadyStateAllocFreeProgress(t *testing.T) {
	s := steadySim(t, 200)
	var fired int64
	var last Progress
	s.SetProgress(16, func(p Progress) {
		fired++
		last = p
	})
	requireZero(t, s, "objects", heapObjects)
	if fired == 0 {
		t.Fatal("progress callback never fired; the allocation claim is vacuous")
	}
	if last.Cycle < 5000 || last.Instructions == 0 || last.IPC() <= 0 {
		t.Errorf("suspicious progress snapshot: %+v", last)
	}
}

// TestProgressIntervalHonored checks the callback cadence and that
// disabling progress stops further callbacks.
func TestProgressIntervalHonored(t *testing.T) {
	s := steadySim(t, 5)
	var cycles []int64
	s.SetProgress(100, func(p Progress) { cycles = append(cycles, p.Cycle) })
	for c := int64(5000); c < 5500; c++ {
		s.step(c)
	}
	// progNext starts at `every`; the warmed sim is past it, so the
	// first step fires, then every 100 cycles: 5000, 5100, ..., 5400.
	if len(cycles) != 5 {
		t.Fatalf("callback fired %d times over 500 cycles at interval 100, want 5 (%v)", len(cycles), cycles)
	}
	for i := 1; i < len(cycles); i++ {
		if cycles[i]-cycles[i-1] != 100 {
			t.Errorf("uneven firing interval: %v", cycles)
		}
	}
	s.SetProgress(0, nil)
	n := len(cycles)
	for c := int64(5500); c < 5700; c++ {
		s.step(c)
	}
	if len(cycles) != n {
		t.Errorf("disabled progress still fired %d more times", len(cycles)-n)
	}
}

// benchSteadyState is the shared body of the steady-state benchmarks.
func benchSteadyState(b *testing.B, cfg config.Config) {
	s := steadySimCfg(b, cfg, 200)
	b.ReportAllocs()
	b.ResetTimer()
	cycle := int64(5000)
	for i := 0; i < b.N; i++ {
		if s.drained() {
			b.StopTimer()
			s = steadySimCfg(b, cfg, 200)
			cycle = 5000
			b.StartTimer()
		}
		s.step(cycle)
		cycle++
	}
}

// BenchmarkSimSteadyState measures the per-cycle cost of the warm
// simulator; the acceptance criterion is 0 allocs/op. Construction and
// warmup run outside the timer.
func BenchmarkSimSteadyState(b *testing.B) {
	benchSteadyState(b, config.Preset(4).WithVP(config.VPStride).WithSteering(config.SteerVPB))
}

// BenchmarkSimSteadyStateAsym is the same gate on a heterogeneous
// machine; CI requires 0 allocs/op here too.
func BenchmarkSimSteadyStateAsym(b *testing.B) {
	benchSteadyState(b, asymCfg())
}

// BenchmarkSimWindow is the cycle rung with a fixed amount of work per
// op: cycles 5,000–25,000 of a gsmenc Sim warmed through cycle 4,999.
// Every op rebuilds and warms its Sim outside the timer, so the op is
// the same window whatever b.N is, and ns/cycle reads the same at any
// -benchtime. (BenchmarkSimSteadyState times one cycle per op, wherever
// b.N has carried the run.)
func BenchmarkSimWindow(b *testing.B) {
	const from, to = 5000, 25000
	k, err := workload.ByName("gsmenc")
	if err != nil {
		b.Fatal(err)
	}
	prog := k.Build(200, 0)
	for _, tc := range []struct {
		name string
		cfg  config.Config
	}{
		{"sym", config.Preset(4).WithVP(config.VPStride).WithSteering(config.SteerVPB)},
		{"asym", asymCfg()},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s, err := New(tc.cfg, prog)
				if err != nil {
					b.Fatal(err)
				}
				for c := int64(0); c < from; c++ {
					s.step(c)
				}
				runtime.GC() // no collection of the setup's garbage overlaps the window
				b.StartTimer()
				for c := int64(from); c < to; c++ {
					s.step(c)
				}
				b.StopTimer()
				if s.drained() {
					b.Fatal("trace drained inside the window; raise the scale")
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*(to-from)), "ns/cycle")
		})
	}
}
