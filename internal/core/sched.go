package core

// Bitmapped wakeup/select state. The scheduler-hot state of the ROB
// lives here in Sim-owned parallel arrays indexed by ring slot
// (struct-of-arrays), not in the entries themselves:
//
//   - Every bitmap is nw = len(ring)/64 words wide: one bit per ring
//     slot, so a 128-entry ROB walks two words, not the eight a
//     ring sized for the 512-entry maximum would.
//   - iqW holds cluster c's valid mask in words [c*nw, (c+1)*nw): one
//     bit per ring slot holding a dispatched, still-waiting entry of
//     that cluster (the instruction queue). Its popcount equals
//     iqCount[c] at all times.
//   - readyW is the global ready mask: the subset of waiting entries
//     whose source operands are all ready this cycle. Select walks it
//     oldest-first with bits.TrailingZeros64. The mask is global rather
//     than per-cluster because the shared structures it arbitrates —
//     L1D ports and the inter-cluster buses — are allocated in global
//     ROB age order; per-cluster ready words are readyW & iqW[c].
//   - cons row p (words [p*nw, (p+1)*nw)) is producer slot p's consumer
//     mask: one bit per ring slot holding an entry that named p as a
//     source provider. Wakeup on producer completion is a word-OR of
//     that row into recheckW.
//   - kind holds, per ring slot, what select needs to turn a waiting
//     entry away without loading it: its cluster, whether its class is
//     FP, and whether issue checks nothing but the cluster's resources
//     for it (no load, store, copy or forwarding verification-copy).
//   - wheel is a timing wheel of wakeup events. A producer pushes one
//     completion event at issue time, keyed by its doneTime; when it
//     fires, every flagged consumer recomputes its readiness.
//
// Events are hints, not truth: firing rechecks recompute readiness from
// the entry's sources, so stale events (recycled slots, superseded
// providers, invalidated producers) are harmless. The invariant that
// matters is that no wakeup is ever lost — every transition of a
// waiting entry to "all sources ready" is covered by either a pending
// wheel event or an inline recheck at the mutation site (dispatch,
// invalidate, verification resolve). TestReadyBitmapSoundness and the
// differential oracle in oracle_test.go pin both directions.

import "math/bits"

const (
	// depChunkSize is the consumer-edge payload of one dep chunk: a
	// chunk is then 128 bytes, two cache lines.
	depChunkSize = 15

	// wheelCap bounds how far ahead a wakeup can be scheduled directly;
	// farther events chain through the last wheel slot and reschedule
	// when they fire. Must be a power of two.
	wheelCap  = 1024
	wheelMask = wheelCap - 1

	// prodEvent flags a wheel entry as a producer-completion event (the
	// low bits carry the ring slot).
	prodEvent = 1 << 15

	// evChunkSize is the event payload of one wheel chunk.
	evChunkSize = 30

	// kind byte layout (issueKind): the cluster in the low five bits
	// (MaxClusters is 32), then the class and issue-path flags.
	kindCluster = 1<<5 - 1
	kindFP      = 1 << 5
	kindPlain   = 1 << 6

	// noChunk terminates a dep or event chain.
	noChunk = -1
)

// depChunk is one block of a producer's consumer-edge list. Edges are
// stored in chunked, index-linked lists drawn from a single Sim-owned
// pool so steady-state edge growth never heap-allocates: the pool's
// high-water mark is global, unlike the previous per-ring-slot deps
// slices, each of which had to individually warm up to its own maximum
// fanout (the source of the residual B/op the benchmarks caught).
// Index links and seq-valued erefs, not pointers, so the pool backing
// array may grow and the garbage collector never scans it.
type depChunk struct {
	n    int32
	next int32
	refs [depChunkSize]eref
}

// evChunk is one block of a wheel slot's pending-event list. Like dep
// chunks, events live in chunked index-linked chains drawn from one
// shared pool: per-wheel-slot slices would each have to warm up to
// their own maximum occupancy (1024 independent high-water marks),
// reintroducing the slow allocation trickle the dep pool eliminated.
type evChunk struct {
	n    int32
	next int32
	evs  [evChunkSize]int32
}

// sched is the bitmapped wakeup/select state embedded in Sim. Every
// bitmap is nw words wide, sized with the ring by resetSched.
type sched struct {
	nw       int
	iqW      []uint64 // per-cluster valid (waiting) masks, nw words each
	readyW   []uint64 // global ready mask
	recheckW []uint64 // per-cycle scratch: slots to recompute
	cons     []uint64 // per-slot consumer masks, nw words each
	// consDirty flags ring slots with a nonzero consumer mask, so slot
	// recycling skips the row clear for the common consumer-less case.
	consDirty []uint64
	kind      []uint8 // per-slot cluster and issue flags, set at IQ entry
	// satInt and satFP flag, for the current cycle's select, the
	// clusters whose integer or FP issue width (or register ports) are
	// used up; denied flags the clusters with a nonzero count in
	// excessInt or excessFP.
	satInt, satFP, denied uint32
	// iqOver flags the clusters whose IQ holds more entries than its
	// size: a reissued entry re-enters its IQ whatever the occupancy.
	iqOver uint32

	wheelHead [wheelCap]int32
	wheelTail [wheelCap]int32

	depPool []depChunk
	depFree int32
	evPool  []evChunk
	evFree  int32

	// nextVerifMin is a lower bound on the earliest cycle any pending
	// verification can resolve; processVerifications skips its scan
	// before then. Lowered when a verification provider issues and when
	// a verification is created against an already-issued provider;
	// recomputed exactly on every scan.
	nextVerifMin int64
}

// resetSched sizes (or rewinds) the scheduler state for nc clusters and
// the current ring. On a fresh Sim the pools start with capacity for
// four dependence-edge chunks per ring slot, so a run rarely grows them;
// on a reused Sim the bitmap storage and pool backing arrays are
// resliced when large enough and only their contents are rewound.
// Consumer-mask rows are cleared via consDirty, in the previous run's
// layout, so the sweep touches only rows a prior run actually wrote and
// leaves the whole backing array zero before it is re-laid-out.
func (s *Sim) resetSched(nc int) {
	for w, m := range s.consDirty {
		for m != 0 {
			b := bits.TrailingZeros64(m)
			m &^= 1 << uint(b)
			clear(s.consRow(int64(w<<6 + b)))
		}
	}
	slots := len(s.ring)
	nw := slots >> 6
	s.nw = nw
	s.iqW = zeroed(s.iqW, nc*nw)
	s.readyW = zeroed(s.readyW, nw)
	s.recheckW = zeroed(s.recheckW, nw)
	s.consDirty = zeroed(s.consDirty, nw)
	if cap(s.kind) < slots {
		s.kind = make([]uint8, slots)
	} else {
		s.kind = s.kind[:slots]
		clear(s.kind)
	}
	if cap(s.cons) < slots*nw {
		s.cons = make([]uint64, slots*nw)
	} else {
		s.cons = s.cons[:slots*nw]
	}
	for i := range s.wheelHead {
		s.wheelHead[i], s.wheelTail[i] = noChunk, noChunk
	}
	if cap(s.depPool) < 4*slots {
		s.depPool = make([]depChunk, 0, 4*slots)
	} else {
		s.depPool = s.depPool[:0]
	}
	s.depFree = noChunk
	if n := 4 * slots / evChunkSize; cap(s.evPool) < n {
		s.evPool = make([]evChunk, 0, n)
	} else {
		s.evPool = s.evPool[:0]
	}
	s.evFree = noChunk
	s.nextVerifMin = 0
	s.satInt, s.satFP, s.denied, s.iqOver = 0, 0, 0, 0
}

// zeroed returns b resliced to n zero words, reallocating only when b's
// capacity is short.
func zeroed(b []uint64, n int) []uint64 {
	if cap(b) < n {
		return make([]uint64, n)
	}
	b = b[:n]
	clear(b)
	return b
}

// consRow is producer slot's consumer mask.
func (s *sched) consRow(slot int64) []uint64 {
	i := int(slot) * s.nw
	return s.cons[i : i+s.nw]
}

// --- dependence-edge pool ---

// newChunk pops a recycled chunk or extends the pool.
func (s *Sim) newChunk() int32 {
	if ci := s.depFree; ci != noChunk {
		s.depFree = s.depPool[ci].next
		s.depPool[ci].n = 0
		s.depPool[ci].next = noChunk
		return ci
	}
	s.depPool = append(s.depPool, depChunk{next: noChunk})
	return int32(len(s.depPool) - 1)
}

// addDep records r as a consumer of producer p: appended to p's edge
// list (order is semantic — the reissue cascade walks edges in append
// order, and blockingBranch election depends on it) and OR-able via
// p's consumer mask for bitmap wakeup.
func (s *Sim) addDep(p *entry, r eref) {
	ci := p.depTail
	if ci == noChunk || s.depPool[ci].n == depChunkSize {
		nc := s.newChunk()
		if ci == noChunk {
			p.depHead = nc
		} else {
			s.depPool[ci].next = nc
		}
		p.depTail = nc
		ci = nc
	}
	c := &s.depPool[ci]
	c.refs[c.n] = r
	c.n++
	pslot := p.seq & s.ringMask
	cslot := (int64(r) - 1) & s.ringMask
	s.cons[int(pslot)*s.nw+int(cslot>>6)] |= 1 << uint(cslot&63)
	s.consDirty[pslot>>6] |= 1 << uint(pslot&63)
}

// releaseDeps returns e's edge chunks to the free list and clears the
// recycled slot's consumer mask. slot is passed by the caller rather
// than derived from e.seq: a virgin slot still carries seq 0, which
// would otherwise alias the mask of the live entry in slot 0.
func (s *Sim) releaseDeps(e *entry, slot int64) {
	if e.depHead != noChunk {
		// Splice the whole chain onto the free list in one step.
		s.depPool[e.depTail].next = s.depFree
		s.depFree = e.depHead
		e.depHead, e.depTail = noChunk, noChunk
	}
	if s.consDirty[slot>>6]&(1<<uint(slot&63)) != 0 {
		s.consDirty[slot>>6] &^= 1 << uint(slot&63)
		clear(s.consRow(slot))
	}
}

// --- valid/ready masks ---

func (s *Sim) iqEnter(e *entry) {
	slot := e.seq & s.ringMask
	s.iqW[int(e.cluster)*s.nw+int(slot>>6)] |= 1 << uint(slot&63)
	s.iqCount[e.cluster]++
	if s.iqCount[e.cluster] > s.iqSize[e.cluster] {
		s.iqOver |= 1 << uint(e.cluster)
	}
	s.kind[slot] = issueKind(e)
}

func (s *Sim) iqLeave(e *entry) {
	slot := e.seq & s.ringMask
	m := ^(uint64(1) << uint(slot&63))
	s.iqW[int(e.cluster)*s.nw+int(slot>>6)] &= m
	s.readyW[slot>>6] &= m
	s.iqCount[e.cluster]--
	if s.iqOver != 0 && s.iqCount[e.cluster] <= s.iqSize[e.cluster] {
		s.iqOver &^= 1 << uint(e.cluster)
	}
}

func (s *Sim) setReady(slot int64)   { s.readyW[slot>>6] |= 1 << uint(slot&63) }
func (s *Sim) clearReady(slot int64) { s.readyW[slot>>6] &^= 1 << uint(slot&63) }

// --- timing wheel ---

// newEvChunk pops a recycled event chunk or extends the pool.
func (s *Sim) newEvChunk() int32 {
	if ci := s.evFree; ci != noChunk {
		s.evFree = s.evPool[ci].next
		s.evPool[ci].n = 0
		s.evPool[ci].next = noChunk
		return ci
	}
	s.evPool = append(s.evPool, evChunk{next: noChunk})
	return int32(len(s.evPool) - 1)
}

// scheduleEvent pushes event (a slot, optionally tagged prodEvent) at
// cycle t as seen from now. Events beyond the horizon chain through the
// farthest wheel slot: firing early is harmless because firing
// recomputes state and reschedules, while firing late would lose a
// wakeup.
func (s *Sim) scheduleEvent(event int32, t, now int64) {
	if t-now >= wheelCap {
		t = now + wheelCap - 1
	}
	i := t & wheelMask
	ci := s.wheelTail[i]
	if ci == noChunk || s.evPool[ci].n == evChunkSize {
		nc := s.newEvChunk()
		if ci == noChunk {
			s.wheelHead[i] = nc
		} else {
			s.evPool[ci].next = nc
		}
		s.wheelTail[i] = nc
		ci = nc
	}
	c := &s.evPool[ci]
	c.evs[c.n] = event
	c.n++
}

// wakeConsumersAt schedules producer p's completion wakeup for cycle t.
func (s *Sim) wakeConsumersAt(p *entry, t, now int64) {
	s.scheduleEvent(int32(p.seq&s.ringMask)|prodEvent, t, now)
}

// drainWheel fires this cycle's wakeup events: producer completions
// word-OR their consumer masks into recheckW, direct rechecks set their
// own bit, and then every flagged slot recomputes its readiness. The
// empty-slot test inlines, so a cycle without events makes no call.
func (s *Sim) drainWheel(now int64) {
	if head := s.wheelHead[now&wheelMask]; head != noChunk {
		s.fireWheel(now, head)
	}
}

// fireWheel fires the event chain head of this cycle's wheel slot.
func (s *Sim) fireWheel(now int64, head int32) {
	wi := now & wheelMask
	// Detach the chain before firing. Processing only schedules into
	// future cycles (re-arms use doneTime > now, rechecks wake > now),
	// never back into this slot. Events are read by pool index, not
	// held pointers: a re-arm may grow evPool and move its backing.
	s.wheelHead[wi], s.wheelTail[wi] = noChunk, noChunk
	any := false
	last := head
	for ci := head; ci != noChunk; ci = s.evPool[ci].next {
		last = ci
		for j := int32(0); j < s.evPool[ci].n; j++ {
			ev := s.evPool[ci].evs[j]
			slot := int64(ev &^ prodEvent)
			if ev&prodEvent != 0 {
				if e := &s.ring[slot]; e.st == stIssued && e.doneTime > now {
					// Chained past-horizon completion (or a recycled
					// slot's new occupant): not done yet, re-arm at its
					// doneTime.
					s.wakeConsumersAt(e, e.doneTime, now)
					continue
				}
				for w, m := range s.consRow(slot) {
					s.recheckW[w] |= m
				}
			} else {
				s.recheckW[slot>>6] |= 1 << uint(slot&63)
			}
			any = true
		}
	}
	s.evPool[last].next = s.evFree
	s.evFree = head
	if !any {
		return
	}
	for w := range s.recheckW {
		m := s.recheckW[w]
		s.recheckW[w] = 0
		for m != 0 {
			b := bits.TrailingZeros64(m)
			m &^= 1 << uint(b)
			s.recheckSlot(int64(w<<6+b), now)
		}
	}
}

// recheckSlot recomputes the readiness of the waiting entry in slot and
// updates its ready bit. When the entry is not ready but every pending
// source has a known ready time (an issued provider's doneTime, or a
// minReady bound), a recheck is scheduled for the latest such time;
// pending sources whose provider has not issued need no event here —
// that provider's own issue schedules the completion wakeup.
func (s *Sim) recheckSlot(slot, now int64) {
	e := &s.ring[slot]
	if e.st != stWaiting {
		return
	}
	ready := true
	var wake int64
	for i := 0; i < int(e.nsrc); i++ {
		src := &e.src[i]
		if src.predicted {
			continue
		}
		if now < src.minReady {
			ready = false
			if src.minReady > wake {
				wake = src.minReady
			}
			continue
		}
		p := s.get(src.provider)
		if p == nil {
			continue
		}
		if p.st == stIssued {
			if p.doneTime <= now {
				continue
			}
			ready = false
			if p.doneTime > wake {
				wake = p.doneTime
			}
		} else {
			ready = false
		}
	}
	if ready {
		s.setReady(slot)
		return
	}
	s.clearReady(slot)
	if wake > now {
		s.scheduleEvent(int32(slot), wake, now)
	}
}
