package core

import "math/bits"

// issue is the per-cluster wakeup/select stage, built on readiness
// bitmaps (sched.go). Wakeup events fired from the timing wheel refresh
// the global ready mask; select then walks the mask oldest-first from
// the ROB head with bits.TrailingZeros64, so selection order — and with
// it the arbitration of L1D ports, inter-cluster buses, per-cluster
// issue widths, FU mix and RegPorts caps — is identical to the original
// linear ROB scan (kept as issueRef in issue_ref_test.go and pinned by
// the differential oracle in oracle_test.go). ROB order gives
// oldest-first selection; each cluster enforces its issue widths and
// functional units, memory operations share the L1D ports, and copies
// reserve inter-cluster buses like any other resource (§2.1).
func (s *Sim) issue(now int64) {
	for c, r := range s.res {
		r.BeginCycle(now)
		s.out.PerCluster[c].IQOccSum += uint64(s.iqCount[c])
	}
	dports := s.cfg.DCachePorts

	// Per-cluster count of ready instructions denied by width/FU limits,
	// for the NREADY imbalance metric (§2.3.2); the slices are Sim-owned
	// scratch, zeroed here rather than reallocated every cycle.
	excessInt, excessFP := s.excessInt, s.excessFP
	for c := range excessInt {
		excessInt[c], excessFP[c] = 0, 0
	}

	s.drainWheel(now)

	// Select: walk the ready mask in ROB age order. Live slots occupy
	// the contiguous sequence window [headSeq, nextSeq), so ascending
	// age is ascending slot from the head slot with a single wrap: the
	// head word's bits at and above the head offset first, then the
	// following words, then the head word's wrapped low bits.
	head := s.headSeq & s.ringMask
	hw := int(head >> 6)
	hb := uint(head & 63)
	nw := s.nw
	for k := 0; k <= nw; k++ {
		w := hw + k
		if w >= nw {
			w -= nw
		}
		m := s.readyW[w]
		if k == 0 {
			m &= ^uint64(0) << hb
		} else if k == nw {
			if hb == 0 {
				break
			}
			m &= 1<<hb - 1
		}
		for m != 0 {
			b := bits.TrailingZeros64(m)
			m &^= 1 << uint(b)
			s.tryIssueEntry(&s.ring[w<<6+b], now, &dports, excessInt, excessFP)
		}
	}

	s.accumNReady(excessInt, excessFP)
}

// tryIssueEntry attempts to issue one ready candidate, consuming L1D
// ports, bus reservations, issue width and functional units exactly as
// the reference scan does. Denied candidates keep their ready bit and
// are retried next cycle.
func (s *Sim) tryIssueEntry(e *entry, now int64, dports *int, excessInt, excessFP []int) {
	var fwd *entry
	if e.isLoad {
		var blocked bool
		blocked, fwd = s.loadBlocked(e, now)
		if blocked {
			return
		}
	}
	cl := e.cluster

	// Memory port check (shared L1D ports, Table 1: 3 R/W ports).
	if (e.isLoad || e.isStore) && *dports == 0 {
		// Port-starved: counts as issue-width style denial for the
		// imbalance metric? The paper ties NREADY to issue width and
		// idle FUs, so port denials are excluded.
		return
	}
	// Route reservation check for copies and for verification-copies
	// that will have to forward (mismatch known functionally). The
	// copy executes in its producer's cluster (e.cluster) and ships
	// the value to e.dstCluster.
	needsBus := e.isCopy || (e.isVC && !e.vcCorrect)
	if needsBus && !s.net.CanReserve(e.cluster, e.dstCluster, now+1) {
		s.out.BusStalls++
		return
	}
	if !s.res[cl].TryIssue(e.class, e.lat, e.pipe) {
		if e.class.IsFP() {
			excessFP[cl]++
		} else {
			excessInt[cl]++
		}
		return
	}

	// Issue.
	e.st = stIssued
	e.issueTime = now
	switch {
	case e.isCopy:
		arrival, ok := s.net.Reserve(e.cluster, e.dstCluster, now+1)
		if !ok {
			panic("core: route reservation failed after CanReserve")
		}
		e.doneTime = arrival
	case e.isVC:
		if e.vcCorrect {
			// Local compare only; no wire crossed.
			e.doneTime = now + 1
		} else {
			arrival, ok := s.net.Reserve(e.cluster, e.dstCluster, now+1)
			if !ok {
				panic("core: route reservation failed after CanReserve")
			}
			e.doneTime = arrival
		}
	case e.isLoad:
		if *dports > 0 {
			*dports--
		}
		// Loads write registers, so their results ride the same local
		// bypass network as ALU results and pay the same extra cycles.
		if fwd != nil {
			// Store-to-load forwarding through the store queue.
			e.doneTime = now + 1 + s.bypass[cl]
			s.addDep(fwd, ref(e))
		} else {
			e.doneTime = now + 1 + int64(s.caches.DataAccess(e.addr)) + s.bypass[cl]
		}
	case e.isStore:
		if *dports > 0 {
			*dports--
		}
		// Warm the line; the store completes into the store queue.
		s.caches.DataAccess(e.addr)
		e.doneTime = now + 1
	default:
		// BypassLatency models a deeper local bypass network: the
		// result exists at now+lat but consumers (including copies
		// reading it for export) see it that many cycles later. The
		// paper's machines have a full single-cycle bypass (0 extra).
		e.doneTime = now + int64(e.lat) + s.bypass[cl]
	}
	s.iqLeave(e)
	// Wakeup: consumers recheck when this result becomes visible.
	s.wakeConsumersAt(e, e.doneTime, now)
	if e.hasVerif && now+1 < s.nextVerifMin {
		// A pending check rides this provider; nothing resolves sooner
		// than next cycle, and the scan there computes the exact bound.
		s.nextVerifMin = now + 1
	}
}

// accumNReady folds the per-cluster denial counts into NREADY: ready
// instructions beyond their cluster's issue capacity that idle capacity
// elsewhere could have absorbed.
func (s *Sim) accumNReady(excessInt, excessFP []int) {
	nc := len(s.res)
	var nready int
	for c := 0; c < nc; c++ {
		if excessInt[c] > 0 {
			idle := 0
			for j := 0; j < nc; j++ {
				if j != c {
					idle += s.res[j].IdleIntSlots()
				}
			}
			if idle < excessInt[c] {
				nready += idle
			} else {
				nready += excessInt[c]
			}
		}
		if excessFP[c] > 0 {
			idle := 0
			for j := 0; j < nc; j++ {
				if j != c {
					idle += s.res[j].IdleFPSlots()
				}
			}
			if idle < excessFP[c] {
				nready += idle
			} else {
				nready += excessFP[c]
			}
		}
	}
	s.out.NReadySum += uint64(nready)
}

// loadBlocked implements the paper's disambiguation rule: a load may
// execute once every older store's address is known (the store's address
// operand is ready or the store has issued; data may still be pending).
// A load whose address matches an older in-flight store additionally
// waits for that store's data so it can forward; fwd returns the
// youngest matching store.
func (s *Sim) loadBlocked(load *entry, now int64) (blocked bool, fwd *entry) {
	for _, sr := range s.activeStores {
		st := sr.get()
		if st == nil || st.seq > load.seq {
			continue
		}
		if st.st != stIssued && !st.srcReady(0, now) {
			return true, nil
		}
		if st.addr>>3 == load.addr>>3 {
			if fwd == nil || st.seq > fwd.seq {
				fwd = st
			}
		}
	}
	if fwd != nil && fwd.st != stIssued {
		// Matching store: wait until its data enters the store queue.
		return true, nil
	}
	return false, fwd
}

// processVerifications resolves value-prediction checks: local
// predictions verify one cycle after the producer's writeback (§2.2);
// remote predictions verify when the verification-copy compares in the
// producer cluster, and on mismatch the corrected value arrives over the
// bus (§2.2, clustered extension).
func (s *Sim) processVerifications(now int64) {
	// Nothing can resolve before nextVerifMin: checks against a waiting
	// provider are unlocked by that provider's issue (which lowers the
	// bound to now+1), and checks against an issued provider resolve at
	// a time folded into the bound when the check was queued or last
	// scanned. Skipping the scan until then changes no resolution time.
	if len(s.pendingVerifs) == 0 || now < s.nextVerifMin {
		return
	}
	// In-place compaction with pointer reads: retained checks (the
	// common case) move only after the first resolution, and nothing is
	// copied just to be looked at.
	nextMin := int64(1) << 62
	pv := s.pendingVerifs
	j := 0
	for i := range pv {
		v := &pv[i]
		var t int64
		p := v.provider.get()
		retain := false
		switch {
		case p == nil:
			// Provider committed: its writeback long since happened.
			t = now
		case !v.remote:
			if p.st != stIssued || p.doneTime+1 > now {
				if p.st == stIssued && p.doneTime+1 < nextMin {
					nextMin = p.doneTime + 1
				}
				retain = true
			} else {
				t = p.doneTime + 1
			}
		case v.correct:
			// Verification-copy compares locally one cycle after issue.
			if p.st != stIssued || p.issueTime+1 > now {
				if p.st == stIssued && p.issueTime+1 < nextMin {
					nextMin = p.issueTime + 1
				}
				retain = true
			} else {
				t = p.issueTime + 1
			}
		default:
			// Mismatch: the corrected value crosses the wire; the
			// consumer can restart when it arrives.
			if p.st != stIssued || p.doneTime > now {
				if p.st == stIssued && p.doneTime < nextMin {
					nextMin = p.doneTime
				}
				retain = true
			} else {
				t = p.doneTime
			}
		}
		if retain {
			if j != i {
				pv[j] = pv[i]
			}
			j++
			continue
		}
		s.resolveVerification(*v, t, now)
	}
	s.pendingVerifs = pv[:j]
	s.nextVerifMin = nextMin
}

func (s *Sim) resolveVerification(v verification, t, now int64) {
	c := v.consumer.get()
	if c == nil {
		return // consumer already committed (only possible when correct)
	}
	if t > c.verifyMin {
		c.verifyMin = t
	}
	if v.correct {
		c.unverified--
		return
	}
	s.out.PredictedOperandsWrong++
	if c.st == stIssued {
		s.invalidate(c, now)
	}
	src := &c.src[v.opIdx]
	src.predicted = false
	src.minReady = t
	src.provider = v.provider
	if p := v.provider.get(); p != nil {
		s.addDep(p, v.consumer)
	}
	c.unverified--
	// The operand lost its predicted cover: recompute the consumer's
	// ready bit against the substituted provider and minReady bound.
	s.recheckSlot(c.seq&s.ringMask, now)
}

// invalidate implements selective invalidation and reissue (§2.2): the
// entry returns to the waiting state and every issued dependent is
// invalidated transitively. The paper assumes the existing issue
// mechanism performs the restart with no additional penalty. Waiting
// dependents are not invalidated, but their ready bits may rest on this
// entry's now-withdrawn result, so they recompute ("unwakeup") — the
// reissue will wake them again.
func (s *Sim) invalidate(e *entry, now int64) {
	if e.st != stIssued {
		return
	}
	e.st = stWaiting
	e.doneTime = 1 << 62
	s.iqEnter(e)
	s.recheckSlot(e.seq&s.ringMask, now)
	s.out.Reissues++
	if e.isBranch && e.mispred && s.blockingBranch.get() == nil {
		// A re-executing control-mispredicted branch redirects fetch
		// again.
		s.blockingBranch = ref(e)
	}
	if e.isStore {
		// Conservative memory-order recovery: younger issued loads
		// restart (their disambiguation decision may be stale).
		for i := e.seq + 1; i < s.nextSeq; i++ {
			d := &s.ring[i&s.ringMask]
			if d.isLoad && d.st == stIssued {
				s.invalidate(d, now)
			}
		}
	}
	for ci := e.depHead; ci != noChunk; ci = s.depPool[ci].next {
		ch := &s.depPool[ci]
		for i := int32(0); i < ch.n; i++ {
			if d := ch.refs[i].get(); d != nil {
				if d.st == stIssued {
					s.invalidate(d, now)
				} else if d.st == stWaiting {
					s.recheckSlot(d.seq&s.ringMask, now)
				}
			}
		}
	}
}

// commit retires up to RetireWidth entries per cycle in order; an entry
// retires once executed and with all its value predictions verified.
// Copy and verification-copy instructions occupy retire slots like any
// other ROB entry but do not count as program instructions.
func (s *Sim) commit(now int64) {
	for n := 0; n < s.cfg.RetireWidth && s.robCount > 0; n++ {
		e := &s.ring[s.headSeq&s.ringMask]
		if !e.resolved(now) {
			return
		}
		if e.hasDest {
			field := e.cluster
			if e.isCopy {
				field = e.dstCluster
			}
			m := s.table.Lookup(e.destLog, field)
			if m.Valid && m.Provider.e == e && m.Provider.seq == e.seq {
				s.table.SetProvider(e.destLog, field, eref{})
			}
			s.table.ReleaseAtCommit(e.freeAtCommit)
		}
		if e.isStore {
			s.removeActiveStore(e.seq)
		}
		if !e.isCopy && !e.isVC {
			s.out.Instructions++
		}
		e.st = stCommitted
		s.headSeq++
		s.robCount--
		s.lastCommitCycle = now
	}
}

func (s *Sim) removeActiveStore(seq int64) {
	for i, sr := range s.activeStores {
		if sr.seq == seq {
			s.activeStores = append(s.activeStores[:i], s.activeStores[i+1:]...)
			return
		}
	}
}
