package core

// The reference wakeup/select implementation: the original linear ROB
// scan with lazy per-source readiness checks. It lives only in tests, as
// the oracle for the bitmap selector — oracle_test.go runs whole
// simulations both ways on randomized asymmetric machines and requires
// bit-identical statistics.

// stepRef is step with the reference selector as its issue stage.
func (s *Sim) stepRef(cycle int64) {
	s.processVerifications(cycle)
	s.commit(cycle)
	s.issueRef(cycle)
	s.dispatch(cycle)
	s.fetch(cycle)
	s.endCycle(cycle)
}

// issueRef never reads the ready bitmaps or the timing wheel, but
// dispatch and invalidation still maintain them; the wheel slot for the
// current cycle is drained unprocessed here so reference-mode runs stay
// bounded in memory.
func (s *Sim) issueRef(now int64) {
	s.dropWheelSlot(now)

	for c, r := range s.res {
		r.BeginCycle(now)
		s.out.PerCluster[c].IQOccSum += uint64(s.iqCount[c])
	}
	dports := s.cfg.DCachePorts

	excessInt, excessFP := s.excessInt, s.excessFP
	for c := range excessInt {
		excessInt[c], excessFP[c] = 0, 0
	}

	for i := s.headSeq; i < s.nextSeq; i++ {
		e := &s.ring[i&s.ringMask]
		if e.st != stWaiting || e.dispatchTime >= now {
			continue
		}
		if !s.allSrcReady(e, now) {
			continue
		}
		s.tryIssueEntry(e, now, &dports, excessInt, excessFP)
	}

	s.accumNReady(excessInt, excessFP, now)
}

// dropWheelSlot discards this cycle's pending events unprocessed
// (reference-selector mode never consults the wheel but dispatch still
// feeds it; dropping each slot as its turn comes keeps memory bounded).
func (s *Sim) dropWheelSlot(now int64) {
	i := now & wheelMask
	if h := s.wheelHead[i]; h != noChunk {
		s.evPool[s.wheelTail[i]].next = s.evFree
		s.evFree = h
		s.wheelHead[i], s.wheelTail[i] = noChunk, noChunk
	}
}
