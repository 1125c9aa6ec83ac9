// Package core is the cycle-driven timing simulator of the paper's §2
// microarchitecture: an 8-way out-of-order superscalar with a 6-stage
// pipeline (fetch, decode/rename/steer, issue, execute, writeback,
// commit), clustered into N homogeneous or heterogeneous clusters (each
// sized by its own config.ClusterSpec), with on-demand copy instructions
// for inter-cluster communication, stride value prediction of source
// operands with producer-side verification and verification-copies,
// selective invalidation/reissue, and the Baseline / Modified / VPB
// steering schemes (capacity-weighted on asymmetric machines).
//
// The simulator is trace-driven: it consumes the dynamic instruction
// stream (with real operand values) produced by internal/trace. Control
// mispredictions appear as fetch-redirect bubbles; wrong-path execution
// is not modeled (see DESIGN.md §3 for all idealizations).
package core

import (
	"clustervp/internal/isa"
	"clustervp/internal/trace"
)

// state is the lifecycle of a ROB entry. "Done" is implicit: an entry is
// done when it is issued and its doneTime has passed (reissue rewinds an
// entry to stWaiting, which is why done is not a separate state).
type state uint8

const (
	stWaiting state = iota
	stIssued
	stCommitted
)

// entry is one ROB entry: a program instruction, a copy, or a
// verification-copy. Entries live in a ring buffer and are recycled
// after commit; erefs detect recycling through the seq field.
//
// On a 64-bit host an entry is 128 bytes, two cache lines of a
// page-aligned ring. The first holds everything issue, wakeup and
// commit read; the second the source operands, which only dispatch,
// readiness rechecks and verification touch, and the load/store
// address.
type entry struct {
	seq int64
	// doneTime is result availability (at dstCluster for copies); 1<<62
	// while the entry waits.
	doneTime int64
	// verifyMin is the earliest cycle commit may proceed once every
	// predicted source operand is verified.
	verifyMin int64

	st state
	// Kind. isCopy is a plain copy instruction, isVC a
	// verification-copy; class, lat and pipe drive the cluster's issue
	// resources.
	isCopy bool
	isVC   bool
	pipe   bool
	class  isa.Class

	// Register bookkeeping.
	hasDest bool
	destLog isa.RegID

	// Control flow and memory.
	isBranch bool
	mispred  bool
	isLoad   bool
	isStore  bool

	// vcCorrect is, for verification-copies, whether the prediction they
	// check will succeed (known functionally; used to decide bus usage).
	vcCorrect bool

	// hasVerif marks an entry some pending verification uses as its
	// provider; its issue lowers the verification queue's next-scan
	// bound (issue.go: processVerifications).
	hasVerif bool

	// op and pc survive dispatch for debug formatting only; the full
	// DynInst is consumed at the decode/rename/steer boundary and not
	// stored per entry.
	op isa.Opcode

	nsrc uint8
	// unverified counts this entry's predicted source operands not yet
	// verified.
	unverified uint8

	freeAtCommit uint32 // clusters with a register to free when this writer commits

	// depHead/depTail chain this entry's consumer edges through the
	// Sim-owned chunk pool (sched.go): the selective-reissue cascade
	// walks them in append order, and bitmap wakeup ORs the matching
	// consumer mask. noChunk when the entry has no consumers.
	depHead int32
	depTail int32

	lat int32
	// cluster is where the entry issues; dstCluster is where a
	// copy/verification-copy delivers its value.
	cluster    int16
	dstCluster int16
	pc         int32

	addr         uint64
	dispatchTime int64
	src          [2]source
}

// source describes one register source operand of an entry.
type source struct {
	reg  isa.RegID
	isFP bool
	// predicted marks an operand currently riding a confident predicted
	// value (ready immediately); cleared when verification fails.
	predicted bool
	// predCorrect is the functional outcome of the prediction.
	predCorrect bool
	// provider gates readiness: the entry whose completion makes the
	// value available in this entry's cluster. A zero eref means the
	// value is architecturally ready.
	provider eref
	// minReady is an extra readiness lower bound (set when a failed
	// verification forces a reissue).
	minReady int64
}

// eref is a recycling-safe reference to a ROB entry: the entry's seq+1,
// so the zero eref names no entry. It holds no pointer — Sim.get
// resolves it against the ring — so the rename table, the
// dependence-edge chunks and the verification queue are pointer-free
// and the garbage collector never scans them.
type eref int64

// ref builds an eref for e.
func ref(e *entry) eref { return eref(e.seq + 1) }

// zero reports whether the reference was never set.
func (r eref) zero() bool { return r == 0 }

// get returns r's entry, or nil when r is zero or its entry has
// committed (a committed provider means "value ready in the register
// file"). Commit is in order, so the entries not yet committed are
// exactly seqs [headSeq, nextSeq), each in slot seq&ringMask of a ring
// at least as large as the ROB; no eref names a seq not yet allocated.
// Liveness is therefore one compare, without loading the entry, and the
// zero eref, naming seq -1, needs no test of its own.
func (s *Sim) get(r eref) *entry {
	seq := int64(r) - 1
	if seq < s.headSeq {
		return nil
	}
	return &s.ring[seq&s.ringMask]
}

// verification is a pending value-prediction check: the consumer's
// operand opIdx is verified against provider (the producer for local
// predictions, the verification-copy for remote ones).
type verification struct {
	consumer eref
	provider eref
	opIdx    int32
	remote   bool
	correct  bool
}

// fetched is one instruction in the fetch queue, between the fetch and
// decode/rename/steer stages. The source writes dyn in place, in the
// queue's tail slot (Sim.fetch).
type fetched struct {
	dyn       trace.DynInst
	fetchTime int64
	mispred   bool
	// Value-predictor results, filled once at the decode boundary (the
	// predictor must not be re-trained when dispatch retries after a
	// structural stall).
	vpDone    bool
	vpConf    [2]bool
	vpCorrect [2]bool
}

// srcReady reports whether source i of e is ready at the given cycle.
func (s *Sim) srcReady(e *entry, i int, now int64) bool {
	src := &e.src[i]
	if src.predicted {
		return true
	}
	if now < src.minReady {
		return false
	}
	p := s.get(src.provider)
	return p == nil || p.done(now)
}

// allSrcReady reports whether every source of e is ready.
func (s *Sim) allSrcReady(e *entry, now int64) bool {
	for i := 0; i < int(e.nsrc); i++ {
		if !s.srcReady(e, i, now) {
			return false
		}
	}
	return true
}

// done reports whether e has produced its result by now.
func (e *entry) done(now int64) bool {
	return e.st == stIssued && e.doneTime <= now
}

// resolved reports whether e is done and all its predicted operands are
// verified — the condition for fetch to resume past a mispredicted
// branch and for commit.
func (e *entry) resolved(now int64) bool {
	return e.done(now) && e.unverified == 0 && now >= e.verifyMin
}
