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
type entry struct {
	seq int64

	// Kind and payload. Only the PC and opcode survive dispatch (for
	// debug formatting); the full DynInst is consumed at the
	// decode/rename/steer boundary and not stored per entry.
	isCopy bool // plain copy instruction
	isVC   bool // verification-copy
	pc     int
	op     isa.Opcode
	class  isa.Class
	lat    int
	pipe   bool

	// cluster is where the entry issues; dstCluster is where a
	// copy/verification-copy delivers its value.
	cluster    int
	dstCluster int

	// Register bookkeeping.
	nsrc         int
	src          [2]source
	hasDest      bool
	destLog      isa.RegID
	freeAtCommit uint32 // clusters with a register to free when this writer commits

	// Timing.
	st           state
	dispatchTime int64
	issueTime    int64
	doneTime     int64 // result availability (at dstCluster for copies)

	// Value-prediction verification accounting: number of this entry's
	// predicted source operands not yet verified, and the earliest cycle
	// commit may proceed once they are.
	unverified int
	verifyMin  int64

	// vcCorrect is, for verification-copies, whether the prediction they
	// check will succeed (known functionally; used to decide bus usage).
	vcCorrect bool

	// hasVerif marks an entry some pending verification uses as its
	// provider; its issue lowers the verification queue's next-scan
	// bound (issue.go: processVerifications).
	hasVerif bool

	// depHead/depTail chain this entry's consumer edges through the
	// Sim-owned chunk pool (sched.go): the selective-reissue cascade
	// walks them in append order, and bitmap wakeup ORs the matching
	// consumer mask. noChunk when the entry has no consumers.
	depHead int32
	depTail int32

	// Control flow.
	isBranch bool
	mispred  bool

	// Memory.
	isLoad  bool
	isStore bool
	addr    uint64
}

// source describes one register source operand of an entry.
type source struct {
	reg  isa.RegID
	isFP bool
	// provider gates readiness: the entry whose completion makes the
	// value available in this entry's cluster. A zero eref means the
	// value is architecturally ready.
	provider eref
	// predicted marks an operand currently riding a confident predicted
	// value (ready immediately); cleared when verification fails.
	predicted bool
	// predCorrect is the functional outcome of the prediction.
	predCorrect bool
	// minReady is an extra readiness lower bound (set when a failed
	// verification forces a reissue).
	minReady int64
}

// eref is a recycling-safe reference to a ROB entry.
type eref struct {
	e   *entry
	seq int64
}

// ref builds an eref for e.
func ref(e *entry) eref { return eref{e: e, seq: e.seq} }

// get returns the entry, or nil when it has committed and been recycled
// (a committed provider means "value ready in the register file").
func (r eref) get() *entry {
	if r.e != nil && r.e.seq == r.seq && r.e.st != stCommitted {
		return r.e
	}
	return nil
}

// zero reports whether the reference was never set.
func (r eref) zero() bool { return r.e == nil }

// verification is a pending value-prediction check: the consumer's
// operand opIdx is verified against provider (the producer for local
// predictions, the verification-copy for remote ones).
type verification struct {
	consumer eref
	opIdx    int
	provider eref
	remote   bool
	correct  bool
}

// fetched is one instruction in the fetch queue, between the fetch and
// decode/rename/steer stages.
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
func (e *entry) srcReady(i int, now int64) bool {
	s := &e.src[i]
	if s.predicted {
		return true
	}
	if now < s.minReady {
		return false
	}
	p := s.provider.get()
	if p == nil {
		return true
	}
	return p.st == stIssued && p.doneTime <= now
}

// allSrcReady reports whether every source of e is ready.
func (e *entry) allSrcReady(now int64) bool {
	for i := 0; i < e.nsrc; i++ {
		if !e.srcReady(i, now) {
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
