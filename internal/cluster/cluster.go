// Package cluster models the execution resources of one cluster: the
// per-class issue widths and the functional-unit pools of Table 1
// ("8 int (4 include mul/div), 4 fp (2 include fp mul/div)" for the
// centralized machine, scaled down per cluster).
//
// Integer units form one pool of which a subset is mul/div capable; the
// FP units likewise. All units are fully pipelined except the divides,
// which hold their unit until completion. The issue stage asks TryIssue
// once per candidate instruction per cycle; the cluster accounts width,
// unit and divider occupancy and answers yes or no.
//
// Each Resources is built from one config.ClusterSpec, so on a
// heterogeneous machine every cluster enforces its own widths, unit
// inventory and register-port bound.
package cluster

import (
	"clustervp/internal/config"
	"clustervp/internal/isa"
)

// Resources tracks one cluster's per-cycle issue state.
type Resources struct {
	cfg config.ClusterSpec

	// cycle the per-cycle counters refer to.
	cycle int64
	// Per-cycle counters.
	intIssued int // against IssueInt (ALU+mem+muldiv+copies)
	fpIssued  int // against IssueFP
	intUnits  int // integer units touched this cycle
	fpUnits   int // FP units touched this cycle
	mulUnits  int // mul/div-capable integer units touched this cycle
	fpmUnits  int // FP mul/div-capable units touched this cycle

	// Non-pipelined divider occupancy: busyUntil per mul/div-capable
	// unit.
	intDivBusy []int64
	fpDivBusy  []int64

	// Statistics.
	IssuedTotal uint64
}

// New builds the resource tracker for one cluster.
func New(cfg config.ClusterSpec) *Resources {
	return &Resources{
		cfg:        cfg,
		cycle:      -1,
		intDivBusy: make([]int64, cfg.FUs.IntMul),
		fpDivBusy:  make([]int64, cfg.FUs.FPMulDiv),
	}
}

// Spec returns the cluster's configuration.
func (r *Resources) Spec() config.ClusterSpec { return r.cfg }

// BeginCycle starts the accounting of cycle. It resets the per-cycle
// counters only when they count another cycle, so a caller may call it
// on every use and pays the reset once, and a cycle nothing issues in
// pays none.
func (r *Resources) BeginCycle(cycle int64) {
	if cycle == r.cycle {
		return
	}
	r.cycle = cycle
	r.intIssued, r.fpIssued = 0, 0
	r.intUnits, r.fpUnits = 0, 0
	r.mulUnits, r.fpmUnits = 0, 0
}

func (r *Resources) freeDiv(busy []int64) int {
	for i, b := range busy {
		if b <= r.cycle {
			return i
		}
	}
	return -1
}

// divBusyCount returns how many mul/div-capable units are still held by
// in-flight divides this cycle.
func divBusyCount(busy []int64, cycle int64) int {
	n := 0
	for _, b := range busy {
		if b > cycle {
			n++
		}
	}
	return n
}

// CanIssue reports whether an instruction of the given class could issue
// this cycle without consuming the resources.
func (r *Resources) CanIssue(class isa.Class, latency int, pipelined bool) bool {
	return r.tryIssue(class, latency, pipelined, false)
}

// TryIssue consumes issue width and a functional unit for an instruction
// of the given class; it returns false (consuming nothing) when a width
// or unit limit is hit.
func (r *Resources) TryIssue(class isa.Class, latency int, pipelined bool) bool {
	ok := r.tryIssue(class, latency, pipelined, true)
	if ok {
		r.IssuedTotal++
	}
	return ok
}

func (r *Resources) tryIssue(class isa.Class, latency int, pipelined bool, commit bool) bool {
	// Register-file port bound: every issued instruction (copies
	// included) occupies one read/write port pair; 0 means unbounded,
	// the paper's model.
	if r.portsFull() {
		return false
	}
	f := r.cfg.FUs
	switch class {
	case isa.ClassNone:
		// Copies and NOPs still consume issue width (Table 1:
		// "Communications consume issue width and instruction queue
		// entries") but no functional unit.
		if r.intIssued >= r.cfg.IssueInt {
			return false
		}
		if commit {
			r.intIssued++
		}
		return true
	case isa.ClassIntALU, isa.ClassMem:
		if r.intIssued >= r.cfg.IssueInt {
			return false
		}
		// Units occupied this cycle include divider-held units.
		if r.intUnits+divBusyCount(r.intDivBusy, r.cycle) >= f.IntALU {
			return false
		}
		if commit {
			r.intIssued++
			r.intUnits++
		}
		return true
	case isa.ClassIntMulDiv:
		if r.intIssued >= r.cfg.IssueInt {
			return false
		}
		if r.intUnits >= f.IntALU || r.mulUnits >= f.IntMul {
			return false
		}
		u := r.freeDiv(r.intDivBusy)
		if u < 0 {
			return false
		}
		if commit {
			r.intIssued++
			r.intUnits++
			r.mulUnits++
			if !pipelined {
				r.intDivBusy[u] = r.cycle + int64(latency)
			}
		}
		return true
	case isa.ClassFPALU:
		if r.fpIssued >= r.cfg.IssueFP {
			return false
		}
		if r.fpUnits+divBusyCount(r.fpDivBusy, r.cycle) >= f.FPALU {
			return false
		}
		if commit {
			r.fpIssued++
			r.fpUnits++
		}
		return true
	case isa.ClassFPMulDiv:
		if r.fpIssued >= r.cfg.IssueFP {
			return false
		}
		if r.fpUnits >= f.FPALU || r.fpmUnits >= f.FPMulDiv {
			return false
		}
		u := r.freeDiv(r.fpDivBusy)
		if u < 0 {
			return false
		}
		if commit {
			r.fpIssued++
			r.fpUnits++
			r.fpmUnits++
			if !pipelined {
				r.fpDivBusy[u] = r.cycle + int64(latency)
			}
		}
		return true
	}
	return false
}

// IntFull reports whether no integer-class instruction (copies
// included) can issue for the rest of this cycle: the integer issue
// width or the register-file ports are used up. tryIssue counts the
// classes for which class.IsFP() holds against the FP width (FPFull)
// and every other class against the integer width.
func (r *Resources) IntFull() bool { return r.intIssued >= r.cfg.IssueInt || r.portsFull() }

// FPFull reports whether no FP instruction can issue for the rest of
// this cycle: the FP issue width or the register-file ports are used
// up.
func (r *Resources) FPFull() bool { return r.fpIssued >= r.cfg.IssueFP || r.portsFull() }

func (r *Resources) portsFull() bool {
	p := r.cfg.RegPorts
	return p > 0 && r.intIssued+r.fpIssued >= p
}

// IdleIntSlots returns the unused integer issue width this cycle
// (bounded by unit availability), used by the NREADY imbalance metric.
func (r *Resources) IdleIntSlots() int {
	w := r.cfg.IssueInt - r.intIssued
	u := r.cfg.FUs.IntALU - r.intUnits - divBusyCount(r.intDivBusy, r.cycle)
	if u < w {
		w = u
	}
	if w < 0 {
		return 0
	}
	return w
}

// IdleFPSlots returns the unused FP issue width this cycle.
func (r *Resources) IdleFPSlots() int {
	w := r.cfg.IssueFP - r.fpIssued
	u := r.cfg.FUs.FPALU - r.fpUnits - divBusyCount(r.fpDivBusy, r.cycle)
	if u < w {
		w = u
	}
	if w < 0 {
		return 0
	}
	return w
}
